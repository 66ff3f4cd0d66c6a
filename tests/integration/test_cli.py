"""Integration tests for the command-line disguising tool."""

import json

import pytest

from repro.cli import main
from repro.storage.persist import load_database, save_database
from repro.storage.wal import default_wal_path, recover_database

from tests.conftest import make_blog_db

SCRUB_DOC = {
    "disguise_name": "CliScrub",
    "tables": {
        "users": {
            "generate_placeholder": [
                ["name", "fake_name"],
                ["email", ["default", None]],
                ["disabled", ["default", True]],
            ],
            "transformations": [{"op": "remove", "pred": "id = $UID"}],
        },
        "posts": {
            "transformations": [
                {"op": "decorrelate", "pred": "user_id = $UID", "foreign_key": "user_id"}
            ]
        },
        "comments": {
            "transformations": [
                {"op": "decorrelate", "pred": "user_id = $UID", "foreign_key": "user_id"}
            ]
        },
        "follows": {
            "transformations": [
                {"op": "remove", "pred": "follower_id = $UID OR followee_id = $UID"}
            ]
        },
    },
}


@pytest.fixture
def workspace(tmp_path):
    db_path = tmp_path / "app.jsonl"
    save_database(make_blog_db(), db_path)
    spec_path = tmp_path / "scrub.json"
    spec_path.write_text(json.dumps(SCRUB_DOC))
    vault_dir = tmp_path / "vaults"
    return db_path, spec_path, vault_dir


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestCliLifecycle:
    def test_apply_then_history_then_reveal(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace

        code = run("apply", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--uid", "2", "--check-integrity")
        out = capsys.readouterr().out
        assert code == 0
        assert "CliScrub(uid=2)" in out
        assert "disguise id: 1" in out

        db = recover_database(db_path)
        assert db.get("users", 2) is None

        code = run("history", "--db", db_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "CliScrub" in out and "yes" in out

        code = run("vault", "--vault-dir", vault_dir, "--owner", "2")
        out = capsys.readouterr().out
        assert code == 0
        assert "entr" in out
        assert '"op": "remove"' in out

        code = run("reveal", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--did", "1", "--check-integrity")
        out = capsys.readouterr().out
        assert code == 0
        assert "reveal CliScrub" in out

        db = recover_database(db_path)
        assert db.get("users", 2)["name"] == "Bea"

    def test_explain(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        snapshot_before = db_path.read_bytes()
        code = run("explain", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--uid", "2")
        out = capsys.readouterr().out
        assert code == 0
        assert "plan for 'CliScrub'" in out
        assert "decorrelate" in out
        # explain is a dry run: it writes neither the snapshot nor a log
        assert db_path.read_bytes() == snapshot_before
        assert not default_wal_path(db_path).exists()

    def test_check_clean_and_violation(self, workspace, capsys, tmp_path):
        db_path, _, _ = workspace
        assert run("check", "--db", db_path) == 0
        out = capsys.readouterr().out
        assert "ok:" in out
        # corrupt the snapshot: point a post at a missing user
        db = load_database(db_path)
        db.table("posts").update_by_pk(10, {"user_id": 999})
        save_database(db, db_path)
        assert run("check", "--db", db_path) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_irreversible_apply(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        code = run("apply", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--uid", "2", "--irreversible")
        assert code == 0
        capsys.readouterr()
        code = run("reveal", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--did", "1")
        err = capsys.readouterr().err
        assert code == 1
        assert "irreversibly" in err

    def test_unknown_did_errors(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        code = run("reveal", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--did", "42")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_write_to_missing_snapshot_errors_and_writes_nothing(
        self, workspace, capsys, tmp_path
    ):
        _, spec_path, vault_dir = workspace
        missing = tmp_path / "typo.jsonl"
        code = run("apply", "--db", missing, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--uid", "2")
        assert code == 1
        assert "no database snapshot" in capsys.readouterr().err
        assert run("checkpoint", "--db", missing) == 1
        assert "no database snapshot" in capsys.readouterr().err
        assert not missing.exists() and not default_wal_path(missing).exists()

    def test_empty_history(self, workspace, capsys):
        db_path, _, _ = workspace
        assert run("history", "--db", db_path) == 0
        assert "no disguise" in capsys.readouterr().out

    def test_audit_detects_and_clears(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        # before any disguise: Bea is fully present
        code = run("audit", "--db", db_path, "--user-table", "users",
                   "--uid", "2", "--identifier", "bea@x.io")
        assert code == 1
        assert "LEAK" in capsys.readouterr().out
        run("apply", "--db", db_path, "--vault-dir", vault_dir,
            "--spec", spec_path, "--uid", "2")
        capsys.readouterr()
        code = run("audit", "--db", db_path, "--user-table", "users",
                   "--uid", "2", "--identifier", "bea@x.io")
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_name_selects_among_multiple_specs(self, workspace, capsys, tmp_path):
        db_path, spec_path, vault_dir = workspace
        other = dict(SCRUB_DOC)
        other = json.loads(json.dumps(SCRUB_DOC))
        other["disguise_name"] = "OtherScrub"
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        code = run("apply", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--spec", other_path,
                   "--name", "OtherScrub", "--uid", "3")
        out = capsys.readouterr().out
        assert code == 0 and "OtherScrub(uid=3)" in out

    def test_scan_pii(self, workspace, capsys):
        db_path, _, _ = workspace
        code = run("scan-pii", "--db", db_path)
        out = capsys.readouterr().out
        # blog users carry declared-PII emails -> findings
        assert code == 1 and "PII:" in out


class TestCliWalMode:
    def test_wal_apply_defers_snapshot_rewrite(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        snapshot_before = db_path.read_bytes()
        code = run("apply", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--uid", "2")
        assert code == 0
        assert "CliScrub(uid=2)" in capsys.readouterr().out
        # The delta went to the log; the snapshot was not rewritten.
        assert db_path.read_bytes() == snapshot_before
        assert default_wal_path(db_path).stat().st_size > 0

    def test_readers_recover_through_pending_wal(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        run("apply", "--db", db_path, "--vault-dir", vault_dir,
            "--spec", spec_path, "--uid", "2")
        capsys.readouterr()
        code = run("history", "--db", db_path)
        out = capsys.readouterr().out
        assert code == 0 and "CliScrub" in out
        assert run("check", "--db", db_path) == 0
        assert "ok:" in capsys.readouterr().out

    def test_checkpoint_folds_wal_into_snapshot(self, workspace, capsys):
        from repro.storage.wal import WriteAheadLog

        db_path, spec_path, vault_dir = workspace
        run("apply", "--db", db_path, "--vault-dir", vault_dir,
            "--spec", spec_path, "--uid", "2")
        capsys.readouterr()
        code = run("checkpoint", "--db", db_path)
        out = capsys.readouterr().out
        assert code == 0 and "checkpoint" in out
        # The log is now empty and the snapshot alone carries the disguise.
        assert WriteAheadLog.read_units(default_wal_path(db_path)) == []
        assert load_database(db_path).get("users", 2) is None

    def test_wal_reveal_round_trip(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        snapshot_before = db_path.read_bytes()
        run("apply", "--db", db_path, "--vault-dir", vault_dir,
            "--spec", spec_path, "--uid", "2", "--fsync", "always")
        capsys.readouterr()
        code = run("reveal", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--did", "1")
        assert code == 0
        assert "reveal CliScrub" in capsys.readouterr().out
        assert db_path.read_bytes() == snapshot_before
        code = run("checkpoint", "--db", db_path)
        capsys.readouterr()
        assert code == 0
        assert load_database(db_path).get("users", 2)["name"] == "Bea"

    def test_reveal_after_checkpoint_and_later_apply(self, workspace, capsys, tmp_path):
        """A checkpointed snapshot keeps the id watermark, so a placeholder
        made after it cannot take a removed user's id."""
        db_path, spec_path, vault_dir = workspace
        delete_doc = {
            "disguise_name": "CliDelete",
            "tables": {
                name: {"transformations": [{"op": "remove", "pred": pred}]}
                for name, pred in (
                    ("users", "id = $UID"),
                    ("posts", "user_id = $UID"),
                    ("comments", "user_id = $UID"),
                    ("follows", "follower_id = $UID OR followee_id = $UID"),
                )
            },
        }
        delete_path = tmp_path / "delete.json"
        delete_path.write_text(json.dumps(delete_doc))
        specs = ("--spec", spec_path, "--spec", delete_path)
        assert run("apply", "--db", db_path, "--vault-dir", vault_dir, *specs,
                   "--name", "CliDelete", "--uid", "3") == 0
        assert run("checkpoint", "--db", db_path) == 0
        assert run("apply", "--db", db_path, "--vault-dir", vault_dir, *specs,
                   "--name", "CliScrub", "--uid", "1") == 0
        assert run("reveal", "--db", db_path, "--vault-dir", vault_dir, *specs,
                   "--did", "1") == 0
        capsys.readouterr()
        assert run("checkpoint", "--db", db_path) == 0
        assert load_database(db_path).get("users", 3)["name"] == "Cal"


class TestCliService:
    def test_submit_serve_jobs_round_trip(self, workspace, capsys):
        """submit queues durably, serve drains with workers, jobs reports."""
        db_path, spec_path, vault_dir = workspace
        snapshot_before = db_path.read_bytes()

        for uid in ("2", "3"):
            code = run("submit", "--db", db_path, "apply",
                       "--spec-name", "CliScrub", "--uid", uid)
            out = capsys.readouterr().out
            assert code == 0 and "queued job" in out

        code = run("jobs", "--db", db_path)
        out = capsys.readouterr().out
        assert code == 0
        assert out.count('"state": "pending"') == 2

        code = run("serve", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--workers", "2")
        out = capsys.readouterr().out
        assert code == 0
        metrics = json.loads(out)
        assert metrics["service.jobs_done"] == 2 and metrics["service.jobs_dead"] == 0
        assert metrics["service.queue_depth"] == 0

        code = run("jobs", "--db", db_path, "--state", "done")
        out = capsys.readouterr().out
        assert code == 0
        assert out.count('"state": "done"') == 2
        dids = [json.loads(line)["result"]["did"] for line in out.splitlines()]

        assert db_path.read_bytes() == snapshot_before
        db = recover_database(db_path)
        assert db.get("users", 2) is None and db.get("users", 3) is None
        db.assert_integrity()

        # Queue reveals for both disguises and drain them the same way.
        for did in dids:
            assert run("submit", "--db", db_path, "reveal",
                       "--did", str(did)) == 0
        capsys.readouterr()
        code = run("serve", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--workers", "2")
        capsys.readouterr()
        assert code == 0
        db = recover_database(db_path)
        assert db.get("users", 2)["name"] == "Bea"

    def test_serve_reports_dead_jobs(self, workspace, capsys):
        db_path, spec_path, vault_dir = workspace
        assert run("submit", "--db", db_path, "reveal", "--did", "99") == 0
        capsys.readouterr()
        code = run("serve", "--db", db_path, "--vault-dir", vault_dir,
                   "--spec", spec_path, "--workers", "1")
        captured = capsys.readouterr()
        assert code == 1
        assert "dead-lettered" in captured.err

    def test_jobs_without_queue(self, workspace, capsys):
        db_path, _, _ = workspace
        assert run("jobs", "--db", db_path) == 0
        assert "no job queue" in capsys.readouterr().out
