"""CLI surface: ``serve --shards``, ``shards``, and legacy metrics merging."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.shard import ShardMap
from repro.spec.parser import spec_to_dict
from repro.storage.persist import load_database, save_database_atomic

from tests.conftest import blog_scrub_spec, make_blog_db
from tests.shard.test_apply import rooted_spec


@pytest.fixture
def deployment(tmp_path):
    """A snapshot, a spec document, and a vault dir under tmp_path."""
    db_path = tmp_path / "app.jsonl"
    save_database_atomic(make_blog_db(), db_path, generation=0)
    spec_path = tmp_path / "scrub.json"
    spec_path.write_text(json.dumps(spec_to_dict(rooted_spec())))
    return {
        "db": str(db_path),
        "spec": str(spec_path),
        "vaults": str(tmp_path / "vaults"),
        "tmp": tmp_path,
    }


def submit(dep, uid):
    assert main([
        "submit", "--db", dep["db"], "apply",
        "--spec-name", rooted_spec().name, "--uid", str(uid),
    ]) == 0


def serve(dep, shards=2):
    return main([
        "serve", "--db", dep["db"], "--vault-dir", dep["vaults"],
        "--spec", dep["spec"], "--workers", "2", "--shards", str(shards),
    ])


class TestServeSharded:
    def test_drains_and_checkpoints(self, deployment, capsys):
        submit(deployment, 1)
        submit(deployment, 2)
        capsys.readouterr()  # discard submit receipts
        assert serve(deployment) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["service.queue_counts"]["done"] == 2
        assert report["service.queue_counts"]["dead"] == 0
        assert report["wal.logs"] == 2
        # Shutdown checkpointed: shard WALs retired, map persisted.
        tmp = deployment["tmp"]
        assert not list(tmp.glob("app.jsonl.s*.wal"))
        assert (tmp / "app.jsonl.shardmap").exists()
        assert ShardMap.load(tmp / "app.jsonl.shardmap").n_shards == 2
        # The folded snapshot holds the disguised state.
        db = load_database(deployment["db"])
        assert db.get("users", 1)["email"] is None
        assert db.check_integrity() == []

    def test_shard_count_pinned_by_map(self, deployment, capsys):
        assert serve(deployment, shards=2) == 0
        capsys.readouterr()
        # A later run with a different count must refuse, not re-place rows.
        assert serve(deployment, shards=4) == 1
        assert "shard" in capsys.readouterr().err.lower()


class TestCrashRecovery:
    def test_shard_wals_replay_into_fresh_partition(self, deployment, capsys):
        # Simulate a crash: journal a disguise into the per-shard WALs,
        # exit without the shutdown checkpoint (snapshot stays stale).
        import types

        from repro.cli import _open_sharded, _shard_wal_path, _sharded_vault
        from repro.core.engine import Disguiser
        from repro.shard import ShardGroupWal
        from repro.storage.wal import WriteAheadLog

        args = types.SimpleNamespace(
            db=deployment["db"], vault_dir=deployment["vaults"]
        )
        sdb, generation, _next_txn = _open_sharded(args, 2)
        wals = [
            WriteAheadLog(
                _shard_wal_path(args.db, i), fsync="always", generation=generation
            )
            for i in range(2)
        ]
        sdb.set_redo_hook(ShardGroupWal(wals))
        engine = Disguiser(sdb, vault=_sharded_vault(args, sdb), seed=3)
        engine.register(rooted_spec())
        engine.apply(rooted_spec().name, uid=3)
        for wal in wals:
            wal.close()
        assert load_database(deployment["db"]).get("users", 3)["email"] is not None

        # Recovery: the next sharded serve re-partitions the snapshot,
        # replays each shard's log, and checkpoints the result.
        assert serve(deployment) == 0
        capsys.readouterr()
        db = load_database(deployment["db"])
        assert db.get("users", 3)["email"] is None
        assert db.check_integrity() == []
        assert not list(deployment["tmp"].glob("app.jsonl.s*.wal"))


class TestShardsCommand:
    def test_info_report(self, deployment, capsys):
        assert main([
            "shards", "--db", deployment["db"], "--shards", "2", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shards"] == 2
        assert sum(report["rows_per_shard"]) == make_blog_db().total_rows()
        assert report["placements"]["users"] == "root"
        assert report["placements"]["posts"] == "direct"

    def test_requires_count_without_map(self, deployment, capsys):
        assert main(["shards", "--db", deployment["db"]]) == 1
        assert "--shards" in capsys.readouterr().err

    def test_owner_placement(self, deployment, capsys):
        assert main([
            "shards", "--db", deployment["db"], "--shards", "2",
            "--owner", "2", "--json",
        ]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["owner"] == 2
        assert info["present_on"] == [info["home_shard"]]
        assert info["clean"] is True

    def test_migrate_and_reinspect(self, deployment, capsys):
        assert main([
            "shards", "--db", deployment["db"], "--shards", "2",
            "--owner", "2", "--json",
        ]) == 0
        home = json.loads(capsys.readouterr().out)["home_shard"]
        target = 1 - home
        assert main([
            "shards", "--db", deployment["db"], "--shards", "2", "--owner", "2",
            "--migrate-to", str(target), "--vault-dir", deployment["vaults"],
        ]) == 0
        capsys.readouterr()
        assert main([
            "shards", "--db", deployment["db"], "--owner", "2", "--json",
        ]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["home_shard"] == target
        assert info["present_on"] == [target]
        assert info["override"] == target
        # Logical contents survived the physical move.
        db = load_database(deployment["db"])
        assert db.check_integrity() == []
        assert len(db.select("posts", "user_id = 2")) == 2
