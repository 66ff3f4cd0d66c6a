"""Unit tests for the write-ahead log: framing, group commit, replay.

The crash-injection suite (byte-level corruption) lives in
``test_crash_injection.py``; this file covers the happy paths and the
transactional semantics of the redo mirror.
"""

from __future__ import annotations

import pytest

from repro import Database, Disguiser, Schema, parse_schema
from repro.errors import StorageError, TransactionError
from repro.storage.persist import save_database
from repro.storage.wal import (
    WalCorruptionError,
    WalDatabase,
    WriteAheadLog,
    default_wal_path,
    recover_database,
)

DDL = """
CREATE TABLE users (
  id INT PRIMARY KEY,
  name TEXT PII,
  email TEXT PII,
  avatar BLOB,
  disabled BOOL NOT NULL DEFAULT FALSE
);
CREATE TABLE posts (
  id INT PRIMARY KEY,
  user_id INT NOT NULL REFERENCES users(id) ON DELETE CASCADE,
  title TEXT NOT NULL,
  score INT NOT NULL DEFAULT 0
);
"""


def fresh_db() -> Database:
    db = Database(Schema(parse_schema(DDL)))
    db.insert_many(
        "users",
        [
            {"id": i, "name": f"u{i}", "email": f"u{i}@x.io", "avatar": bytes([i])}
            for i in range(1, 6)
        ],
    )
    db.insert_many(
        "posts",
        [{"id": i, "user_id": 1 + i % 5, "title": f"p{i}"} for i in range(1, 11)],
    )
    return db


def contents(db: Database) -> dict:
    return {
        name: sorted((dict(r) for r in db.table(name).rows()), key=lambda r: str(r))
        for name in db.table_names
    }


@pytest.fixture
def snap(tmp_path):
    path = tmp_path / "app.jsonl"
    save_database(fresh_db(), path)
    return path


def wal_scrub_spec():
    from repro import Decorrelate, Default, DisguiseSpec, FakeName, Remove, TableDisguise

    return DisguiseSpec(
        "WalScrub",
        [
            TableDisguise(
                "users",
                transformations=[Remove("id = $UID")],
                generate_placeholder={
                    "name": FakeName(),
                    "email": Default(None),
                    "disabled": Default(True),
                },
            ),
            TableDisguise(
                "posts",
                transformations=[
                    Decorrelate("user_id = $UID", foreign_key="user_id")
                ],
            ),
        ],
    )


class TestRedoMirror:
    def test_committed_statements_replay_exactly(self, snap):
        with WalDatabase(snap, fsync="always") as handle:
            db = handle.db
            with db.transaction():
                db.update_where("posts", "user_id = 1", {"title": "redacted"})
                db.delete_where("posts", "user_id = 2")
                db.insert("users", {"id": 9, "name": "new", "email": "n@x.io"})
                db.update_by_pk("users", 3, {"email": None})
            expected = contents(db)
        assert contents(recover_database(snap)) == expected

    def test_rolled_back_transaction_leaves_no_trace(self, snap):
        with WalDatabase(snap) as handle:
            db = handle.db
            db.begin()
            db.insert("users", {"id": 50, "name": "ghost", "email": "g@x"})
            db.delete_where("posts", "user_id = 1")
            db.rollback()
            expected = contents(db)
        recovered = recover_database(snap)
        assert recovered.get("users", 50) is None
        assert contents(recovered) == expected

    def test_nested_savepoints(self, snap):
        with WalDatabase(snap, fsync="always") as handle:
            db = handle.db
            db.begin()
            db.insert("users", {"id": 20, "name": "outer", "email": "o@x"})
            db.begin()
            db.insert("users", {"id": 21, "name": "inner-rolled", "email": "i@x"})
            db.rollback()
            db.begin()
            db.insert("users", {"id": 22, "name": "inner-kept", "email": "k@x"})
            db.commit()
            db.commit()
            expected = contents(db)
        recovered = recover_database(snap)
        assert recovered.get("users", 20) is not None
        assert recovered.get("users", 21) is None
        assert recovered.get("users", 22) is not None
        assert contents(recovered) == expected

    def test_cascading_delete_replays(self, snap):
        with WalDatabase(snap, fsync="always") as handle:
            db = handle.db
            db.delete_by_pk("users", 1)  # cascades into posts
            expected = contents(db)
        assert contents(recover_database(snap)) == expected

    def test_autocommit_outside_transaction(self, snap):
        with WalDatabase(snap) as handle:
            handle.db.insert("users", {"id": 30, "name": "auto", "email": "a@x"})
        assert recover_database(snap).get("users", 30) is not None

    def test_blob_values_round_trip(self, snap):
        with WalDatabase(snap, fsync="always") as handle:
            handle.db.update_by_pk("users", 2, {"avatar": b"\x00\xff\x10"})
        assert recover_database(snap).get("users", 2)["avatar"] == b"\x00\xff\x10"

    def test_pk_change_replays(self, snap):
        with WalDatabase(snap) as handle:
            db = handle.db
            db.delete_where("posts", "user_id = 3")
            db.update_by_pk("users", 3, {"id": 300})
            expected = contents(db)
        assert contents(recover_database(snap)) == expected

    def test_ddl_replays_and_survives_rollback(self, snap):
        from repro.storage.schema import Column, TableSchema
        from repro.storage.types import ColumnType

        with WalDatabase(snap) as handle:
            db = handle.db
            db.begin()
            db.create_table(
                TableSchema(
                    "audit", [Column("id", ColumnType.INTEGER, nullable=False)], "id"
                )
            )
            db.insert("audit", {"id": 1})
            db.rollback()  # DDL survives, the insert does not (mirrors undo log)
        recovered = recover_database(snap)
        assert recovered.has_table("audit")
        assert len(recovered.table("audit")) == 0

    def test_ddl_stays_in_statement_order(self, snap):
        """A transaction that fills a table then drops it must log the
        records in that order — not hoist the DDL ahead of buffered DML
        (drop-then-insert would fail replay on a valid log)."""
        from repro.storage.schema import Column, TableSchema
        from repro.storage.types import ColumnType

        with WalDatabase(snap) as handle:
            db = handle.db
            with db.transaction():
                db.create_table(
                    TableSchema(
                        "scratch",
                        [Column("id", ColumnType.INTEGER, nullable=False)],
                        "id",
                    )
                )
                db.insert("scratch", {"id": 1})
                db.drop_table("scratch")
                db.insert("users", {"id": 70, "name": "after-ddl", "email": "a@x"})
            expected = contents(db)
        recovered = recover_database(snap)
        assert not recovered.has_table("scratch")
        assert recovered.get("users", 70) is not None
        assert contents(recovered) == expected

    def test_rolled_back_ddl_keeps_relative_order(self, snap):
        """Two DDL records in a rolled-back transaction survive in order:
        create-then-drop must not replay as drop-then-create."""
        from repro.storage.schema import Column, TableSchema
        from repro.storage.types import ColumnType

        with WalDatabase(snap) as handle:
            db = handle.db
            db.begin()
            db.create_table(
                TableSchema(
                    "temp", [Column("id", ColumnType.INTEGER, nullable=False)], "id"
                )
            )
            db.insert("temp", {"id": 1})
            db.drop_table("temp")
            db.rollback()
            expected = contents(db)
        recovered = recover_database(snap)
        assert not recovered.has_table("temp")
        assert contents(recovered) == expected

    def test_id_watermark_restored(self, snap):
        with WalDatabase(snap) as handle:
            db = handle.db
            allocated = db.next_id("users")
            db.insert("users", {"id": allocated, "name": "hi", "email": "h@x"})
            db.delete_by_pk("users", allocated)
        recovered = recover_database(snap)
        assert recovered.next_id("users") > allocated

    def test_disguise_apply_reveal_cycle_recovers(self, snap, tmp_path):
        from repro.vault.file_vault import FileVault

        spec = wal_scrub_spec()
        with WalDatabase(snap, fsync="always") as handle:
            engine = Disguiser(handle.db, vault=FileVault(tmp_path / "v"), seed=5)
            engine.apply(spec, uid=2)
            expected = contents(handle.db)
        recovered = recover_database(snap)
        assert contents(recovered) == expected
        recovered.assert_integrity()
        # Continue the lifecycle on the recovered database: reveal works.
        with WalDatabase(snap) as handle:
            engine = Disguiser(handle.db, vault=FileVault(tmp_path / "v"), seed=5)
            engine.register(spec)
            engine.reveal(1)
            assert handle.db.get("users", 2)["name"] == "u2"

    def test_wal_bytes_per_disguise_do_not_grow_with_the_database(self, tmp_path):
        """O(delta) persistence: one user's disguise logs bytes proportional
        to the rows that user owns, while a snapshot grows with the database."""

        def disguise_cost(n_bystanders):
            db = fresh_db()  # user 2 owns 2 of the 10 posts
            db.insert_many(
                "users",
                [{"id": 100 + i, "name": f"b{i}", "email": f"b{i}@x.io"}
                 for i in range(n_bystanders)],
            )
            db.insert_many(
                "posts",
                [{"id": 100 + i, "user_id": 100 + i % n_bystanders, "title": f"b{i}"}
                 for i in range(9 * n_bystanders)],
            )
            path = tmp_path / f"app-{n_bystanders}.jsonl"
            save_database(db, path)
            with WalDatabase(path, fsync="batch") as handle:
                Disguiser(handle.db, seed=5).apply(wal_scrub_spec(), uid=2)
                return handle.wal.bytes_written, path.stat().st_size

        small_wal, small_snapshot = disguise_cost(10)
        large_wal, large_snapshot = disguise_cost(200)
        assert large_snapshot > 10 * small_snapshot
        assert large_wal <= 1.2 * small_wal


class TestGroupCommit:
    def test_fsync_policies_sync_counts(self, snap):
        for policy, expect in (("always", lambda s: s >= 5), ("never", lambda s: s == 0)):
            wal_path = default_wal_path(snap)
            wal_path.unlink(missing_ok=True)
            with WalDatabase(snap, fsync=policy) as handle:
                for i in range(5):
                    handle.db.update_by_pk("users", 1, {"name": f"v{i}"})
                assert expect(handle.wal.syncs), (policy, handle.wal.syncs)

    def test_batch_policy_groups_syncs(self, snap):
        with WalDatabase(snap, fsync="batch", batch_commits=4) as handle:
            for i in range(8):
                handle.db.update_by_pk("users", 1, {"name": f"v{i}"})
            assert handle.wal.syncs == 2
        assert recover_database(snap).get("users", 1)["name"] == "v7"

    def test_bad_policy_rejected(self, snap):
        with pytest.raises(StorageError):
            WalDatabase(snap, fsync="sometimes")

    def test_commit_units_accumulate(self, snap):
        with WalDatabase(snap) as handle:
            db = handle.db
            with db.transaction():
                db.update_by_pk("users", 1, {"name": "a"})
                db.update_by_pk("users", 2, {"name": "b"})
            db.update_by_pk("users", 3, {"name": "c"})
        units = WriteAheadLog.read_units(default_wal_path(snap))
        assert [len(u) for u in units] == [2, 1]


class TestCheckpoint:
    def test_checkpoint_truncates_and_preserves_state(self, snap):
        handle = WalDatabase(snap)
        handle.db.insert("users", {"id": 40, "name": "ck", "email": "c@x"})
        wal_path = default_wal_path(snap)
        before = wal_path.stat().st_size
        handle.checkpoint()
        assert wal_path.stat().st_size < before
        assert WriteAheadLog.read_units(wal_path) == []
        handle.db.insert("users", {"id": 41, "name": "post", "email": "p@x"})
        handle.close()
        recovered = recover_database(snap)
        assert recovered.get("users", 40) is not None
        assert recovered.get("users", 41) is not None

    def test_checkpoint_mid_transaction_rejected(self, snap):
        with WalDatabase(snap) as handle:
            handle.db.begin()
            with pytest.raises(StorageError):
                handle.checkpoint()
            handle.db.rollback()

    def test_hook_attach_mid_transaction_rejected(self):
        db = fresh_db()
        db.begin()
        with pytest.raises(TransactionError):
            db.set_redo_hook(object())
        db.rollback()


class TestBootstrap:
    def test_recover_without_snapshot_bootstraps_from_ddl(self, tmp_path):
        snap = tmp_path / "new.jsonl"
        with WalDatabase(snap) as handle:
            for table_schema in parse_schema(DDL):
                handle.db.create_table(table_schema)
            handle.db.insert("users", {"id": 1, "name": "first", "email": "f@x"})
        assert not snap.exists()
        recovered = recover_database(snap)
        assert recovered.get("users", 1)["name"] == "first"

    def test_missing_wal_is_fine(self, snap):
        recovered = recover_database(snap)
        assert contents(recovered) == contents(fresh_db())

    def test_unknown_redo_op_raises(self, snap, tmp_path):
        wal = WriteAheadLog(default_wal_path(snap))
        wal.on_statement({"op": "insert", "table": "users", "rows": []})
        wal.close()
        # Tamper: a structurally valid log whose record names a bogus op.
        from repro.storage import wal as wal_mod

        units = WriteAheadLog.read_units(default_wal_path(snap))
        units[0][0]["op"] = "explode"
        with pytest.raises(WalCorruptionError):
            wal_mod.replay_into(fresh_db(), units)


class TestDeferSyncScope:
    def test_defer_sync_is_thread_scoped(self, tmp_path):
        """One thread deferring its fsyncs must not strip another's policy.

        Service workers set defer_sync and later meet the commit_barrier
        leader fsync; a non-worker thread committing through the same log
        never calls the barrier, so its fsync='always' durability has to
        survive the workers' opt-in.
        """
        import threading

        wal = WriteAheadLog(tmp_path / "db.wal", fsync="always")
        done = threading.Event()

        def worker():
            wal.defer_sync = True
            wal.on_statement({"op": "insert", "table": "users", "rows": []})
            done.set()

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert done.wait(5.0)
        thread.join(5.0)
        assert wal.syncs == 0            # the opted-in thread deferred
        assert wal.defer_sync is False   # the flag did not leak here
        wal.on_statement({"op": "insert", "table": "users", "rows": []})
        assert wal.syncs == 1            # this thread's policy still holds
        wal.sync()
        wal.close()
