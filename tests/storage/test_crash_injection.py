"""Crash-injection: recovery under torn, truncated, and corrupted logs.

The contract (ISSUE 2 / DESIGN.md "Recovery invariants"):

* Truncating the WAL at *any* byte boundary — the crash signature of a
  torn append — must recover exactly the state after the last commit
  frame wholly on disk: prefix-consistent, passing ``assert_integrity``.
* A CRC failure in the final frame is a torn tail and is discarded; a CRC
  failure with well-formed frames after it is real corruption and raises.
* Under ``fsync='always'``, data is on disk before the commit call
  returns: recovering from a byte-for-byte copy taken at ack time always
  reproduces every acked commit.
"""

from __future__ import annotations

import shutil
import struct
import zlib

import pytest

from repro import Database, Schema, parse_schema
from repro.errors import StorageError
from repro.storage.persist import save_database
from repro.storage.wal import (
    WalCorruptionError,
    WalDatabase,
    default_wal_path,
    recover_database,
)

DDL = """
CREATE TABLE users (
  id INT PRIMARY KEY,
  name TEXT PII,
  email TEXT PII
);
CREATE TABLE posts (
  id INT PRIMARY KEY,
  user_id INT NOT NULL REFERENCES users(id) ON DELETE CASCADE,
  title TEXT NOT NULL
);
"""

_FRAME_HEADER = struct.Struct("<II")


def contents(db: Database) -> dict:
    return {
        name: sorted((dict(r) for r in db.table(name).rows()), key=lambda r: str(r))
        for name in db.table_names
    }


def frame_spans(blob: bytes) -> list[tuple[int, int, dict]]:
    """(start, end, payload) for every frame in a well-formed log."""
    import json

    spans = []
    offset = 0
    while offset < len(blob):
        length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        start = offset + _FRAME_HEADER.size
        body = blob[start : start + length]
        assert zlib.crc32(body) == crc, "harness bug: seed log must be clean"
        spans.append((offset, start + length, json.loads(body.decode())))
        offset = start + length
    return spans


@pytest.fixture
def workload(tmp_path):
    """A snapshot + WAL written under fsync=always, with the acked state
    recorded after every commit."""
    snap = tmp_path / "app.jsonl"
    db = Database(Schema(parse_schema(DDL)))
    db.insert_many("users", [{"id": i, "name": f"u{i}", "email": f"u{i}@x"} for i in range(1, 5)])
    db.insert_many("posts", [{"id": i, "user_id": 1 + i % 4, "title": f"p{i}"} for i in range(1, 9)])
    save_database(db, snap)

    handle = WalDatabase(snap, fsync="always")
    live = handle.db
    states = [contents(live)]  # state after 0 commits

    def step(fn):
        fn()
        states.append(contents(live))

    step(lambda: live.insert("users", {"id": 10, "name": "new", "email": "n@x"}))
    step(lambda: live.update_where("posts", "user_id = 1", {"title": "redacted"}))

    def tx():
        with live.transaction():
            live.delete_by_pk("users", 2)  # cascades into posts
            live.insert("posts", {"id": 50, "user_id": 10, "title": "fresh"})

    step(tx)
    step(lambda: live.update_by_pk("users", 3, {"email": None}))
    step(lambda: live.delete_where("posts", "user_id = 4"))
    # Simulate a crash: no close(), the file is whatever fsync left behind.
    handle.wal._handle.flush()
    return snap, default_wal_path(snap), states


class TestTruncation:
    def test_every_byte_boundary_recovers_a_committed_prefix(self, workload, tmp_path):
        snap, wal_path, states = workload
        blob = wal_path.read_bytes()
        spans = frame_spans(blob)
        # commits_on_disk[t] = commit frames wholly within blob[:t]
        commit_ends = [end for _s, end, payload in spans if payload.get("t") == "commit"]

        work = tmp_path / "crash"
        work.mkdir()
        crash_snap = work / "app.jsonl"
        shutil.copy(snap, crash_snap)
        crash_wal = default_wal_path(crash_snap)

        for cut in range(len(blob) + 1):
            crash_wal.write_bytes(blob[:cut])
            expected_commits = sum(1 for end in commit_ends if end <= cut)
            recovered = recover_database(crash_snap, crash_wal)
            assert contents(recovered) == states[expected_commits], (
                f"cut at byte {cut}: expected state after {expected_commits} commits"
            )
            recovered.assert_integrity()

    def test_empty_wal_file_recovers_snapshot(self, workload):
        snap, wal_path, states = workload
        wal_path.write_bytes(b"")
        assert contents(recover_database(snap)) == states[0]


class TestBitFlips:
    def _flip(self, path, offset, bit=0x01):
        blob = bytearray(path.read_bytes())
        blob[offset] ^= bit
        path.write_bytes(bytes(blob))

    def test_flip_in_final_frame_discards_the_torn_tail(self, workload):
        snap, wal_path, states = workload
        blob = wal_path.read_bytes()
        spans = frame_spans(blob)
        final_start, final_end, payload = spans[-1]
        assert payload.get("t") == "commit"
        # Corrupt a payload byte of the final (commit) frame: its unit is
        # no longer acked-on-disk in full, so recovery drops it.
        self._flip(wal_path, final_start + _FRAME_HEADER.size)
        recovered = recover_database(snap)
        assert contents(recovered) == states[len(states) - 2]
        recovered.assert_integrity()

    def test_flip_mid_log_raises_cleanly(self, workload):
        snap, wal_path, _states = workload
        blob = wal_path.read_bytes()
        spans = frame_spans(blob)
        # A payload byte of a frame in the middle of the log (valid frames
        # follow it): that is not a crash artifact.
        mid_start, _mid_end, _payload = spans[len(spans) // 2]
        self._flip(wal_path, mid_start + _FRAME_HEADER.size)
        with pytest.raises(WalCorruptionError):
            recover_database(snap)

    def test_flip_every_byte_of_final_record_never_corrupts_silently(self, workload):
        """Exhaustive over the final record: recovery either reproduces an
        acked state or raises a clean StorageError — never garbage."""
        snap, wal_path, states = workload
        blob = wal_path.read_bytes()
        spans = frame_spans(blob)
        final_start, final_end, _payload = spans[-1]
        for offset in range(final_start, final_end):
            wal_path.write_bytes(blob)  # restore
            self._flip(wal_path, offset)
            try:
                recovered = recover_database(snap)
            except StorageError:
                continue  # clean refusal is acceptable
            got = contents(recovered)
            assert got in states, f"flip at byte {offset} produced a state never acked"
            recovered.assert_integrity()
        wal_path.write_bytes(blob)


class TestReopenAfterCrash:
    def test_recover_append_recover_at_every_cut(self, workload, tmp_path):
        """Reopening a torn log for writes must trim the debris so commits
        appended *after* the crash survive the *next* recovery."""
        snap, wal_path, states = workload
        blob = wal_path.read_bytes()
        spans = frame_spans(blob)
        commit_ends = [end for _s, end, payload in spans if payload.get("t") == "commit"]

        work = tmp_path / "reopen"
        work.mkdir()
        crash_snap = work / "app.jsonl"
        crash_wal = default_wal_path(crash_snap)

        # Every cut severity: clean log, torn mid-frame, torn mid-unit.
        for cut in range(0, len(blob) + 1, 7):
            shutil.copy(snap, crash_snap)
            crash_wal.write_bytes(blob[:cut])
            expected_commits = sum(1 for end in commit_ends if end <= cut)
            with WalDatabase(crash_snap, fsync="always") as handle:
                assert contents(handle.db) == states[expected_commits]
                handle.db.insert(
                    "users", {"id": 99, "name": "post-crash", "email": "pc@x"}
                )
            recovered = recover_database(crash_snap)
            assert recovered.get("users", 99) is not None, (
                f"cut at byte {cut}: commit appended after reopen was lost"
            )
            got = contents(recovered)
            got["users"] = [r for r in got["users"] if r["id"] != 99]
            assert got == states[expected_commits], (
                f"cut at byte {cut}: pre-crash prefix not preserved"
            )
            recovered.assert_integrity()

    def test_trailing_unsealed_statements_not_resealed_by_next_commit(
        self, workload, tmp_path
    ):
        """Statement frames with no commit frame are an unacked transaction;
        a commit appended after reopen must not adopt them."""
        snap, wal_path, states = workload
        blob = wal_path.read_bytes()
        spans = frame_spans(blob)
        # Cut just past the last *statement* frame, beheading its commit.
        stmt_ends = [end for _s, end, p in spans if p.get("t") == "stmt"]
        crash_snap = tmp_path / "unsealed" / "app.jsonl"
        crash_snap.parent.mkdir()
        shutil.copy(snap, crash_snap)
        crash_wal = default_wal_path(crash_snap)
        crash_wal.write_bytes(blob[: stmt_ends[-1]])
        with WalDatabase(crash_snap, fsync="always") as handle:
            handle.db.update_by_pk("users", 1, {"name": "sealed"})
        recovered = recover_database(crash_snap)
        assert recovered.get("users", 1)["name"] == "sealed"
        # The beheaded unit (delete_where on posts) must not have leaked in.
        assert contents(recovered)["posts"] == states[-2]["posts"]

    def test_checkpoint_crash_window_skips_stale_log(self, workload):
        """Crash after the checkpoint snapshot is installed but before the
        log truncates: the stale log's generation predates the snapshot's,
        so recovery must skip the replay instead of double-applying."""
        from repro.storage.persist import save_database_atomic

        snap, wal_path, states = workload
        handle = WalDatabase(snap, fsync="always")
        expected = contents(handle.db)
        # First half of checkpoint(): install the snapshot, bump the stamp —
        # then "crash" before wal.truncate() runs.
        save_database_atomic(handle.db, snap, generation=handle.wal.generation + 1)
        del handle  # no close(): the stale WAL stays on disk
        assert wal_path.exists() and wal_path.stat().st_size > 100
        recovered = recover_database(snap)
        assert contents(recovered) == expected
        recovered.assert_integrity()
        # Reopening for writes resets the stale log and keeps working.
        with WalDatabase(snap, fsync="always") as handle2:
            assert contents(handle2.db) == expected
            handle2.db.insert("users", {"id": 77, "name": "after", "email": "a@x"})
        assert recover_database(snap).get("users", 77) is not None

    def test_log_newer_than_snapshot_raises(self, workload):
        """A log stamped with a generation the snapshot never reached means
        the log's base snapshot is gone: corruption, not a crash artifact."""
        snap, wal_path, _states = workload
        handle = WalDatabase(snap)
        handle.checkpoint()  # snapshot gen 1, log gen 1
        handle.db.insert("users", {"id": 60, "name": "x", "email": "x@x"})
        handle.close()
        # Regress the snapshot to a stamp below the log's.
        db = recover_database(snap)
        save_database(db, snap)  # no generation stamp → generation 0
        with pytest.raises(WalCorruptionError):
            recover_database(snap)


class TestAckedDurability:
    def test_fsync_always_never_loses_acked_commits(self, tmp_path):
        """Every commit is wholly on disk at ack time: a copy of the file
        taken immediately after each statement recovers that statement."""
        snap = tmp_path / "app.jsonl"
        db = Database(Schema(parse_schema(DDL)))
        db.insert("users", {"id": 1, "name": "a", "email": "a@x"})
        save_database(db, snap)

        work = tmp_path / "copy"
        work.mkdir()
        crash_snap = work / "app.jsonl"
        shutil.copy(snap, crash_snap)
        crash_wal = default_wal_path(crash_snap)

        handle = WalDatabase(snap, fsync="always")
        wal_path = default_wal_path(snap)
        for i in range(2, 12):
            handle.db.insert("users", {"id": i, "name": f"u{i}", "email": f"{i}@x"})
            # ack point: snapshot the file exactly as it is now, no close()
            crash_wal.write_bytes(wal_path.read_bytes())
            recovered = recover_database(crash_snap, crash_wal)
            assert recovered.get("users", i) is not None, (
                f"commit {i} was acked but lost"
            )
        handle.close()
