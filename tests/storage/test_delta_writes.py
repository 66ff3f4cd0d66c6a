"""Delta undo/redo write path: differential, rollback, and recovery tests.

The contract (ISSUE 7 / DESIGN.md "Compiled write path"):

* With ``db.delta_writes`` on (the default), batched UPDATE/DELETE must be
  observationally identical to the legacy full-row path: same final
  contents, same errors, same rollback and crash-recovery behavior — only
  the undo/redo payloads shrink to the changed columns.
* WAL record-format 2 logs replay through the ``deltas`` branch; fmt-1
  logs (no ``fmt`` header key, full-row ``updates`` records) still
  recover; a log stamped with a future format is rejected, not guessed at.
* ``update_where`` accepts a SET-expression string compiled through the
  same plan cache as predicates.
"""

from __future__ import annotations

import random
import shutil
import struct

import pytest

from repro import Database, Schema, parse_schema
from repro.errors import (
    ConstraintError,
    NoSuchRowError,
    ParseError,
    UnknownColumnError,
)
from repro.storage.persist import save_database
from repro.storage.wal import (
    _T_COMMIT,
    _T_HEADER,
    _T_STMT,
    _WAL_FORMAT,
    _WAL_VERSION,
    WalCorruptionError,
    _write_frame,
    default_wal_path,
    open_in_place,
    recover_database,
)

DDL = """
CREATE TABLE users (
  id INT PRIMARY KEY,
  name TEXT NOT NULL,
  email TEXT,
  score INT
);
CREATE TABLE posts (
  id INT PRIMARY KEY,
  author_id INT NOT NULL REFERENCES users(id) ON DELETE CASCADE,
  title TEXT NOT NULL,
  views INT
);
CREATE TABLE reviews (
  id INT PRIMARY KEY,
  post_id INT NOT NULL REFERENCES posts(id) ON DELETE CASCADE,
  reviewer_id INT REFERENCES users(id) ON DELETE SET NULL,
  stars INT
);
"""

_FRAME_HEADER = struct.Struct("<II")


def make_db(delta_writes: bool = True) -> Database:
    db = Database(Schema(parse_schema(DDL)))
    db.delta_writes = delta_writes
    db.insert_many(
        "users",
        [
            {"id": i, "name": f"u{i}", "email": f"u{i}@x", "score": i * 10}
            for i in range(1, 9)
        ],
    )
    db.insert_many(
        "posts",
        [
            {"id": i, "author_id": 1 + i % 8, "title": f"p{i}", "views": i}
            for i in range(1, 17)
        ],
    )
    db.insert_many(
        "reviews",
        [
            {"id": i, "post_id": 1 + i % 16, "reviewer_id": 1 + i % 8, "stars": i % 5}
            for i in range(1, 25)
        ],
    )
    return db


def contents(db: Database) -> dict:
    return {
        name: sorted((dict(r) for r in db.table(name).rows()), key=lambda r: str(r))
        for name in db.table_names
    }


# -- randomized differential: delta path vs legacy full-row path -------------------


def _random_op(rng: random.Random):
    """One random mutation as a closure over a Database."""
    kind = rng.choice(
        [
            "update_where",
            "update_where_set",
            "update_many",
            "delete_where",
            "delete_by_pk",
            "insert",
        ]
    )
    if kind == "update_where":
        table, col = rng.choice(
            [("users", "score"), ("posts", "views"), ("reviews", "stars")]
        )
        bound = rng.randrange(30)
        value = rng.randrange(1000)
        return lambda db: db.update_where(
            table, f"{col} < $b", {col: value}, {"b": bound}
        )
    if kind == "update_where_set":
        bound = rng.randrange(30)
        delta = rng.randrange(5)
        return lambda db: db.update_where(
            "posts", "views < $b", f"views = views + {delta}", {"b": bound}
        )
    if kind == "update_many":
        pks = rng.sample(range(1, 17), rng.randrange(1, 4))
        value = rng.randrange(100)
        return lambda db: db.update_many(
            "posts", [(pk, {"views": value + pk}) for pk in pks]
        )
    if kind == "delete_where":
        table = rng.choice(["users", "posts", "reviews"])
        pk = rng.randrange(1, 30)
        return lambda db: db.delete_where(table, f"id = {pk}")
    if kind == "delete_by_pk":
        pk = rng.randrange(1, 12)
        return lambda db: db.delete_by_pk("users", pk)
    next_id = rng.randrange(100, 10_000)
    return lambda db: db.insert(
        "users", {"id": next_id, "name": f"n{next_id}", "email": None, "score": 0}
    )


@pytest.mark.parametrize("seed", range(8))
def test_random_workload_matches_full_row_path(seed):
    """Identical random workloads under delta vs full-row undo/redo must
    produce identical databases and raise identical error types."""
    rng = random.Random(seed)
    ops = [_random_op(rng) for _ in range(40)]
    delta_db, legacy_db = make_db(True), make_db(False)
    for op in ops:
        outcomes = []
        for db in (delta_db, legacy_db):
            try:
                outcomes.append(("ok", op(db)))
            except Exception as exc:  # noqa: BLE001 - equivalence check
                outcomes.append(("err", type(exc).__name__))
        assert outcomes[0] == outcomes[1]
        assert contents(delta_db) == contents(legacy_db)
    delta_db.assert_integrity()


@pytest.mark.parametrize("seed", range(4))
def test_random_transactions_roll_back_identically(seed):
    """Rollback from delta undo records restores byte-identical state,
    including through FK CASCADE and SET NULL interleavings."""
    rng = random.Random(1000 + seed)
    delta_db, legacy_db = make_db(True), make_db(False)
    for _round in range(10):
        ops = [_random_op(rng) for _ in range(5)]
        abort = rng.random() < 0.5
        for db in (delta_db, legacy_db):
            before = contents(db)
            db.begin()
            for op in ops:
                try:
                    op(db)
                except Exception:  # noqa: BLE001 - op may fail; tx continues
                    pass
            if abort:
                db.rollback()
                assert contents(db) == before
            else:
                db.commit()
        assert contents(delta_db) == contents(legacy_db)
        delta_db.assert_integrity()


def test_update_then_cascade_delete_then_rollback():
    """The hard case for rid-keyed undo: an update's target row is deleted
    (by CASCADE) later in the same transaction, so rollback reinserts it
    under a fresh rid before the update's inverse delta applies."""
    db = make_db(True)
    before = contents(db)
    db.begin()
    db.update_where("posts", "author_id = 2", {"views": 999})
    db.update_where("reviews", "reviewer_id = 2", {"stars": 0})
    db.delete_by_pk("users", 2)  # cascades posts, SET NULLs nothing here
    db.delete_where("reviews", "stars >= 3")
    db.rollback()
    assert contents(db) == before
    db.assert_integrity()


def test_set_null_cascade_rolls_back():
    db = make_db(True)
    before = contents(db)
    db.begin()
    db.update_where("reviews", "reviewer_id = 3", {"stars": 5})
    db.delete_by_pk("users", 3)  # posts CASCADE away, reviews SET NULL
    assert any(
        r["reviewer_id"] is None for r in (dict(x) for x in db.table("reviews").rows())
    )
    db.rollback()
    assert contents(db) == before
    db.assert_integrity()


# -- SET-expression compilation ----------------------------------------------------


class TestSetExpressions:
    def test_arithmetic_set(self):
        db = make_db(True)
        n = db.update_where("users", "id <= 3", "score = score * 2 + 1")
        assert n == 3
        assert db.get("users", 1)["score"] == 21
        assert db.get("users", 3)["score"] == 61

    def test_set_with_params(self):
        db = make_db(True)
        db.update_where("posts", "id = 1", "views = views + $inc", {"inc": 41})
        assert db.get("posts", 1)["views"] == 42

    def test_multi_column_set(self):
        db = make_db(True)
        db.update_where("users", "id = 5", "score = score - 50, email = null")
        row = db.get("users", 5)
        assert row["score"] == 0 and row["email"] is None

    def test_set_matches_legacy_path(self):
        delta_db, legacy_db = make_db(True), make_db(False)
        for db in (delta_db, legacy_db):
            db.update_where("reviews", "stars < 4", "stars = stars + 1")
        assert contents(delta_db) == contents(legacy_db)

    def test_set_unknown_column_raises(self):
        db = make_db(True)
        with pytest.raises(UnknownColumnError):
            db.update_where("users", "id = 1", "bogus = 1")

    def test_duplicate_set_column_raises(self):
        db = make_db(True)
        with pytest.raises(ParseError):
            db.update_where("users", "id = 1", "score = 1, score = 2")

    def test_set_not_null_violation(self):
        from repro.errors import SchemaError

        db = make_db(True)
        with pytest.raises(SchemaError):
            db.update_where("users", "id = 1", "name = null")

    def test_set_is_cached_in_plan_cache(self):
        db = make_db(True)
        db.update_where("users", "id = 1", "score = score + 1")
        before = db.plans.hits
        db.update_where("users", "id = 2", "score = score + 1")
        assert db.plans.hits > before


# -- batched table primitives ------------------------------------------------------


class TestBatchedTableOps:
    def test_apply_updates_keeps_indexes_and_stats(self):
        db = make_db(True)
        table = db.table("posts")
        deltas = [(table.rid_of(pk), {"author_id": 1}) for pk in (1, 2, 3)]
        table.apply_updates(deltas)
        assert {r["id"] for r in table.referencing_rows("author_id", 1)} >= {1, 2, 3}
        db.assert_integrity()

    def test_apply_updates_skips_noop_columns(self):
        db = make_db(True)
        table = db.table("users")
        rid = table.rid_of(1)
        changed = table.apply_updates([(rid, {"score": 10, "email": "u1@x"})])
        assert changed == [(rid, {}, {})]  # both columns already held the value

    def test_apply_updates_rejects_pk_change(self):
        db = make_db(True)
        table = db.table("users")
        with pytest.raises(ConstraintError):
            table.apply_updates([(table.rid_of(1), {"id": 999})])

    def test_apply_updates_missing_rid_raises(self):
        db = make_db(True)
        with pytest.raises(NoSuchRowError):
            db.table("users").apply_updates([(10**9, {"score": 1})])

    def test_apply_deletes_dedups_and_patches_indexes(self):
        db = make_db(True)
        table = db.table("reviews")
        rid = table.rid_of(1)
        table.apply_deletes([rid, rid])
        assert table.rid_of(1) is None
        db.assert_integrity()

    def test_match_rows_agrees_with_scan(self):
        db = make_db(True)
        table = db.table("posts")
        from repro.storage.sql import parse_where

        pred = parse_where("views >= 8")
        scanned = [dict(r) for r in table.scan(pred)]
        matched = [dict(row) for _rid, row in table.match_rows(pred)]
        key = lambda r: r["id"]  # noqa: E731
        assert sorted(matched, key=key) == sorted(scanned, key=key)


# -- WAL: delta records, torn-tail recovery, format gate ---------------------------


def _wal_workload(tmp_path, delta_writes: bool):
    tmp_path.mkdir(parents=True, exist_ok=True)
    snap = tmp_path / f"app-{delta_writes}.jsonl"
    db = Database(Schema(parse_schema(DDL)))
    save_database(db, snap)
    handle = open_in_place(snap, fsync="always")
    live = handle.db
    live.delta_writes = delta_writes
    states = [contents(live)]

    def step(fn):
        fn()
        states.append(contents(live))

    step(lambda: live.insert_many(
        "users",
        [{"id": i, "name": f"u{i}", "email": f"u{i}@x", "score": i} for i in range(1, 6)],
    ))
    step(lambda: live.insert_many(
        "posts",
        [{"id": i, "author_id": 1 + i % 5, "title": f"p{i}", "views": i} for i in range(1, 9)],
    ))
    step(lambda: live.update_where("posts", "views < 5", {"title": "redacted", "views": 0}))
    step(lambda: live.update_where("users", "id <= 3", "score = score * 10"))
    step(lambda: live.update_many("posts", [(1, {"views": 7}), (2, {"views": 8})]))

    def tx():
        with live.transaction():
            live.delete_by_pk("users", 2)  # cascades posts
            live.update_where("users", "score >= 40", {"email": None})

    step(tx)
    step(lambda: live.delete_where("posts", "views = 0"))
    handle.wal._handle.flush()
    return snap, default_wal_path(snap), states


def _frame_spans(blob: bytes):
    import json
    import zlib

    spans, offset = [], 0
    while offset < len(blob):
        length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        start = offset + _FRAME_HEADER.size
        body = blob[start : start + length]
        assert zlib.crc32(body) == crc
        spans.append((offset, start + length, json.loads(body.decode())))
        offset = start + length
    return spans


class TestDeltaWal:
    def test_update_where_emits_one_delta_frame(self, tmp_path):
        snap, wal_path, _states = _wal_workload(tmp_path, delta_writes=True)
        payloads = [p for _s, _e, p in _frame_spans(wal_path.read_bytes())]
        updates = [p for p in payloads if p.get("op") == "update"]
        assert updates, "workload must log updates"
        deltas = [p for p in updates if "deltas" in p]
        assert deltas, "delta path must emit 'deltas' records"
        # Each batched statement is ONE frame carrying a pk -> delta list,
        # and the delta carries only changed columns, not full rows.
        frame = next(p for p in deltas if len(p["deltas"]) > 1)
        for _pk, delta in frame["deltas"]:
            assert set(delta) < {"title", "views", "score", "email"}

    def test_header_carries_format_version(self, tmp_path):
        snap, wal_path, _states = _wal_workload(tmp_path, delta_writes=True)
        header = _frame_spans(wal_path.read_bytes())[0][2]
        assert header["t"] == _T_HEADER and header["fmt"] == _WAL_FORMAT

    def test_delta_log_smaller_than_full_row_log(self, tmp_path):
        _snap, delta_wal, _ = _wal_workload(tmp_path, delta_writes=True)
        _snap2, full_wal, _ = _wal_workload(tmp_path / "full", delta_writes=False)
        assert delta_wal.stat().st_size < full_wal.stat().st_size

    def test_batched_update_logs_under_half_the_full_row_bytes(self, tmp_path):
        """One UPDATE over every row: the delta frame carries pk + the one
        changed column, the full-row frame every column of every row."""
        logged = {}
        for delta_writes in (True, False):
            snap = tmp_path / f"wide-{delta_writes}.jsonl"
            db = make_db()
            db.insert_many(
                "users",
                [{"id": 100 + i, "name": f"user {i}", "email": f"user{i}@example.org",
                  "score": i} for i in range(200)],
            )
            save_database(db, snap)
            with open_in_place(snap, fsync="never") as handle:
                handle.db.delta_writes = delta_writes
                before = handle.wal.bytes_written
                handle.db.update_where("users", "id >= 100", {"score": -1})
                logged[delta_writes] = handle.wal.bytes_written - before
        assert 0 < 2 * logged[True] <= logged[False]

    @pytest.mark.parametrize("delta_writes", [True, False])
    def test_every_byte_boundary_recovers_a_committed_prefix(
        self, tmp_path, delta_writes
    ):
        snap, wal_path, states = _wal_workload(tmp_path, delta_writes)
        blob = wal_path.read_bytes()
        commit_ends = [
            end for _s, end, p in _frame_spans(blob) if p.get("t") == _T_COMMIT
        ]
        work = tmp_path / "crash"
        work.mkdir(exist_ok=True)
        crash_snap = work / "app.jsonl"
        shutil.copy(snap, crash_snap)
        crash_wal = default_wal_path(crash_snap)
        for cut in range(len(blob) + 1):
            crash_wal.write_bytes(blob[:cut])
            expected_commits = sum(1 for end in commit_ends if end <= cut)
            recovered = recover_database(crash_snap, crash_wal)
            assert contents(recovered) == states[expected_commits], (
                f"cut at byte {cut} (delta_writes={delta_writes})"
            )
            recovered.assert_integrity()

    def test_delta_and_full_row_logs_recover_to_same_state(self, tmp_path):
        snap_d, _wal_d, states_d = _wal_workload(tmp_path / "d", delta_writes=True)
        snap_f, _wal_f, states_f = _wal_workload(tmp_path / "f", delta_writes=False)
        assert states_d == states_f
        assert contents(recover_database(snap_d)) == contents(recover_database(snap_f))


class TestFormatGate:
    def _craft_log(self, path, header, records):
        with path.open("wb") as handle:
            _write_frame(handle, header)
            for record in records:
                _write_frame(handle, record)

    def test_pre_delta_format_log_recovers(self, tmp_path):
        """A fmt-1 log — no 'fmt' header key, full-row 'updates' records —
        written by the previous release must still replay."""
        snap = tmp_path / "app.jsonl"
        db = Database(Schema(parse_schema(DDL)))
        db.insert("users", {"id": 1, "name": "old", "email": "o@x", "score": 1})
        save_database(db, snap)
        wal_path = default_wal_path(snap)
        self._craft_log(
            wal_path,
            {"t": _T_HEADER, "version": _WAL_VERSION, "gen": 0},  # note: no "fmt"
            [
                {
                    "t": _T_STMT,
                    "op": "update",
                    "table": "users",
                    "updates": [
                        [1, {"id": 1, "name": "new", "email": None, "score": 7}]
                    ],
                },
                {"t": _T_COMMIT, "n": 1},
            ],
        )
        recovered = recover_database(snap)
        assert recovered.get("users", 1) == {
            "id": 1, "name": "new", "email": None, "score": 7,
        }

    def test_future_format_is_rejected(self, tmp_path):
        snap = tmp_path / "app.jsonl"
        db = Database(Schema(parse_schema(DDL)))
        save_database(db, snap)
        wal_path = default_wal_path(snap)
        self._craft_log(
            wal_path,
            {"t": _T_HEADER, "version": _WAL_VERSION, "fmt": _WAL_FORMAT + 1, "gen": 0},
            [],
        )
        with pytest.raises(WalCorruptionError):
            recover_database(snap)


# -- engine-level differential: apply + reveal under both write paths -------------


class TestEngineDifferential:
    def _run(self, delta_writes: bool):
        from tests.conftest import blog_scrub_spec, make_blog_db
        from repro.core.engine import Disguiser
        from repro.vault.memory_vault import MemoryVault

        db = make_blog_db()
        db.delta_writes = delta_writes
        engine = Disguiser(db, vault=MemoryVault(), seed=7)
        engine.register(blog_scrub_spec())
        report = engine.apply("BlogScrub", uid=2)
        disguised = contents(db)
        engine.reveal(report.disguise_id, check_integrity=True)
        return disguised, contents(db)

    def test_apply_and_reveal_match_full_row_path(self):
        delta = self._run(True)
        legacy = self._run(False)
        assert delta[0] == legacy[0], "disguised states diverge"
        assert delta[1] == legacy[1], "revealed states diverge"

    def test_reveal_restores_original_rows(self):
        from tests.conftest import make_blog_db

        _disguised, revealed = self._run(True)
        original = contents(make_blog_db())
        assert {t: revealed[t] for t in original} == original
