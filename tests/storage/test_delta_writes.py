"""Batched delta write path: differential, rollback, and recovery tests.

The contract (DESIGN.md "Compiled write path"):

* Batched UPDATE/DELETE (``update_where``, ``update_many``,
  ``delete_where``, ``delete_many``) must be observationally identical to
  the same change made with the per-row statements (``update``,
  ``update_by_pk``, ``delete``, ``delete_by_pk``; SET expressions evaluated
  by ``SetClause.eval_row``): same final contents, same errors, same
  rollback and crash-recovery behavior.
* The WAL logs every update as pk-keyed changed-column deltas (record
  format 3; a renumbered row's delta carries its new pk). A log stamped
  with any other format is refused, not guessed at.
* ``update_where`` accepts a SET-expression string compiled through the
  same plan cache as predicates.
"""

from __future__ import annotations

import json
import random
import shutil
import struct

import pytest

from repro import Database, Schema, parse_schema
from repro.errors import (
    ConstraintError,
    ForeignKeyError,
    NoSuchRowError,
    ParseError,
    UnknownColumnError,
)
from repro.storage.persist import save_database
from repro.storage.sql import parse_set
from repro.storage.wal import (
    _T_COMMIT,
    _T_HEADER,
    _WAL_FORMAT,
    _WAL_VERSION,
    WalCorruptionError,
    WalDatabase,
    _write_frame,
    default_wal_path,
    recover_database,
)

from tests.conftest import examples

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


def make_db() -> Database:
    db = Database(Schema(parse_schema(DDL)))
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


# -- randomized differential: batched statements vs per-row statements ----------


def _set_per_row(db, table, where, text, params):
    """Reference for ``update_where(table, where, text, params)``: each
    matching row's SET expressions evaluated by ``SetClause.eval_row`` and
    applied with ``update_by_pk``."""
    clause = parse_set(text)
    pk_col = db.table(table).schema.primary_key
    rows = db.select(table, where, params)
    for row in rows:
        values = clause.eval_row(row, params)
        db.update_by_pk(table, row[pk_col], dict(zip(clause.columns(), values)))
    return len(rows)


def _delete_one(db, table, pk):
    db.delete_by_pk(table, pk)
    return 1


def _statement(fn):
    """Run a per-row reference in a savepoint: a failing batched statement
    changes nothing, so neither may its reference."""

    def run(db):
        with db.transaction():
            return fn(db)

    return run


def _random_op(rng: random.Random):
    """One random mutation as ``(batched, per_row)`` closures over a Database."""
    batched, per_row = _random_pair(rng)
    return batched, _statement(per_row)


def _random_pair(rng: random.Random):
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
        where, params = f"{col} < $b", {"b": bound}
        return (
            lambda db: db.update_where(table, where, {col: value}, params),
            lambda db: db.update(table, where, {col: value}, params),
        )
    if kind == "update_where_set":
        bound = rng.randrange(30)
        delta = rng.randrange(5)
        text, params = f"views = views + {delta}", {"b": bound}
        return (
            lambda db: db.update_where("posts", "views < $b", text, params),
            lambda db: _set_per_row(db, "posts", "views < $b", text, params),
        )
    if kind == "update_many":
        pks = rng.sample(range(1, 17), rng.randrange(1, 4))
        value = rng.randrange(100)
        changes = [(pk, {"views": value + pk}) for pk in pks]
        return (
            lambda db: db.update_many("posts", changes),
            lambda db: [db.update_by_pk("posts", pk, ch) for pk, ch in changes],
        )
    if kind == "delete_where":
        table = rng.choice(["users", "posts", "reviews"])
        pk = rng.randrange(1, 30)
        return (
            lambda db: db.delete_where(table, f"id = {pk}"),
            lambda db: db.delete(table, f"id = {pk}"),
        )
    if kind == "delete_by_pk":
        pk = rng.randrange(1, 12)
        return (
            lambda db: db.delete_many("users", [pk]),
            lambda db: _delete_one(db, "users", pk),
        )
    next_id = rng.randrange(100, 10_000)
    row = {"id": next_id, "name": f"n{next_id}", "email": None, "score": 0}
    return (lambda db: db.insert("users", row),) * 2


def _outcome(op, db):
    try:
        return ("ok", op(db))
    except Exception as exc:  # noqa: BLE001 - equivalence check
        return ("err", type(exc).__name__)


@pytest.mark.parametrize("seed", range(examples(8)))
def test_random_workload_matches_full_row_path(seed):
    """A random workload run through the batched delta statements and
    through the per-row statements (each ``Table.update_by_pk`` replaces a
    full row) must produce identical databases and raise identical error
    types."""
    rng = random.Random(seed)
    ops = [_random_op(rng) for _ in range(40)]
    batched_db, per_row_db = make_db(), make_db()
    for batched, per_row in ops:
        assert _outcome(batched, batched_db) == _outcome(per_row, per_row_db)
        assert contents(batched_db) == contents(per_row_db)
    batched_db.assert_integrity()


@pytest.mark.parametrize("seed", range(examples(4)))
def test_random_transactions_roll_back_identically(seed):
    """Rollback from delta undo records restores byte-identical state,
    including through FK CASCADE and SET NULL interleavings."""
    rng = random.Random(1000 + seed)
    batched_db, per_row_db = make_db(), make_db()
    for _round in range(10):
        ops = [_random_op(rng) for _ in range(5)]
        abort = rng.random() < 0.5
        for db, side in ((batched_db, 0), (per_row_db, 1)):
            before = contents(db)
            db.begin()
            for pair in ops:
                try:
                    pair[side](db)
                except Exception:  # noqa: BLE001 - op may fail; tx continues
                    pass
            if abort:
                db.rollback()
                assert contents(db) == before
            else:
                db.commit()
        assert contents(batched_db) == contents(per_row_db)
        batched_db.assert_integrity()


def test_update_then_cascade_delete_then_rollback():
    """The hard case for rid-keyed undo: an update's target row is deleted
    (by CASCADE) later in the same transaction, so rollback reinserts it
    under a fresh rid before the update's inverse delta applies."""
    db = make_db()
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
    db = make_db()
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
        db = make_db()
        n = db.update_where("users", "id <= 3", "score = score * 2 + 1")
        assert n == 3
        assert db.get("users", 1)["score"] == 21
        assert db.get("users", 3)["score"] == 61

    def test_set_with_params(self):
        db = make_db()
        db.update_where("posts", "id = 1", "views = views + $inc", {"inc": 41})
        assert db.get("posts", 1)["views"] == 42

    def test_multi_column_set(self):
        db = make_db()
        db.update_where("users", "id = 5", "score = score - 50, email = null")
        row = db.get("users", 5)
        assert row["score"] == 0 and row["email"] is None

    def test_set_matches_row_interpreter(self):
        compiled_db, interpreted_db = make_db(), make_db()
        compiled_db.update_where("reviews", "stars < 4", "stars = stars + 1")
        _set_per_row(interpreted_db, "reviews", "stars < 4", "stars = stars + 1", {})
        assert contents(compiled_db) == contents(interpreted_db)

    def test_set_unknown_column_raises(self):
        db = make_db()
        with pytest.raises(UnknownColumnError):
            db.update_where("users", "id = 1", "bogus = 1")

    def test_duplicate_set_column_raises(self):
        db = make_db()
        with pytest.raises(ParseError):
            db.update_where("users", "id = 1", "score = 1, score = 2")

    def test_set_not_null_violation(self):
        from repro.errors import SchemaError

        db = make_db()
        with pytest.raises(SchemaError):
            db.update_where("users", "id = 1", "name = null")

    def test_set_is_cached_in_plan_cache(self):
        db = make_db()
        db.update_where("users", "id = 1", "score = score + 1")
        before = db.plans.hits
        db.update_where("users", "id = 2", "score = score + 1")
        assert db.plans.hits > before


# -- batched table primitives ------------------------------------------------------


class TestBatchedTableOps:
    def test_apply_updates_keeps_indexes_and_stats(self):
        db = make_db()
        table = db.table("posts")
        deltas = [(table.rid_of(pk), {"author_id": 1}) for pk in (1, 2, 3)]
        table.apply_updates(deltas)
        assert {r["id"] for r in table.referencing_rows("author_id", 1)} >= {1, 2, 3}
        db.assert_integrity()

    def test_apply_updates_skips_noop_columns(self):
        db = make_db()
        table = db.table("users")
        rid = table.rid_of(1)
        changed = table.apply_updates([(rid, {"score": 10, "email": "u1@x"})])
        assert changed == [(rid, {}, {})]  # both columns already held the value

    def test_apply_updates_rejects_pk_change(self):
        db = make_db()
        table = db.table("users")
        with pytest.raises(ConstraintError):
            table.apply_updates([(table.rid_of(1), {"id": 999})])

    def test_apply_updates_missing_rid_raises(self):
        db = make_db()
        with pytest.raises(NoSuchRowError):
            db.table("users").apply_updates([(10**9, {"score": 1})])

    def test_apply_deletes_dedups_and_patches_indexes(self):
        db = make_db()
        table = db.table("reviews")
        rid = table.rid_of(1)
        table.apply_deletes([rid, rid])
        assert table.rid_of(1) is None
        db.assert_integrity()

    def test_match_rows_agrees_with_scan(self):
        db = make_db()
        table = db.table("posts")
        from repro.storage.sql import parse_where

        pred = parse_where("views >= 8")
        scanned = [dict(r) for r in table.scan(pred)]
        matched = [dict(row) for _rid, row in table.match_rows(pred)]
        key = lambda r: r["id"]  # noqa: E731
        assert sorted(matched, key=key) == sorted(scanned, key=key)


# -- WAL: delta records, torn-tail recovery, format gate ---------------------------


def _wal_workload(tmp_path, batched: bool = True):
    """Journal a workload through the batched statements, or through their
    per-row references (one transaction, so one commit unit, per step).
    Returns the snapshot, the log and the contents after each unit."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    snap = tmp_path / "app.jsonl"
    db = Database(Schema(parse_schema(DDL)))
    save_database(db, snap)
    handle = WalDatabase(snap, fsync="always")
    live = handle.db
    states = [contents(live)]

    def step(batched_fn, per_row_fn=None):
        if batched or per_row_fn is None:
            batched_fn(live)
        else:
            _statement(per_row_fn)(live)
        states.append(contents(live))

    # User 6 is never an author, so it can be renumbered below.
    step(lambda db: db.insert_many(
        "users",
        [{"id": i, "name": f"u{i}", "email": f"u{i}@x", "score": i} for i in range(1, 7)],
    ))
    step(lambda db: db.insert_many(
        "posts",
        [{"id": i, "author_id": 1 + i % 5, "title": f"p{i}", "views": i} for i in range(1, 9)],
    ))
    redact = {"title": "redacted", "views": 0}
    step(lambda db: db.update_where("posts", "views < 5", redact),
         lambda db: db.update("posts", "views < 5", redact))
    step(lambda db: db.update_where("users", "id <= 3", "score = score * 10"),
         lambda db: _set_per_row(db, "users", "id <= 3", "score = score * 10", {}))
    bumps = [(1, {"views": 7}), (2, {"views": 8})]
    step(lambda db: db.update_many("posts", bumps),
         lambda db: [db.update_by_pk("posts", pk, ch) for pk, ch in bumps])

    def tx(db, update):
        with db.transaction():
            db.delete_by_pk("users", 2)  # cascades posts
            update("users", "score >= 40", {"email": None})

    step(lambda db: tx(db, db.update_where), lambda db: tx(db, db.update))
    step(lambda db: db.delete_where("posts", "views = 0"),
         lambda db: db.delete("posts", "views = 0"))
    step(lambda db: db.update_by_pk("users", 6, {"id": 60, "score": 66}))
    step(lambda db: db.insert("posts", {"id": 9, "author_id": 60, "title": "p9", "views": 9}))
    handle.wal._handle.flush()
    return snap, default_wal_path(snap), states


def _frame_spans(blob: bytes):
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
        snap, wal_path, _states = _wal_workload(tmp_path)
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

    def test_renumbered_row_logs_a_delta_with_its_new_pk(self, tmp_path):
        _snap, wal_path, _states = _wal_workload(tmp_path)
        updates = [
            p for _s, _e, p in _frame_spans(wal_path.read_bytes())
            if p.get("op") == "update"
        ]
        assert all(set(p) <= {"t", "op", "table", "deltas", "set", "set_pks"}
                   for p in updates)
        assert [6, {"id": 60, "score": 66}] in [
            pair for p in updates for pair in p.get("deltas", [])
        ]

    def test_header_carries_format_version(self, tmp_path):
        snap, wal_path, _states = _wal_workload(tmp_path)
        header = _frame_spans(wal_path.read_bytes())[0][2]
        assert header["t"] == _T_HEADER and header["fmt"] == _WAL_FORMAT == 3

    def test_batched_update_logs_under_half_the_full_row_bytes(self, tmp_path):
        """One UPDATE over every row: the frame carries the pks and the one
        changed column, under half the bytes of the full rows it updates."""
        snap = tmp_path / "wide.jsonl"
        db = make_db()
        db.insert_many(
            "users",
            [{"id": 100 + i, "name": f"user {i}", "email": f"user{i}@example.org",
              "score": i} for i in range(200)],
        )
        save_database(db, snap)
        with WalDatabase(snap, fsync="never") as handle:
            before = handle.wal.bytes_written
            handle.db.update_where("users", "id >= 100", {"score": -1})
            logged = handle.wal.bytes_written - before
            rows = handle.db.select("users", "id >= 100")
        full_rows = len(
            json.dumps([[r["id"], dict(r)] for r in rows], separators=(",", ":"))
        )
        assert 0 < 2 * logged <= full_rows

    @pytest.mark.parametrize("batched", [True, False])
    def test_every_byte_boundary_recovers_a_committed_prefix(self, tmp_path, batched):
        snap, wal_path, states = _wal_workload(tmp_path, batched)
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
                f"cut at byte {cut} (batched={batched})"
            )
            recovered.assert_integrity()

    def test_delta_and_full_row_logs_recover_to_same_state(self, tmp_path):
        """The batched statements' log and the per-row statements' log
        (each ``Table.update_by_pk`` replaces a full row) replay alike."""
        snap_b, _wal_b, states_b = _wal_workload(tmp_path / "b", batched=True)
        snap_r, _wal_r, states_r = _wal_workload(tmp_path / "r", batched=False)
        assert states_b == states_r
        assert contents(recover_database(snap_b)) == contents(recover_database(snap_r))


class TestFormatGate:
    def _craft_log(self, tmp_path, header):
        snap = tmp_path / "app.jsonl"
        save_database(Database(Schema(parse_schema(DDL))), snap)
        with default_wal_path(snap).open("wb") as handle:
            _write_frame(handle, {"t": _T_HEADER, "version": _WAL_VERSION, **header})
            _write_frame(handle, {"t": _T_COMMIT, "n": 0})
        return snap

    @pytest.mark.parametrize("header", [{"gen": 0}, {"fmt": 2, "gen": 0}],
                             ids=["no-fmt", "fmt-2"])
    def test_earlier_format_is_refused(self, tmp_path, header):
        """A log from an earlier release may hold full-row update records:
        both the reader and the writer refuse it and name the fix."""
        snap = self._craft_log(tmp_path, header)
        with pytest.raises(WalCorruptionError, match="checkpoint"):
            recover_database(snap)
        with pytest.raises(WalCorruptionError, match="checkpoint"):
            WalDatabase(snap)

    def test_future_format_is_rejected(self, tmp_path):
        snap = self._craft_log(tmp_path, {"fmt": _WAL_FORMAT + 1, "gen": 0})
        with pytest.raises(WalCorruptionError, match="newer"):
            recover_database(snap)


# -- engine-level round trip over the one write path -------------------------------


class TestEngineDifferential:
    def test_reveal_restores_original_rows(self):
        from tests.conftest import blog_scrub_spec, make_blog_db
        from repro.core.engine import Disguiser
        from repro.vault.memory_vault import MemoryVault

        db = make_blog_db()
        engine = Disguiser(db, vault=MemoryVault(), seed=7)
        engine.register(blog_scrub_spec())
        report = engine.apply("BlogScrub", uid=2)
        engine.reveal(report.disguise_id, check_integrity=True)
        revealed = contents(db)
        original = contents(make_blog_db())
        assert {t: revealed[t] for t in original} == original


def test_refused_renumbering_leaves_the_row_alone():
    """Renumbering a referenced row raises before anything changes."""
    db = make_db()
    before = contents(db)
    with pytest.raises(ForeignKeyError):
        db.update_by_pk("users", 1, {"id": 99})
    assert contents(db) == before
    db.assert_integrity()
