"""Planner correctness and batched-statement rollback tests.

The planner may only ever *narrow* the candidate rows a predicate is
evaluated against, so the gold standard is equivalence with a full scan.
The property test below generates random predicates over every shape the
planner understands (and several it does not) and checks the planned
``scan()`` returns exactly the rows a brute-force filter selects.
"""

import random

import pytest

from repro.errors import ForeignKeyError, NoSuchRowError
from repro.storage.database import Database
from repro.storage.planner import (
    EmptyPath,
    EqProbe,
    MultiProbe,
    RangeProbe,
    UnionPath,
    extract_path,
)
from repro.storage.predicate import (
    And,
    Between,
    ColumnRef,
    Comparison,
    FalseP,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Param,
)
from repro.storage.schema import Column, FKAction, ForeignKey, Schema, TableSchema
from repro.storage.sql import parse_where
from repro.storage.table import Table
from repro.storage.types import ColumnType as T


def make_table(n: int = 200, seed: int = 7) -> Table:
    schema = TableSchema(
        "posts",
        [
            Column("id", T.INTEGER, nullable=False),
            Column("uid", T.INTEGER),
            Column("score", T.INTEGER, default=0),
            Column("title", T.TEXT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("uid", "users", "id")],
    )
    table = Table(schema)
    table.create_index("score")
    rng = random.Random(seed)
    for i in range(1, n + 1):
        table.insert(
            {
                "id": i,
                "uid": rng.choice([None, *range(20)]),
                "score": rng.randrange(100),
                "title": rng.choice(["alpha", "beta", "gamma", None]),
            }
        )
    return table


def full_scan(table: Table, pred, params=None):
    bound = params or {}
    return [dict(row) for row in table.rows() if pred.test(dict(row), bound)]


class TestExtractPath:
    INDEXED = {"id", "uid", "score"}.__contains__

    def test_equality_probe(self):
        path = extract_path(parse_where("uid = 3"), {}, self.INDEXED)
        assert path == EqProbe("uid", 3)

    def test_param_equality_probe(self):
        path = extract_path(parse_where("uid = $U"), {"U": 9}, self.INDEXED)
        assert path == EqProbe("uid", 9)

    def test_reversed_operands(self):
        path = extract_path(parse_where("5 <= score"), {}, self.INDEXED)
        assert path == RangeProbe("score", lo=5)

    def test_in_list_probe(self):
        path = extract_path(parse_where("uid IN (1, 2, 3)"), {}, self.INDEXED)
        assert path == MultiProbe("uid", (1, 2, 3))

    def test_or_of_equalities_unions(self):
        path = extract_path(
            parse_where("uid = 1 OR score = 2 OR uid = 3"), {}, self.INDEXED
        )
        assert isinstance(path, UnionPath)
        assert len(path.paths) == 3

    def test_or_with_unplannable_arm_scans(self):
        assert (
            extract_path(parse_where("uid = 1 OR title = 'x'"), {}, self.INDEXED)
            is None
        )

    def test_range_probe(self):
        path = extract_path(parse_where("score > 10"), {}, self.INDEXED)
        assert path == RangeProbe("score", lo=10, lo_incl=False)

    def test_between_probe(self):
        path = extract_path(
            parse_where("score BETWEEN 10 AND 20"), {}, self.INDEXED
        )
        assert path == RangeProbe("score", lo=10, hi=20)

    def test_and_picks_cheapest_arm(self):
        path = extract_path(
            parse_where("score > 10 AND uid = 3"), {}, self.INDEXED
        )
        assert path == EqProbe("uid", 3)

    def test_false_is_empty(self):
        assert isinstance(extract_path(FalseP(), {}, self.INDEXED), EmptyPath)

    def test_eq_null_is_empty(self):
        path = extract_path(
            Comparison("=", ColumnRef("uid"), Literal(None)), {}, self.INDEXED
        )
        assert isinstance(path, EmptyPath)

    def test_is_null_probes_null_bucket(self):
        path = extract_path(parse_where("uid IS NULL"), {}, self.INDEXED)
        assert path == EqProbe("uid", None)

    def test_unindexed_column_scans(self):
        assert extract_path(parse_where("title = 'x'"), {}, self.INDEXED) is None

    def test_inequality_scans(self):
        assert extract_path(parse_where("uid != 3"), {}, self.INDEXED) is None

    def test_unbound_param_scans(self):
        assert extract_path(parse_where("uid = $MISSING"), {}, self.INDEXED) is None


class TestScanEquivalence:
    """Planned scans must return exactly what a full scan returns."""

    @pytest.mark.parametrize(
        "where,params",
        [
            ("uid = 3", None),
            ("uid = $U", {"U": 5}),
            ("uid IN (1, 2, 3, 99)", None),
            ("uid = 1 OR uid = 2", None),
            ("uid = 1 OR score = 50", None),
            ("score > 90", None),
            ("score >= 90", None),
            ("score < 5", None),
            ("score <= 5", None),
            ("30 < score AND score < 40", None),
            ("score BETWEEN 30 AND 40", None),
            ("uid IS NULL", None),
            ("uid IS NOT NULL", None),
            ("uid = 3 AND title = 'alpha'", None),
            ("title = 'alpha' OR uid = 3", None),
            ("NOT (uid = 3)", None),
            ("score > 200", None),
            ("uid = 1 AND uid = 2", None),
        ],
    )
    def test_fixed_predicates(self, where, params):
        table = make_table()
        pred = parse_where(where)
        planned = [dict(row) for row in table.scan(pred, params)]
        assert planned == full_scan(table, pred, params)

    def test_empty_in_list_matches_nothing(self):
        table = make_table()
        pred = InList(ColumnRef("uid"), ())
        assert table.scan(pred) == full_scan(table, pred) == []

    def test_random_predicates_match_full_scan(self):
        table = make_table(n=300, seed=11)
        rng = random.Random(99)
        params = {"U": 7}
        for trial in range(250):
            pred = _random_predicate(rng, depth=rng.randrange(1, 4))
            planned = sorted(row["id"] for row in table.scan(pred, params))
            reference = sorted(
                row["id"] for row in full_scan(table, pred, params)
            )
            assert planned == reference, f"trial {trial}: {pred!r}"

    def test_planned_scan_examines_fewer_rows(self):
        table = make_table(n=500, seed=3)
        # Equality, IN-list and range predicates on indexed columns probe
        # the index: at least 5x fewer rows examined than the 500 a full
        # scan walks, and never more than the rows returned.
        for where, plan in [
            ("uid = 3", "eq(uid)"),
            ("uid IN (3, 7, 11)", "in(uid, 3)"),
            ("score BETWEEN 90 AND 95", "range(90 <= score <= 95)"),
        ]:
            table.rows_examined = 0
            rows = table.scan(parse_where(where))
            assert table.last_plan == plan
            assert 0 < table.rows_examined == len(rows) <= 500 // 5


_INT_COLS = ("id", "uid", "score")


def _random_leaf(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:  # comparison on an int column
        column = rng.choice(_INT_COLS)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        value = rng.randrange(-10, 320)
        if rng.random() < 0.5:
            return Comparison(op, ColumnRef(column), Literal(value))
        mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        return Comparison(mirror[op], Literal(value), ColumnRef(column))
    if kind == 1:  # comparison on the unindexed text column
        op = rng.choice(["=", "!="])
        return Comparison(
            op, ColumnRef("title"), Literal(rng.choice(["alpha", "beta", "zeta"]))
        )
    if kind == 2:
        column = rng.choice(_INT_COLS)
        items = tuple(
            Literal(rng.choice([None, rng.randrange(-5, 120)]))
            for _ in range(rng.randrange(0, 5))
        )
        return InList(ColumnRef(column), items, negated=rng.random() < 0.3)
    if kind == 3:
        column = rng.choice(_INT_COLS)
        lo = rng.randrange(-10, 100)
        return Between(
            ColumnRef(column),
            Literal(lo),
            Literal(lo + rng.randrange(0, 50)),
            negated=rng.random() < 0.3,
        )
    if kind == 4:
        return IsNull(
            ColumnRef(rng.choice(["uid", "title"])), negated=rng.random() < 0.5
        )
    return Comparison("=", ColumnRef("uid"), Param("U"))


def _random_predicate(rng: random.Random, depth: int):
    if depth <= 1:
        return _random_leaf(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return And(_random_predicate(rng, depth - 1), _random_predicate(rng, depth - 1))
    if kind == 1:
        return Or(_random_predicate(rng, depth - 1), _random_predicate(rng, depth - 1))
    return Not(_random_predicate(rng, depth - 1))


def make_db(on_delete: FKAction = FKAction.CASCADE) -> Database:
    schema = Schema(
        [
            TableSchema(
                "users",
                [
                    Column("id", T.INTEGER, nullable=False),
                    Column("name", T.TEXT),
                ],
                primary_key="id",
            ),
            TableSchema(
                "posts",
                [
                    Column("id", T.INTEGER, nullable=False),
                    Column("uid", T.INTEGER),
                    Column("score", T.INTEGER, default=0),
                ],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("uid", "users", "id", on_delete=on_delete)
                ],
            ),
        ]
    )
    db = Database(schema)
    for uid in range(1, 6):
        db.insert("users", {"id": uid, "name": f"u{uid}"})
    for i in range(1, 41):
        db.insert("posts", {"id": i, "uid": 1 + i % 5, "score": i})
    return db


def db_state(db: Database):
    return {
        table: sorted(
            (dict(row) for row in db.table(table).scan()),
            key=lambda row: repr(row),
        )
        for table in db.table_names
    }


class TestBatchedStatements:
    def test_insert_many_and_rollback(self):
        db = make_db()
        before = db_state(db)
        db.begin()
        stored = db.insert_many(
            "posts", [{"id": 100 + i, "uid": 1, "score": i} for i in range(10)]
        )
        assert len(stored) == 10
        assert db.get("posts", 105) is not None
        db.rollback()
        assert db_state(db) == before
        assert db.check_integrity() == []
        # indexes survived the rollback
        assert db.select("posts", "uid = 1") == [
            row for row in db.select("posts") if row["uid"] == 1
        ]

    def test_insert_many_rejects_dangling_fk(self):
        db = make_db()
        with pytest.raises(ForeignKeyError):
            db.insert_many("posts", [{"id": 900, "uid": 999}])

    def test_update_where_batches_and_rolls_back(self):
        db = make_db()
        before = db_state(db)
        db.begin()
        count = db.update_where("posts", "uid = 2", {"score": -1})
        assert count == len([r for r in before["posts"] if r["uid"] == 2])
        assert all(
            row["score"] == -1 for row in db.select("posts", "uid = 2")
        )
        db.rollback()
        assert db_state(db) == before
        assert db.check_integrity() == []

    def test_update_where_is_one_statement(self):
        db = make_db()
        snap = db.stats.snapshot()
        db.update_where("posts", "score <= 100", {"score": 0})
        delta = db.stats.delta(snap)
        assert delta.updates == 40  # row accounting stays linear
        assert delta.statements == 1  # ...but the whole UPDATE is one statement

    def test_update_many_checks_changed_fks(self):
        db = make_db()
        with pytest.raises(ForeignKeyError):
            db.update_many("posts", [(1, {"uid": 777})])

    def test_delete_where_cascades_and_rolls_back(self):
        db = make_db()
        before = db_state(db)
        db.begin()
        deleted = db.delete_many("users", [2, 3])
        assert deleted == 2
        assert db.select("posts", "uid = 2") == []
        assert db.check_integrity() == []
        db.rollback()
        assert db_state(db) == before
        assert db.check_integrity() == []
        assert db.select("posts", "uid = 2") != []

    def test_delete_where_restrict_raises(self):
        db = make_db(on_delete=FKAction.RESTRICT)
        with pytest.raises(ForeignKeyError):
            db.delete_where("users", "id = 1")

    def test_delete_many_missing_pk_raises(self):
        db = make_db()
        with pytest.raises(NoSuchRowError):
            db.delete_many("posts", [1, 99999])

    def test_nested_savepoint_rollback_of_batch(self):
        db = make_db()
        db.begin()
        db.update_where("posts", "uid = 1", {"score": 500})
        mid = db_state(db)
        db.begin()
        db.delete_where("posts", "uid = 1")
        db.insert_many("posts", [{"id": 300, "uid": 4}])
        db.rollback()
        assert db_state(db) == mid
        db.commit()
        assert all(row["score"] == 500 for row in db.select("posts", "uid = 1"))


class TestMaxPkCache:
    def test_next_id_monotonic_through_batches(self):
        db = make_db()
        first = db.next_id("posts")
        assert first == 41
        db.insert_many("posts", [{"id": first, "uid": 1}])
        assert db.next_id("posts") == first + 1
        db.delete_many("posts", [first + 0])
        # deleting the max never recycles ids
        assert db.next_id("posts") == first + 2

    def test_max_pk_tracks_deletes_of_max(self):
        table = make_table(n=10)
        assert table.max_pk() == 10
        table.delete_by_pk(10)
        assert table.max_pk() == 9
        table.insert({"id": 50, "uid": 1, "score": 0, "title": None})
        assert table.max_pk() == 50
