"""Property tests: the query layer agrees with a reference implementation."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.storage.database import Database
from repro.storage.query import parse_select
from repro.storage.schema import Column, ForeignKey, Schema, TableSchema
from repro.storage.types import ColumnType as T

from tests.conftest import examples


def make_db(users, posts) -> Database:
    schema = Schema(
        [
            TableSchema(
                "users",
                [Column("id", T.INTEGER, nullable=False), Column("score", T.INTEGER)],
                "id",
            ),
            TableSchema(
                "posts",
                [
                    Column("id", T.INTEGER, nullable=False),
                    Column("uid", T.INTEGER),
                    Column("rank", T.INTEGER),
                ],
                "id",
                [ForeignKey("uid", "users", "id")],
            ),
        ]
    )
    db = Database(schema)
    for pk, score in users:
        db.insert("users", {"id": pk, "score": score})
    user_ids = [pk for pk, _ in users]
    for pk, uid_index, rank in posts:
        uid = user_ids[uid_index % len(user_ids)] if user_ids else None
        db.insert("posts", {"id": pk, "uid": uid, "rank": rank})
    return db


users_strategy = st.lists(
    st.tuples(st.integers(0, 20), st.one_of(st.none(), st.integers(-5, 5))),
    min_size=1,
    max_size=8,
    unique_by=lambda t: t[0],
)
posts_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 7), st.integers(-5, 5)),
    max_size=12,
    unique_by=lambda t: t[0],
)


@settings(max_examples=examples(60))
@given(users=users_strategy, posts=posts_strategy, threshold=st.integers(-5, 5))
def test_join_where_matches_reference(users, posts, threshold):
    db = make_db(users, posts)
    sql = (
        "SELECT p.id FROM posts p JOIN users u ON p.uid = u.id "
        "WHERE u.score > $T"
    )
    got = sorted(r["id"] for r in parse_select(sql).run(db, {"T": threshold}))
    score_of = {pk: score for pk, score in users}
    expected = sorted(
        row["id"]
        for row in db.table("posts").rows()
        if row["uid"] is not None
        and score_of.get(row["uid"]) is not None
        and score_of[row["uid"]] > threshold
    )
    assert got == expected


@settings(max_examples=examples(60))
@given(users=users_strategy, posts=posts_strategy, limit=st.integers(0, 6),
       offset=st.integers(0, 4))
def test_order_limit_offset_matches_reference(users, posts, limit, offset):
    db = make_db(users, posts)
    sql = f"SELECT id FROM posts ORDER BY rank DESC, id LIMIT {limit} OFFSET {offset}"
    got = [r["id"] for r in parse_select(sql).run(db)]
    reference = sorted(
        db.table("posts").rows(),
        key=lambda row: (-row["rank"], row["id"]),
    )
    expected = [row["id"] for row in reference][offset : offset + limit]
    assert got == expected


@settings(max_examples=examples(60))
@given(users=users_strategy, posts=posts_strategy)
def test_count_star_matches_len(users, posts):
    db = make_db(users, posts)
    count = parse_select("SELECT COUNT(*) FROM posts").run(db)
    assert count == len(posts)


nullable_posts_strategy = st.lists(
    st.tuples(
        st.integers(0, 30), st.integers(0, 7), st.one_of(st.none(), st.integers(-5, 5))
    ),
    max_size=12,
    unique_by=lambda t: t[0],
)


@settings(max_examples=examples(60))
@given(users=users_strategy, posts=nullable_posts_strategy,
       lo=st.integers(-5, 5), skip=st.integers(0, 20), eq=st.integers(-5, 5))
def test_mixed_where_matches_reference(users, posts, lo, skip, eq):
    """A driving-table conjunct (pushed into the driving select), a joined
    table conjunct and a cross-alias OR, over NULL ranks and scores."""
    db = make_db(users, posts)
    sql = (
        "SELECT p.id FROM posts p JOIN users u ON p.uid = u.id "
        "WHERE p.rank > $R AND u.id != $I AND (rank = $Q OR u.score IS NULL)"
    )
    got = sorted(r["id"] for r in parse_select(sql).run(db, {"R": lo, "I": skip, "Q": eq}))
    score_of = {pk: score for pk, score in users}
    expected = sorted(
        row["id"]
        for row in db.table("posts").rows()
        if row["uid"] is not None
        and row["rank"] is not None
        and row["rank"] > lo
        and row["uid"] != skip
        and (row["rank"] == eq or score_of[row["uid"]] is None)
    )
    assert got == expected
