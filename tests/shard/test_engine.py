"""ShardedDatabase facade tests: partition, routing, FK parity, metrics."""

from __future__ import annotations

import pytest

from repro import Database, Schema, parse_schema
from repro.errors import ForeignKeyError, ShardError, StorageError
from repro.shard import (
    ShardedDatabase,
    collapse,
    owner_shard,
    shard_database,
)

from tests.conftest import make_blog_db

GLOBAL_DDL = """
CREATE TABLE users (
  id INT PRIMARY KEY,
  name TEXT
);
CREATE TABLE badges (
  id INT PRIMARY KEY,
  label TEXT
);
CREATE TABLE awards (
  id INT PRIMARY KEY,
  user_id INT NOT NULL REFERENCES users(id),
  badge_id INT NOT NULL REFERENCES badges(id)
);
"""


def rows_set(db, table):
    return {tuple(sorted(row.items(), key=lambda kv: kv[0])) for row in db.select(table)}


@pytest.fixture
def sharded(request):
    db = make_blog_db()
    return db, shard_database(make_blog_db(), 3)


class TestPartition:
    def test_row_counts_preserved(self, sharded):
        plain, sdb = sharded
        assert sdb.row_counts() == plain.row_counts()
        assert sdb.total_rows() == plain.total_rows()

    def test_rows_identical(self, sharded):
        plain, sdb = sharded
        for table in ("users", "posts", "comments", "follows"):
            assert rows_set(sdb, table) == rows_set(plain, table)

    def test_placement_respects_owner_hash(self, sharded):
        _plain, sdb = sharded
        for user in sdb.select("users"):
            home = owner_shard(user["id"], 3)
            assert sdb.shards[home].table("users").rid_of(user["id"]) is not None
        for post in sdb.select("posts"):
            home = owner_shard(post["user_id"], 3)
            assert sdb.shards[home].table("posts").rid_of(post["id"]) is not None

    def test_integrity_clean(self, sharded):
        _plain, sdb = sharded
        assert sdb.check_integrity() == []

    def test_collapse_round_trips(self, sharded):
        plain, sdb = sharded
        merged = collapse(sdb)
        for table in plain.schema.table_names:
            assert rows_set(merged, table) == rows_set(plain, table)


class TestRouting:
    def test_owner_eq_read_routes_single_shard(self, sharded):
        _plain, sdb = sharded
        before = sdb.scatter_reads
        rows = sdb.select("posts", "user_id = 2")
        assert {row["id"] for row in rows} == {11, 12}
        assert sdb.scatter_reads == before
        assert sdb.routed_reads > 0

    def test_routed_scan_examines_only_the_home_shard(self):
        """Read confinement: with the owner-column index dropped in both
        engines every read scans, and what differs is how many rows — the
        whole table, or the home shard's ~1/N share."""
        from repro.apps.lobsters import LobstersPopulation, generate_lobsters

        population = LobstersPopulation(users=64, stories=128, comments=512)
        plain = generate_lobsters(population=population, seed=7)
        sdb = shard_database(generate_lobsters(population=population, seed=7), 4)
        for engine in (plain, *sdb.shards):
            engine.table("comments").drop_index("user_id")
        for row in plain.select("users"):
            where, params = "user_id = $U", {"U": row["id"]}
            assert len(sdb.select("comments", where, params=params)) == len(
                plain.select("comments", where, params=params)
            )
        assert sdb.scatter_reads == 0
        sharded_examined = sum(s.table("comments").rows_examined for s in sdb.shards)
        assert 0 < sharded_examined < 0.35 * plain.table("comments").rows_examined

    def test_pk_get_avoids_scatter(self, sharded):
        _plain, sdb = sharded
        row = sdb.get("posts", 13)
        assert row["user_id"] == 3

    def test_unanchored_read_scatters(self, sharded):
        _plain, sdb = sharded
        before = sdb.scatter_reads
        rows = sdb.select("posts", "score > 3")
        assert {row["id"] for row in rows} == {10, 13}
        assert sdb.scatter_reads > before

    def test_new_root_row_lands_on_hash_home(self, sharded):
        _plain, sdb = sharded
        sdb.insert("users", {"id": 50, "name": "Eve", "email": "e@x.io"})
        home = owner_shard(50, 3)
        assert sdb.shards[home].table("users").rid_of(50) is not None
        assert sdb.shard_map.is_clean(50)

    def test_routing_bias_marks_dirty(self, sharded):
        _plain, sdb = sharded
        home = owner_shard(51, 3)
        biased = (home + 1) % 3
        with sdb.routing_bias(biased):
            sdb.insert("users", {"id": 51, "name": "Fay", "email": "f@x.io"})
        assert sdb.shards[biased].table("users").rid_of(51) is not None
        assert not sdb.shard_map.is_clean(51)
        # Dirty owners scatter — and still find their rows.
        assert len(sdb.select("users", "id = 51")) == 1


class TestStatementParity:
    """The facade must raise what the monolith raises, verbatim."""

    def err(self, db, fn):
        with pytest.raises((ForeignKeyError, StorageError)) as info:
            fn(db)
        return str(info.value)

    def test_missing_parent_insert(self, sharded):
        plain, sdb = sharded
        new_row = {"id": 70, "post_id": 999, "user_id": 1, "body": "x"}
        assert self.err(plain, lambda d: d.insert("comments", dict(new_row))) == \
            self.err(sdb, lambda d: d.insert("comments", dict(new_row)))

    def test_duplicate_pk_across_shards(self, sharded):
        plain, sdb = sharded
        dup = {"id": 10, "user_id": 3, "title": "dup", "body": ""}
        assert self.err(plain, lambda d: d.insert("posts", dict(dup))) == \
            self.err(sdb, lambda d: d.insert("posts", dict(dup)))

    def test_restrict_delete(self, sharded):
        plain, sdb = sharded
        assert self.err(plain, lambda d: d.delete("users", "id = 1")) == \
            self.err(sdb, lambda d: d.delete("users", "id = 1"))

    def test_cascade_delete_matches(self, sharded):
        plain, sdb = sharded
        # comments.post_id is ON DELETE CASCADE in the blog schema.
        for db in (plain, sdb):
            db.delete("comments", "post_id = 11")
            db.delete("posts", "id = 11")
        assert rows_set(plain, "posts") == rows_set(sdb, "posts")
        assert rows_set(plain, "comments") == rows_set(sdb, "comments")

    def test_update_parity(self, sharded):
        plain, sdb = sharded
        for db in (plain, sdb):
            db.update("posts", "score = score + 10", "user_id = 2")
        assert rows_set(plain, "posts") == rows_set(sdb, "posts")


class TestGlobalTables:
    def make(self):
        schema = Schema(parse_schema(GLOBAL_DDL))
        db = Database(schema)
        db.insert("users", {"id": 1, "name": "Ada"})
        db.insert("users", {"id": 2, "name": "Bea"})
        db.insert("badges", {"id": 1, "label": "gold"})
        db.insert("awards", {"id": 1, "user_id": 1, "badge_id": 1})
        return shard_database(db, 3)

    def test_global_rows_replicated_everywhere(self):
        sdb = self.make()
        for shard in sdb.shards:
            assert shard.table("badges").rid_of(1) is not None

    def test_global_write_fans_out(self):
        sdb = self.make()
        before = sdb.fanout_writes
        sdb.insert("badges", {"id": 2, "label": "silver"})
        assert sdb.fanout_writes > before
        for shard in sdb.shards:
            assert shard.table("badges").rid_of(2) is not None
        # An owner row on any shard can reference the replicated parent.
        sdb.insert("awards", {"id": 2, "user_id": 2, "badge_id": 2})
        assert sdb.check_integrity() == []


class TestTransactions:
    def test_rollback_spans_shards(self, sharded):
        _plain, sdb = sharded
        before = sdb.total_rows()
        with pytest.raises(RuntimeError):
            with sdb.transaction():
                sdb.insert("users", {"id": 60, "name": "Gil", "email": "g@x.io"})
                sdb.insert("posts", {"id": 61, "user_id": 60, "title": "t", "body": ""})
                raise RuntimeError("boom")
        assert sdb.total_rows() == before
        assert sdb.get("users", 60) is None

    def test_commit_spans_shards(self, sharded):
        _plain, sdb = sharded
        with sdb.transaction():
            sdb.insert("users", {"id": 62, "name": "Hal", "email": "h@x.io"})
            sdb.insert("posts", {"id": 63, "user_id": 62, "title": "t", "body": ""})
        assert sdb.get("posts", 63)["user_id"] == 62


class TestObservability:
    def test_shard_gauges_registered(self, sharded):
        _plain, sdb = sharded
        sdb.select("posts", "user_id = 2")
        view = sdb.metrics()
        assert view["shard.shards"] == 3
        assert view["shard.routed_reads"] >= 1
        total = sum(view[f"shard.s{i}.rows"] for i in range(3))
        assert total == sdb.total_rows()


class TestDdl:
    def test_create_and_drop_table(self, sharded):
        _plain, sdb = sharded
        sdb.create_table(parse_schema(
            "CREATE TABLE notes (id INT PRIMARY KEY, user_id INT NOT NULL "
            "REFERENCES users(id), body TEXT);"
        )[0])
        sdb.insert("notes", {"id": 1, "user_id": 2, "body": "hi"})
        assert sdb.shards[owner_shard(2, 3)].table("notes").rid_of(1) is not None
        sdb.drop_table("notes")
        assert not sdb.has_table("notes")


class TestErrors:
    def test_redo_hook_requires_group(self, sharded):
        _plain, sdb = sharded

        class NotAGroup:
            pass

        with pytest.raises(ShardError):
            sdb.set_redo_hook(NotAGroup())
