"""Unit tests for JSON-lines snapshot persistence."""

import io

import pytest

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.persist import (
    dump_rows,
    load_database,
    load_rows,
    save_database,
)
from repro.storage.schema import Column, Schema, TableSchema
from repro.storage.types import ColumnType as T


class TestSaveLoad:
    def test_round_trip(self, blog_db, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_database(blog_db, path)
        reloaded = load_database(path)
        assert reloaded.row_counts() == blog_db.row_counts()
        assert reloaded.get("users", 2)["name"] == "Bea"
        assert reloaded.check_integrity() == []

    def test_schema_round_trip(self, blog_db, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_database(blog_db, path)
        reloaded = load_database(path)
        users = reloaded.table("users").schema
        assert users.primary_key == "id"
        assert users.column("name").pii
        comments = reloaded.table("comments").schema
        fk = comments.foreign_key_for("post_id")
        assert fk.parent_table == "posts"

    def test_blob_and_datetime_round_trip(self, tmp_path):
        schema = Schema(
            [
                TableSchema(
                    "t",
                    [
                        Column("id", T.INTEGER, nullable=False),
                        Column("data", T.BLOB),
                        Column("at", T.DATETIME),
                    ],
                    "id",
                )
            ]
        )
        db = Database(schema)
        db.insert("t", {"id": 1, "data": b"\x00\xffbin", "at": 1234.5})
        db.insert("t", {"id": 2, "data": None, "at": None})
        path = tmp_path / "s.jsonl"
        save_database(db, path)
        reloaded = load_database(path)
        assert reloaded.get("t", 1) == {"id": 1, "data": b"\x00\xffbin", "at": 1234.5}
        assert reloaded.get("t", 2)["data"] is None

    def test_mutations_after_reload_work(self, blog_db, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_database(blog_db, path)
        reloaded = load_database(path)
        reloaded.insert("users", {"id": 9, "name": "New", "email": "n@x"})
        assert reloaded.next_id("users") == 10

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(StorageError):
            load_database(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"$header": {"version": 99}}\n')
        with pytest.raises(StorageError):
            load_database(path)

    def test_earlier_version_rejected_by_number(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text('{"$header": {"version": 1, "tables": []}}\n')
        with pytest.raises(StorageError, match="version 1"):
            load_database(path)

    def test_id_watermark_survives_reload(self, blog_db, tmp_path):
        """A deleted row's id is never handed out again, across a reload."""
        blog_db.delete_by_pk("follows", 1001)
        blog_db.delete_by_pk("comments", 103)
        path = tmp_path / "snap.jsonl"
        save_database(blog_db, path)
        reloaded = load_database(path)
        assert reloaded.next_id("comments") == 104
        assert reloaded.next_id("follows") == 1002

    def test_unrecognized_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"$header": {"version": 2, "tables": [], "id_watermark": {}}}\n'
            '{"$bogus": 1}\n'
        )
        with pytest.raises(StorageError):
            load_database(path)


class TestRowDump:
    def test_dump_load_rows(self):
        rows = [{"a": 1, "b": b"\x01"}, {"a": None, "b": None}]
        buffer = io.StringIO()
        dump_rows(rows, buffer)
        buffer.seek(0)
        assert load_rows(buffer) == rows


class TestBatchedLoad:
    def test_load_uses_one_batched_insert_per_table(self, tmp_path, monkeypatch):
        """Snapshot load goes through insert_rows once per table, so it
        benefits from grouped index maintenance instead of per-row inserts."""
        from repro.storage.table import Table

        db = Database(
            Schema(
                [
                    TableSchema(
                        "users",
                        [Column("id", T.INTEGER, nullable=False), Column("name", T.TEXT)],
                        primary_key="id",
                    )
                ]
            )
        )
        for i in range(20):
            db.insert("users", {"id": i, "name": f"u{i}"})
        path = tmp_path / "snap.jsonl"
        save_database(db, path)

        calls = []
        real_insert_rows = Table.insert_rows
        real_insert = Table.insert

        def spy_insert_rows(self, rows):
            rows = list(rows)
            calls.append(("insert_rows", self.name, len(rows)))
            return real_insert_rows(self, rows)

        def spy_insert(self, values):
            calls.append(("insert", self.name, 1))
            return real_insert(self, values)

        monkeypatch.setattr(Table, "insert_rows", spy_insert_rows)
        monkeypatch.setattr(Table, "insert", spy_insert)
        loaded = load_database(path)
        assert calls == [("insert_rows", "users", 20)]
        assert loaded.row_counts() == {"users": 20}
