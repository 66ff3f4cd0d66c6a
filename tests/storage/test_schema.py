"""Unit tests for schema definitions and cross-table validation."""

import pytest

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError
from repro.storage.schema import Column, FKAction, ForeignKey, Schema, TableSchema
from repro.storage.types import ColumnType as T


def users_table() -> TableSchema:
    return TableSchema(
        "users",
        [Column("id", T.INTEGER, nullable=False), Column("name", T.TEXT, pii=True)],
        primary_key="id",
    )


def posts_table() -> TableSchema:
    return TableSchema(
        "posts",
        [
            Column("id", T.INTEGER, nullable=False),
            Column("uid", T.INTEGER),
            Column("body", T.TEXT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("uid", "users", "id")],
    )


class TestTableSchema:
    def test_column_lookup(self):
        table = users_table()
        assert table.column("name").ctype is T.TEXT
        assert table.has_column("id")
        assert not table.has_column("missing")
        with pytest.raises(UnknownColumnError):
            table.column("missing")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", T.INTEGER, nullable=False), Column("a", T.TEXT)],
                primary_key="a",
            )

    def test_pk_must_exist_and_be_not_null(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", T.INTEGER, nullable=False)], primary_key="b")
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", T.INTEGER, nullable=True)], primary_key="a")

    def test_fk_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", T.INTEGER, nullable=False)],
                primary_key="a",
                foreign_keys=[ForeignKey("ghost", "users", "id")],
            )

    def test_two_fks_on_one_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", T.INTEGER, nullable=False), Column("b", T.INTEGER)],
                primary_key="a",
                foreign_keys=[
                    ForeignKey("b", "users", "id"),
                    ForeignKey("b", "posts", "id"),
                ],
            )

    def test_foreign_key_for(self):
        table = posts_table()
        fk = table.foreign_key_for("uid")
        assert fk is not None and fk.parent_table == "users"
        assert table.foreign_key_for("body") is None

    def test_pii_columns(self):
        assert [c.name for c in users_table().pii_columns()] == ["name"]

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("bad name", T.TEXT)

    def test_bad_default_rejected(self):
        from repro.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            Column("a", T.INTEGER, default="not an int")


class TestNormalizeRow:
    def test_fills_defaults_and_nulls(self):
        table = TableSchema(
            "t",
            [
                Column("id", T.INTEGER, nullable=False),
                Column("n", T.INTEGER, default=7),
                Column("s", T.TEXT),
            ],
            primary_key="id",
        )
        row = table.normalize_row({"id": 1})
        assert row == {"id": 1, "n": 7, "s": None}

    def test_unknown_column_rejected(self):
        with pytest.raises(UnknownColumnError):
            users_table().normalize_row({"id": 1, "ghost": 2})

    def test_not_null_enforced(self):
        with pytest.raises(SchemaError):
            users_table().normalize_row({"name": "x"})  # id missing


class TestSchema:
    def test_duplicate_table_rejected(self):
        with pytest.raises(SchemaError):
            Schema([users_table(), users_table()])

    def test_table_lookup(self):
        schema = Schema([users_table()])
        assert schema.table("users").name == "users"
        with pytest.raises(UnknownTableError):
            schema.table("ghost")

    def test_validate_missing_parent(self):
        schema = Schema([posts_table()])  # users table absent
        with pytest.raises(SchemaError):
            schema.validate()

    def test_validate_fk_must_target_pk(self):
        bad = TableSchema(
            "posts",
            [Column("id", T.INTEGER, nullable=False), Column("uid", T.INTEGER)],
            primary_key="id",
            foreign_keys=[ForeignKey("uid", "users", "name")],
        )
        schema = Schema([users_table(), bad])
        with pytest.raises(SchemaError):
            schema.validate()

    def test_referencing(self):
        schema = Schema([users_table(), posts_table()])
        refs = schema.referencing("users")
        assert len(refs) == 1
        assert refs[0][0].name == "posts"
        assert schema.referencing("posts") == []

    def test_topological_order(self):
        def table(name, *parents):
            return TableSchema(
                name,
                [Column("id", T.INTEGER, nullable=False)]
                + [Column(f"{parent}_id", T.INTEGER) for parent in parents],
                primary_key="id",
                foreign_keys=[ForeignKey(f"{parent}_id", parent, "id") for parent in parents],
            )

        def parents_first(schema):
            rank = schema.topological_order()
            return sorted(schema.table_names, key=rank.__getitem__)

        schema = Schema([posts_table(), users_table()])
        assert parents_first(schema) == ["users", "posts"]

        # A self-reference (comment threads) constrains nothing.
        threaded = Schema([table("comments", "comments", "users"), table("users")])
        assert parents_first(threaded) == ["users", "comments"]

        # a <-> b is a cycle: one rank, below what references it (child)
        # and above what it references (root), declaration order within.
        cyclic = Schema(
            [table("child", "a"), table("b", "a"), table("a", "b", "root"),
             table("root"), table("loner")]
        )
        rank = cyclic.topological_order()
        assert rank["a"] == rank["b"]
        assert rank["root"] < rank["a"] < rank["child"]
        assert parents_first(cyclic).index("b") < parents_first(cyclic).index("a")
        assert set(rank) == set(cyclic.table_names)

    def test_object_type_count(self):
        schema = Schema([users_table(), posts_table()])
        assert schema.object_type_count() == 2

    def test_fk_action_values(self):
        assert FKAction("SET NULL") is FKAction.SET_NULL
        assert FKAction("CASCADE") is FKAction.CASCADE
