"""Embedded relational storage engine (substrate for the disguising tool).

Public surface::

    from repro.storage import (
        Database, Schema, TableSchema, Column, ForeignKey, FKAction,
        ColumnType, parse_where, parse_schema, QueryStats,
        save_database, load_database,
    )
"""

from repro.storage.database import Database, QueryStats
from repro.storage.evolve import (
    AddColumn,
    DropColumn,
    RenameColumn,
    RenameTable,
    SchemaChange,
    apply_change,
)
from repro.storage.persist import (
    load_database,
    read_snapshot_generation,
    save_database,
    save_database_atomic,
)
from repro.storage.query import Query, parse_select, run_select
from repro.storage.predicate import (
    Predicate,
    TrueP,
    column_equals,
    column_equals_param,
)
from repro.storage.schema import Column, FKAction, ForeignKey, Schema, TableSchema
from repro.storage.sql import parse_create_table, parse_schema, parse_where
from repro.storage.types import ColumnType
from repro.storage.wal import (
    WalCorruptionError,
    WalDatabase,
    WriteAheadLog,
    recover_database,
)

__all__ = [
    "Database",
    "SchemaChange",
    "AddColumn",
    "DropColumn",
    "RenameColumn",
    "RenameTable",
    "apply_change",
    "QueryStats",
    "Query",
    "parse_select",
    "run_select",
    "Schema",
    "TableSchema",
    "Column",
    "ForeignKey",
    "FKAction",
    "ColumnType",
    "Predicate",
    "TrueP",
    "column_equals",
    "column_equals_param",
    "parse_where",
    "parse_create_table",
    "parse_schema",
    "save_database",
    "save_database_atomic",
    "load_database",
    "read_snapshot_generation",
    "WriteAheadLog",
    "WalDatabase",
    "WalCorruptionError",
    "recover_database",
]
