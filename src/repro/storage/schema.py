"""Schema definitions: columns, foreign keys, tables, and whole databases.

A :class:`Schema` is the static description of an application database that
both the storage engine and the disguise analyzer consume. Disguise
application needs to know, for every table, which columns are foreign keys
and where they point, so that decorrelation can rewrite them without
breaking referential integrity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError
from repro.storage.types import ColumnType, coerce

__all__ = [
    "Column",
    "ForeignKey",
    "FKAction",
    "TableSchema",
    "Schema",
]


class FKAction(enum.Enum):
    """What happens to referencing rows when the referenced row disappears."""

    RESTRICT = "RESTRICT"
    CASCADE = "CASCADE"
    SET_NULL = "SET NULL"


@dataclass(frozen=True)
class Column:
    """One column of a table.

    ``pii`` marks columns holding personally identifiable information. The
    storage engine ignores it; the disguise analyzer uses it to warn about
    specs that leave PII columns untouched.
    """

    name: str
    ctype: ColumnType
    nullable: bool = True
    default: Any = None
    pii: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.default is not None:
            coerce(self.default, self.ctype)


@dataclass(frozen=True)
class ForeignKey:
    """A single-column foreign key ``column -> parent_table(parent_column)``."""

    column: str
    parent_table: str
    parent_column: str
    on_delete: FKAction = FKAction.RESTRICT

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.column} -> {self.parent_table}({self.parent_column})"


class TableSchema:
    """Schema of a single table: ordered columns, primary key, foreign keys.

    The primary key is always a single column (matching both case-study
    apps, which use synthetic integer ids).
    """

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        primary_key: str,
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self.primary_key = primary_key
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        self._by_name: dict[str, Column] = {}
        for col in self.columns:
            if col.name in self._by_name:
                raise SchemaError(f"duplicate column {col.name!r} in table {name!r}")
            self._by_name[col.name] = col
        if primary_key not in self._by_name:
            raise SchemaError(f"primary key {primary_key!r} is not a column of {name!r}")
        pk_col = self._by_name[primary_key]
        if pk_col.nullable:
            raise SchemaError(f"primary key column {primary_key!r} must be NOT NULL")
        fk_cols = set()
        for fk in self.foreign_keys:
            if fk.column not in self._by_name:
                raise SchemaError(
                    f"foreign key column {fk.column!r} is not a column of {name!r}"
                )
            if fk.column in fk_cols:
                raise SchemaError(
                    f"column {fk.column!r} appears in two foreign keys of {name!r}"
                )
            fk_cols.add(fk.column)
        self._fk_by_column: dict[str, ForeignKey] = {
            fk.column: fk for fk in self.foreign_keys
        }

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name, raising UnknownColumnError if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def foreign_key_for(self, column: str) -> ForeignKey | None:
        """The foreign key declared on *column*, or None."""
        return self._fk_by_column.get(column)

    def pii_columns(self) -> tuple[Column, ...]:
        return tuple(col for col in self.columns if col.pii)

    def normalize_row(self, values: dict[str, Any]) -> dict[str, Any]:
        """Validate and coerce a row dict against this schema.

        Missing columns receive their declared default (or NULL). Unknown
        keys and NOT NULL violations raise.
        """
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise UnknownColumnError(
                f"table {self.name!r} has no column(s) {sorted(unknown)!r}"
            )
        row: dict[str, Any] = {}
        for col in self.columns:
            if col.name in values:
                row[col.name] = coerce(values[col.name], col.ctype)
            else:
                row[col.name] = col.default
            if row[col.name] is None and not col.nullable:
                raise SchemaError(
                    f"column {self.name}.{col.name} is NOT NULL but got NULL"
                )
        return row

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TableSchema({self.name!r}, {len(self.columns)} columns)"


class Schema:
    """An ordered collection of table schemas forming a database schema."""

    def __init__(self, tables: Iterable[TableSchema] = ()) -> None:
        self._tables: dict[str, TableSchema] = {}
        for table in tables:
            self.add(table)

    def add(self, table: TableSchema) -> None:
        if table.name in self._tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def __iter__(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def validate(self) -> None:
        """Check cross-table consistency: every FK targets an existing
        table/column, and the target column is that table's primary key
        (the engine only indexes PK lookups for FK enforcement)."""
        for table in self:
            for fk in table.foreign_keys:
                if not self.has_table(fk.parent_table):
                    raise SchemaError(
                        f"{table.name}.{fk.column} references missing table "
                        f"{fk.parent_table!r}"
                    )
                parent = self.table(fk.parent_table)
                if not parent.has_column(fk.parent_column):
                    raise SchemaError(
                        f"{table.name}.{fk.column} references missing column "
                        f"{fk.parent_table}.{fk.parent_column}"
                    )
                if fk.parent_column != parent.primary_key:
                    raise SchemaError(
                        f"{table.name}.{fk.column} must reference the primary key "
                        f"of {fk.parent_table!r} ({parent.primary_key!r}), "
                        f"not {fk.parent_column!r}"
                    )

    def referencing(self, parent_table: str) -> list[tuple[TableSchema, ForeignKey]]:
        """All (table, fk) pairs whose foreign key points at *parent_table*."""
        refs = []
        for table in self:
            for fk in table.foreign_keys:
                if fk.parent_table == parent_table:
                    refs.append((table, fk))
        return refs

    def topological_order(self) -> dict[str, int]:
        """Rank tables so each ranks above every table it references.

        Sorting tables by rank visits parents first; by descending rank,
        children first. Kahn's algorithm over the foreign-key graph,
        peeling childless tables in declaration order (so the order among
        unrelated tables is stable). Self-references are ignored. Tables
        on an FK cycle cannot be ordered against each other and share one
        rank — a stable sort then keeps the caller's own order among them.
        """
        parents = {
            table.name: [
                parent
                for parent in dict.fromkeys(fk.parent_table for fk in table.foreign_keys)
                if parent != table.name and parent in self._tables
            ]
            for table in self
        }
        children_left = dict.fromkeys(parents, 0)
        for names in parents.values():
            for parent in names:
                children_left[parent] += 1
        ready = [name for name, count in children_left.items() if count == 0]
        peeled: list[list[str]] = []  # children first; one list per rank
        while children_left:
            if ready:
                peeled.extend([name] for name in ready)
            else:
                ready = _unreferenced_cycle(parents, children_left)
                peeled.append(ready)
            for name in ready:
                del children_left[name]
            unblocked = []
            for name in ready:
                for parent in parents[name]:
                    if parent in children_left:
                        children_left[parent] -= 1
                        if children_left[parent] == 0:
                            unblocked.append(parent)
            ready = unblocked
        return {
            name: len(peeled) - position
            for position, names in enumerate(peeled)
            for name in names
        }

    def object_type_count(self) -> int:
        """Number of object types (tables) — the Figure 4 '#Object Types' column."""
        return len(self)


def _unreferenced_cycle(
    parents: dict[str, list[str]], left: dict[str, int]
) -> list[str]:
    """An FK cycle among *left* that no other table in *left* references.

    Called when every table in *left* still has a child in *left*, so one
    exists: the tables left are cycles and what they reference, and the
    cycles themselves form no cycle.
    """

    def reachable(start: str) -> set[str]:
        seen: set[str] = set()
        stack = [start]
        while stack:
            for parent in parents[stack.pop()]:
                if parent in left and parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    reach = {name: reachable(name) for name in left}
    for name in left:
        cycle = {other for other in reach[name] if name in reach[other]}
        if cycle and not any(
            parent in cycle
            for other in left
            if other not in cycle
            for parent in parents[other]
        ):
            return [other for other in left if other in cycle]
    raise AssertionError("no foreign-key cycle among tables that all have children")
