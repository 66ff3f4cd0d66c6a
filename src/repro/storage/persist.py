"""Snapshot persistence: save and load a database as JSON lines.

The paper's vault discussion (§4.2) includes offline-storage deployment
models; this module provides the serialization layer those vaults and the
disguise history log build on. The format is line-oriented JSON: one header
line (format version, table names, each table's id watermark), then per
table one schema line followed by one line per row.

BLOB values are hex-encoded; DATETIME values are stored as floats. The
format round-trips every canonical value type exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TextIO

from repro.errors import StorageError
from repro.storage import fsio
from repro.storage.database import Database
from repro.storage.schema import Column, FKAction, ForeignKey, Schema, TableSchema
from repro.storage.types import ColumnType

__all__ = [
    "save_database",
    "save_database_atomic",
    "load_database",
    "read_snapshot_generation",
    "dump_rows",
    "load_rows",
]

# Version 2 added the per-table id watermarks (``Database.next_id`` never
# recycles an id, across a reload too).
_FORMAT_VERSION = 2


def _encode_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"$blob": value.hex()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "$blob" in value:
        return bytes.fromhex(value["$blob"])
    return value


def _schema_to_json(table: TableSchema) -> dict[str, Any]:
    return {
        "name": table.name,
        "primary_key": table.primary_key,
        "columns": [
            {
                "name": col.name,
                "type": col.ctype.value,
                "nullable": col.nullable,
                "default": _encode_value(col.default),
                "pii": col.pii,
            }
            for col in table.columns
        ],
        "foreign_keys": [
            {
                "column": fk.column,
                "parent_table": fk.parent_table,
                "parent_column": fk.parent_column,
                "on_delete": fk.on_delete.value,
            }
            for fk in table.foreign_keys
        ],
    }


def _schema_from_json(data: dict[str, Any]) -> TableSchema:
    columns = [
        Column(
            name=col["name"],
            ctype=ColumnType(col["type"]),
            nullable=col["nullable"],
            default=_decode_value(col["default"]),
            pii=col.get("pii", False),
        )
        for col in data["columns"]
    ]
    foreign_keys = [
        ForeignKey(
            column=fk["column"],
            parent_table=fk["parent_table"],
            parent_column=fk["parent_column"],
            on_delete=FKAction(fk["on_delete"]),
        )
        for fk in data["foreign_keys"]
    ]
    return TableSchema(data["name"], columns, data["primary_key"], foreign_keys)


def save_database(
    db: Database, path: str | Path, generation: int | None = None
) -> None:
    """Write *db* (schema + all rows) to *path* as JSON lines.

    ``generation`` is the checkpoint generation stamp used by the WAL layer
    to decide whether a log next to this snapshot is still live (see
    :mod:`repro.storage.wal`); snapshots without one read back as
    generation 0.
    """
    path = fsio.as_path(path)
    with path.open("w", encoding="utf-8") as handle:
        header: dict[str, Any] = {
            "version": _FORMAT_VERSION,
            "tables": list(db.table_names),
            "id_watermark": dict(db._id_watermark),
        }
        if generation is not None:
            header["generation"] = generation
        handle.write(json.dumps({"$header": header}) + "\n")
        for name in db.table_names:
            table = db.table(name)
            handle.write(json.dumps({"$table": _schema_to_json(table.schema)}) + "\n")
            for row in table.rows():
                encoded = {k: _encode_value(v) for k, v in row.items()}
                handle.write(json.dumps({"$row": [name, encoded]}) + "\n")


def save_database_atomic(
    db: Database, path: str | Path, generation: int | None = None
) -> None:
    """Crash-safe :func:`save_database`: temp file, fsync, rename, dir fsync.

    At no point is *path* missing or partially written: a crash before the
    ``os.replace`` leaves the old snapshot untouched, a crash after leaves
    the new one fully installed.
    """
    path = fsio.as_path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    save_database(db, tmp, generation=generation)
    with tmp.open("rb") as handle:
        fsio.fsync_handle(handle)
    fsio.replace(tmp, path)
    _fsync_dir(path.parent)


def _fsync_dir(directory: Any) -> None:
    try:
        fsio.fsync_dir(directory)
    except OSError:  # pragma: no cover - platform without dir fds
        return


def read_snapshot_generation(path: str | Path) -> int:
    """The checkpoint generation stamped in a snapshot's header.

    A missing file or a header without a stamp is generation 0 (the state
    of the world before the WAL layer existed).
    """
    path = fsio.as_path(path)
    if not path.exists():
        return 0
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
    if not first:
        raise StorageError(f"{path}: empty snapshot")
    header = json.loads(first)
    if "$header" not in header:
        raise StorageError(f"{path}: not a snapshot")
    return int(header["$header"].get("generation", 0))


def load_database(path: str | Path, verify: bool = True) -> Database:
    """Rebuild a database previously written by :func:`save_database`.

    Rows are loaded without FK enforcement ordering concerns: all tables
    are created first, then rows inserted table-by-table in file order with
    checks deferred until the end (a final integrity assertion, skipped
    when ``verify=False`` — e.g. by tooling that wants to *inspect* a
    corrupt snapshot).
    """
    path = fsio.as_path(path)
    tables: list[TableSchema] = []
    rows_by_table: dict[str, list[dict[str, Any]]] = {}
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise StorageError(f"{path}: empty snapshot")
        record = json.loads(first)
        if not isinstance(record, dict) or "$header" not in record:
            raise StorageError(f"{path}: not a snapshot")
        header = record["$header"]
        if header.get("version") != _FORMAT_VERSION:
            raise StorageError(
                f"{path}: snapshot format version {header.get('version')!r}, "
                f"this release reads only version {_FORMAT_VERSION}"
            )
        for line in handle:
            record = json.loads(line)
            if "$table" in record:
                tables.append(_schema_from_json(record["$table"]))
            elif "$row" in record:
                name, encoded = record["$row"]
                rows_by_table.setdefault(name, []).append(
                    {k: _decode_value(v) for k, v in encoded.items()}
                )
            else:
                raise StorageError(f"{path}: unrecognized record {record!r}")
    db = Database(Schema(tables))
    db._id_watermark.update(header["id_watermark"])
    for name, rows in rows_by_table.items():
        # Bypass statement-level FK checks during bulk load (file order may
        # interleave children before parents); verify integrity at the end.
        # One batched insert per table groups the index maintenance.
        db.table(name).insert_rows(rows)
    if verify:
        db.assert_integrity()
    return db


def dump_rows(rows: list[dict[str, Any]], handle: TextIO) -> None:
    """Serialize a row list (vault entries use this for file vaults)."""
    for row in rows:
        handle.write(json.dumps({k: _encode_value(v) for k, v in row.items()}) + "\n")


def load_rows(handle: TextIO) -> list[dict[str, Any]]:
    """Inverse of :func:`dump_rows`."""
    out = []
    for line in handle:
        line = line.strip()
        if line:
            out.append({k: _decode_value(v) for k, v in json.loads(line).items()})
    return out
