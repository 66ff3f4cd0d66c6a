"""`ShardedDatabase`: the Database statement API over N owner-hash shards.

Each shard is a full :class:`~repro.storage.database.Database` (its own
tables, plan cache, stats, obs registry, undo log — and, when attached,
its own write-ahead log), holding the rows of the owners hashed to it
plus a replica of every global table. The facade keeps the developer API
of the monolithic engine (the PET-deployability SoK's requirement that
scaling stay invisible behind the existing interface):

* single-shard statements — predicate pins the anchor to clean owners —
  delegate straight to the home shard;
* cross-shard SELECT/COUNT scatter-gathers (a thread pool when no lock
  hook is attached; serial under one, since 2PL lock scopes are bound to
  the calling thread) and merges rows;
* writes route rows by owner hash; global tables fan out to every shard
  so shard-local FK checks against them always resolve locally.

Foreign-key semantics live **in the facade**: per-shard databases are
always driven with ``enforce_fk=False`` and the facade performs every
check globally via O(1) cross-shard primary-key probes, mirroring the
monolith's check order, cascade traversal, and error messages — the
differential equivalence suite holds a 1-shard facade to byte-identical
row outcomes against a plain ``Database``. Cross-shard integrity probes
are latch-free: under the service, owner-rooted footprints make them
race-free, and the rare cross-owner fringe (a probe observing a row a
concurrent job is deleting) surfaces as a retryable job error, never
silent corruption.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import (
    ConstraintError,
    ForeignKeyError,
    NoSuchRowError,
    ShardError,
    TransactionError,
)
from repro.obs.registry import Registry
from repro.storage.database import Database, QueryStats
from repro.storage.predicate import Predicate, SetClause
from repro.storage.schema import FKAction, Schema, TableSchema
from repro.storage.sql import parse_set, parse_where
from repro.storage.table import Table
from repro.storage.types import coerce
from repro.shard.router import (
    DIRECT,
    GLOBAL,
    INDIRECT,
    ROOT,
    SYSTEM,
    Router,
    ShardMap,
)

__all__ = [
    "ShardedDatabase",
    "ShardedTableView",
    "collapse",
    "shard_database",
    "shard_lock_name",
]


def shard_lock_name(index: int, table: str) -> str:
    """Per-shard lock name; system tables keep their leading underscore
    (the lock hook latches ``_``-prefixed names instead of 2PL-locking)."""
    if table.startswith("_"):
        return f"_s{index}{table}"
    return f"s{index}/{table}"


class _ShardLockHook:
    """Adapter giving one shard's statements shard-qualified lock names.

    Transaction callbacks are suppressed: the facade drives the real
    hook's ``on_begin``/``on_txn_end`` at *facade* transaction bounds, so
    locks release only after every shard's WAL unit is appended (the
    strict-2PL + early-lock-release contract of the monolithic path).
    """

    def __init__(self, inner: Any, index: int) -> None:
        self.inner = inner
        self.index = index

    def on_statement_start(self, table: str, mode: str) -> None:
        self.inner.on_statement_start(shard_lock_name(self.index, table), mode)

    def on_access(self, table: str, mode: str) -> None:
        self.inner.on_access(shard_lock_name(self.index, table), mode)

    def on_statement_end(self) -> None:
        self.inner.on_statement_end()

    def on_begin(self) -> None:  # facade-driven; see class docstring
        pass

    def on_txn_end(self) -> None:
        pass


class ShardedTableView:
    """Aggregate read view over one logical table's per-shard slices.

    Exposes the :class:`~repro.storage.table.Table` surface the engine
    layers read through (``rows``/``view``/``rid_of``/``referencing_rows``
    /``max_pk``); index DDL fans out to every shard holding the table.
    """

    def __init__(self, sdb: "ShardedDatabase", name: str) -> None:
        self._sdb = sdb
        self.name = name

    @property
    def schema(self) -> TableSchema:
        return self._sdb.schema.table(self.name)

    def _read_tables(self) -> list[Table]:
        sdb = self._sdb
        return [sdb.shards[i].table(self.name) for i in sdb._read_indices(self.name)]

    def _write_tables(self) -> list[Table]:
        sdb = self._sdb
        return [sdb.shards[i].table(self.name) for i in sdb._write_indices(self.name)]

    def __len__(self) -> int:
        return sum(len(t) for t in self._read_tables())

    def rows(self) -> list[Any]:
        out: list[Any] = []
        for t in self._read_tables():
            out.extend(t.rows())
        return out

    def scan(self, pred: Any = None, params: Any = None) -> list[Any]:
        out: list[Any] = []
        for t in self._read_tables():
            out.extend(t.scan(pred, params))
        return out

    def count(self, pred: Any = None, params: Any = None) -> int:
        return sum(t.count(pred, params) for t in self._read_tables())

    def get(self, pk_value: Any) -> dict[str, Any] | None:
        for t in self._read_tables():
            row = t.get(pk_value)
            if row is not None:
                return row
        return None

    def view(self, pk_value: Any) -> Any:
        for t in self._read_tables():
            row = t.view(pk_value)
            if row is not None:
                return row
        return None

    def rid_of(self, pk_value: Any) -> Any:
        for t in self._read_tables():
            rid = t.rid_of(pk_value)
            if rid is not None:
                return rid
        return None

    def referencing_rows(
        self, fk_column: str, value: Any, sort: bool = True
    ) -> list[Any]:
        out: list[Any] = []
        for t in self._read_tables():
            out.extend(t.referencing_rows(fk_column, value, sort=sort))
        return out

    def max_pk(self) -> Any:
        tops = [t.max_pk() for t in self._read_tables()]
        tops = [t for t in tops if t is not None]
        return max(tops) if tops else None

    @property
    def rows_examined(self) -> int:
        return sum(t.rows_examined for t in self._read_tables())

    def has_indexed(self, column: str) -> bool:
        tables = self._read_tables()
        return bool(tables) and tables[0].has_indexed(column)

    def create_index(self, column: str) -> None:
        for t in self._write_tables():
            t.create_index(column)

    def drop_index(self, column: str) -> None:
        for t in self._write_tables():
            t.drop_index(column)


class ShardedDatabase:
    """Facade presenting N per-shard Databases as one (see module doc)."""

    def __init__(
        self,
        shards: list[Database],
        router: Router,
    ) -> None:
        if not shards:
            raise ShardError("a sharded database needs at least one shard")
        if router.n_shards != len(shards):
            raise ShardError(
                f"router is for {router.n_shards} shard(s), got {len(shards)}"
            )
        self.shards = list(shards)
        self.router = router
        self.stats = QueryStats()
        self.obs = Registry()
        self._stats_mu = threading.Lock()
        self._id_lock = threading.Lock()
        self._id_watermark: dict[str, int] = {}
        self._tls = threading.local()
        self._lock_hook: Any = None
        self._group_wal: Any = None
        self._views: dict[str, ShardedTableView] = {}
        self._scatter_pool: ThreadPoolExecutor | None = None
        # Routing telemetry (shard.* gauges read these).
        self.routed_reads = 0
        self.scatter_reads = 0
        self.fanout_writes = 0
        self._register_obs()

    # -- topology ----------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def shard_map(self) -> ShardMap:
        return self.router.map

    @property
    def schema(self) -> Schema:
        # Shard 0 is the home of system tables, so its schema is the
        # complete logical schema; shards 1..N-1 lack only system tables.
        return self.shards[0].schema

    def _read_indices(self, table: str) -> list[int]:
        kind = self.router.placement(table).kind
        if kind in (SYSTEM, GLOBAL):
            return [0]
        return list(range(self.n_shards))

    def _write_indices(self, table: str) -> list[int]:
        kind = self.router.placement(table).kind
        if kind == SYSTEM:
            return [0]
        return list(range(self.n_shards))

    def table(self, name: str) -> ShardedTableView:
        view = self._views.get(name)
        if view is None:
            self.shards[0].table(name)  # raises UnknownTableError if missing
            view = self._views[name] = ShardedTableView(self, name)
        return view

    def has_table(self, name: str) -> bool:
        return self.schema.has_table(name)

    def table_names(self) -> tuple[str, ...]:
        return self.shards[0].table_names()

    def create_table(self, table_schema: TableSchema) -> None:
        if table_schema.name.startswith("_"):
            self.shards[0].create_table(table_schema)
        else:
            for shard in self.shards:
                shard.create_table(table_schema)
        self.router.invalidate()

    def drop_table(self, name: str) -> None:
        for i in self._write_indices(name):
            self.shards[i].drop_table(name)
        self._views.pop(name, None)
        self.router.invalidate()

    # -- routing bias (parallel disguise execution) -------------------------------

    @contextmanager
    def routing_bias(self, shard_index: int | None):
        """Pin new root-table rows to *shard_index* for this thread.

        The shard service sets the bias to a job's home shard so rows a
        disguise creates (per-row placeholder users) land on the shard
        the job already holds locks on — independent owners never meet on
        a lock. Off-home placements mark the new owner dirty so reads on
        it scatter; placement never decides correctness, only locality.
        """
        previous = getattr(self._tls, "bias", None)
        self._tls.bias = shard_index
        try:
            yield
        finally:
            self._tls.bias = previous

    def current_bias(self) -> int | None:
        return getattr(self._tls, "bias", None)

    # -- hooks -------------------------------------------------------------------

    def set_lock_hook(self, hook: Any) -> None:
        if self.in_transaction:
            raise TransactionError("cannot change lock hook inside a transaction")
        self._lock_hook = hook
        for index, shard in enumerate(self.shards):
            shard.set_lock_hook(None if hook is None else _ShardLockHook(hook, index))

    def set_redo_hook(self, hook: Any) -> None:
        """Attach one WAL per shard (a ``ShardGroupWal``), or detach all."""
        if hook is None:
            for shard in self.shards:
                shard.set_redo_hook(None)
            self._group_wal = None
            return
        wals = getattr(hook, "wals", None)
        if wals is None or len(wals) != self.n_shards:
            raise ShardError(
                "a sharded database needs one WAL per shard "
                "(attach a repro.shard.apply.ShardGroupWal)"
            )
        for shard, wal in zip(self.shards, wals):
            shard.set_redo_hook(wal)
        self._group_wal = hook
        if hasattr(hook, "register_metrics"):
            hook.register_metrics(self.obs)

    # -- transactions ------------------------------------------------------------

    def _depth(self) -> int:
        return getattr(self._tls, "depth", 0)

    @property
    def in_transaction(self) -> bool:
        return self._depth() > 0

    def begin(self) -> None:
        for shard in self.shards:
            shard.begin()
        if self._depth() == 0 and self._lock_hook is not None:
            self._lock_hook.on_begin()
        self._tls.depth = self._depth() + 1

    def commit(self) -> None:
        if self._depth() == 0:
            raise TransactionError("commit without begin")
        self._tls.depth = self._depth() - 1
        multi_shard = False
        if self._tls.depth == 0 and self._group_wal is not None:
            # Stamp multi-shard transactions with a group-commit marker
            # before any shard's unit is appended — replay then treats
            # the per-shard units as all-or-nothing (see
            # repro.shard.apply.replay_shard_logs).
            multi_shard = self._group_wal.tag_commit()
        for shard in self.shards:
            shard.commit()
        if multi_shard:
            # Durable on every participant before the locks release:
            # once another transaction can read these writes, no crash
            # can tear them back out, so recovery may drop a torn
            # multi-shard transaction without cascading. Single-shard
            # transactions keep lazy group commit — same-log append
            # order already protects their dependents.
            self._group_wal.commit_barrier()
        self._persist_map_if_dirty()
        if self._tls.depth == 0 and self._lock_hook is not None:
            # Locks release only after every shard appended its unit:
            # the WAL-before-lock-release order of the monolithic path.
            self._lock_hook.on_txn_end()

    def rollback(self) -> None:
        if self._depth() == 0:
            raise TransactionError("rollback without begin")
        self._tls.depth = self._depth() - 1
        for shard in reversed(self.shards):
            shard.rollback()
        if self._tls.depth == 0 and self._lock_hook is not None:
            self._lock_hook.on_txn_end()

    def redo_barrier(self) -> None:
        """Block until this thread's commits are durable on every shard log."""
        if self._group_wal is not None:
            self._group_wal.commit_barrier()
        else:
            for shard in self.shards:
                shard.redo_barrier()

    def transaction(self) -> "_ShardedTransaction":
        return _ShardedTransaction(self)

    # -- stats plumbing ----------------------------------------------------------

    def _bump(self, **deltas: int) -> None:
        with self._stats_mu:
            for name, amount in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + amount)

    def _note_route(self, kind: str) -> None:
        with self._stats_mu:
            if kind == "single":
                self.routed_reads += 1
            elif kind == "scatter":
                self.scatter_reads += 1

    def _persist_map_if_dirty(self) -> None:
        shard_map = self.router.map
        if getattr(shard_map, "_unsaved", False) and self._depth() == 0:
            shard_map.save()
            shard_map._unsaved = False

    def _mark_dirty(self, owner: Any) -> None:
        self.router.map.mark_dirty(owner)
        self.router.map._unsaved = True
        if self._depth() == 0:
            self._persist_map_if_dirty()

    # -- probes (cross-shard FK machinery) ---------------------------------------

    def _locate(self, table: str, pk_value: Any) -> int | None:
        """Which shard holds the row with this pk, or None.

        Probes the hash home first for root tables; placement of every
        other class is discovered by probing (correctness never depends
        on a row being at its computed home).
        """
        indices = self._read_indices(table)
        if len(indices) > 1:
            placement = self.router.placement(table)
            if placement.kind == ROOT:
                home = self.router.map.shard_of(pk_value)
                indices = [home] + [i for i in indices if i != home]
        for i in indices:
            if self.shards[i].table(table).rid_of(pk_value) is not None:
                return i
        return None

    def _exists(self, table: str, value: Any) -> bool:
        return self._locate(table, value) is not None

    def _check_fks_outgoing(self, ts: TableSchema, row: Mapping[str, Any]) -> None:
        for fk in ts.foreign_keys:
            value = row[fk.column]
            if value is None:
                continue
            if not self._exists(fk.parent_table, value):
                raise ForeignKeyError(
                    f"{ts.name}.{fk.column}={value!r} references "
                    f"missing {fk.parent_table}.{fk.parent_column}"
                )

    # -- reads -------------------------------------------------------------------

    def _route_read(self, table: str, where: Any, params: Any):
        pred = parse_where(where) if where is not None else None
        kind, indices = self.router.read_shards(
            table, pred, params, locate=self._locate
        )
        self._note_route(kind)
        return indices

    def _scatter(self, indices: list[int], fn) -> list[Any]:
        if len(indices) == 1 or self._lock_hook is not None:
            # Lock scopes are thread-bound: under a hook, scatter stays
            # on the calling thread so acquisitions join its 2PL scope.
            out: list[Any] = []
            for i in indices:
                out.extend(fn(self.shards[i]))
            return out
        pool = self._pool()
        futures = [pool.submit(fn, self.shards[i]) for i in indices]
        out = []
        for future in futures:
            out.extend(future.result())
        return out

    def _pool(self) -> ThreadPoolExecutor:
        if self._scatter_pool is None:
            self._scatter_pool = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="shard-scatter"
            )
        return self._scatter_pool

    def select(
        self,
        table: str,
        where: str | Predicate | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> list[dict[str, Any]]:
        self._bump(selects=1, statements=1)
        indices = self._route_read(table, where, params)
        return self._scatter(indices, lambda s: s.select(table, where, params))

    def get(self, table: str, pk_value: Any) -> dict[str, Any] | None:
        self._bump(selects=1, statements=1)
        located = self._locate(table, pk_value)
        if located is None:
            return None
        return self.shards[located].get(table, pk_value)

    def count(
        self,
        table: str,
        where: str | Predicate | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        self._bump(selects=1, statements=1)
        indices = self._route_read(table, where, params)
        return sum(self.shards[i].count(table, where, params) for i in indices)

    # -- writes ------------------------------------------------------------------

    def _shard_for_new_row(self, table: str, row: Mapping[str, Any]) -> int:
        """Home shard for a new row (sharded placements only)."""
        placement = self.router.placement(table)
        shard_map = self.router.map
        if placement.kind == ROOT:
            pk = row[self.schema.table(table).primary_key]
            bias = self.current_bias()
            home = shard_map.shard_of(pk)
            if bias is not None and bias != home:
                self._mark_dirty(pk)
                return bias
            return home
        if placement.kind == DIRECT:
            anchor_value = row.get(placement.anchor)
            if anchor_value is None:
                return 0
            return shard_map.shard_of(anchor_value)
        if placement.kind == INDIRECT:
            parent_value = row.get(placement.parent_column)
            if parent_value is not None:
                located = self._locate(placement.parent_table, parent_value)
                if located is not None:
                    return located
            return 0
        return 0  # SYSTEM

    def insert(
        self, table: str, values: dict[str, Any], enforce_fk: bool = True
    ) -> dict[str, Any]:
        self._bump(inserts=1, statements=1)
        ts = self.schema.table(table)
        row = ts.normalize_row(values)
        pk = row[ts.primary_key]
        placement = self.router.placement(table)
        if placement.kind != GLOBAL and self._exists(table, pk):
            # Same-shard duplicates would be caught below; this catches a
            # duplicate living on another shard, with the Table's message.
            raise ConstraintError(f"{table}: duplicate primary key {pk!r}")
        if enforce_fk:
            self._check_fks_outgoing(ts, row)
        if placement.kind == GLOBAL:
            stored = self.shards[0].insert(table, values, enforce_fk=False)
            for shard in self.shards[1:]:
                shard.insert(table, values, enforce_fk=False)
            with self._stats_mu:
                self.fanout_writes += 1
        else:
            target = self._shard_for_new_row(table, row)
            stored = self.shards[target].insert(table, values, enforce_fk=False)
        if isinstance(pk, int) and pk > self._id_watermark.get(table, 0):
            self._id_watermark[table] = pk
        return stored

    def insert_many(
        self,
        table: str,
        values_list: Iterable[dict[str, Any]],
        enforce_fk: bool = True,
    ) -> list[dict[str, Any]]:
        self._bump(statements=1)
        ts = self.schema.table(table)
        rows = [ts.normalize_row(v) for v in values_list]
        if not rows:
            return []
        pk_col = ts.primary_key
        placement = self.router.placement(table)
        batch_pks = {row[pk_col] for row in rows}
        if placement.kind != GLOBAL:
            for row in rows:
                if self._exists(table, row[pk_col]):
                    raise ConstraintError(
                        f"{table}: duplicate primary key {row[pk_col]!r}"
                    )
        if enforce_fk:
            for fk in ts.foreign_keys:
                distinct = {row[fk.column] for row in rows}
                distinct.discard(None)
                if fk.parent_table == table:
                    distinct -= batch_pks
                for value in distinct:
                    if not self._exists(fk.parent_table, value):
                        raise ForeignKeyError(
                            f"{table}.{fk.column}={value!r} references missing "
                            f"{fk.parent_table}.{fk.parent_column}"
                        )
        if placement.kind == GLOBAL:
            stored = self.shards[0].insert_many(table, rows, enforce_fk=False)
            for shard in self.shards[1:]:
                shard.insert_many(table, rows, enforce_fk=False)
            with self._stats_mu:
                self.fanout_writes += 1
        else:
            groups: dict[int, list[dict[str, Any]]] = {}
            order: list[tuple[int, int]] = []  # (shard, position within group)
            for row in rows:
                target = self._shard_for_new_row(table, row)
                group = groups.setdefault(target, [])
                order.append((target, len(group)))
                group.append(row)
            stored_by_shard = {
                target: self.shards[target].insert_many(
                    table, group, enforce_fk=False
                )
                for target, group in groups.items()
            }
            stored = [stored_by_shard[t][pos] for t, pos in order]
        self._bump(inserts=len(rows))
        top = max((row[pk_col] for row in rows if isinstance(row[pk_col], int)), default=0)
        if top > self._id_watermark.get(table, 0):
            self._id_watermark[table] = top
        return stored

    def _note_anchor_change(
        self, table: str, shard_index: int, changes: Mapping[str, Any]
    ) -> None:
        """Mark owners dirty when a row's anchor moves off its home."""
        placement = self.router.placement(table)
        if placement.kind == DIRECT and placement.anchor in changes:
            value = changes[placement.anchor]
            if value is not None and self.router.map.shard_of(value) != shard_index:
                self._mark_dirty(value)
        elif placement.kind == ROOT:
            pk_col = self.schema.table(table).primary_key
            if pk_col in changes:
                value = changes[pk_col]
                if value is not None and self.router.map.shard_of(value) != shard_index:
                    self._mark_dirty(value)

    def _update_one(
        self,
        table: str,
        pk_value: Any,
        changes: Mapping[str, Any],
        enforce_fk: bool = True,
    ) -> dict[str, Any]:
        self._bump(updates=1)
        ts = self.schema.table(table)
        placement = self.router.placement(table)
        if placement.kind == GLOBAL:
            if self.shards[0].table(table).rid_of(pk_value) is None:
                raise NoSuchRowError(f"{table}: no row with pk {pk_value!r}")
            if enforce_fk:
                self._check_update_fks(ts, 0, pk_value, changes)
            new = self.shards[0].update_by_pk(table, pk_value, changes, enforce_fk=False)
            for shard in self.shards[1:]:
                shard.update_by_pk(table, pk_value, changes, enforce_fk=False)
            with self._stats_mu:
                self.fanout_writes += 1
            return new
        located = self._locate(table, pk_value)
        if located is None:
            raise NoSuchRowError(f"{table}: no row with pk {pk_value!r}")
        if enforce_fk:
            self._check_update_fks(ts, located, pk_value, changes)
        if ts.primary_key in changes:
            new_pk = changes[ts.primary_key]
            if new_pk != pk_value:
                other = self._locate(table, new_pk)
                if other is not None and other != located:
                    raise ConstraintError(
                        f"{table}: duplicate primary key {new_pk!r}"
                    )
        new = self.shards[located].update_by_pk(
            table, pk_value, changes, enforce_fk=False
        )
        new_pk = new[ts.primary_key]
        if new_pk != pk_value:
            # The home shard checked its own references post-mutation
            # (enforce_fk=False skips it, so do the whole check here).
            self._check_pk_change_references(table, pk_value)
        self._note_anchor_change(table, located, changes)
        return new

    def _check_update_fks(
        self,
        ts: TableSchema,
        shard_index: int,
        pk_value: Any,
        changes: Mapping[str, Any],
    ) -> None:
        """Post-image outgoing-FK check, mirroring ``Database._update_one``."""
        view = self.shards[shard_index].table(ts.name).view(pk_value)
        for fk in ts.foreign_keys:
            if fk.column in changes:
                value = changes[fk.column]
                if value is not None:
                    value = coerce(value, ts.column(fk.column).ctype)
            else:
                value = view[fk.column]
            if value is None:
                continue
            if not self._exists(fk.parent_table, value):
                raise ForeignKeyError(
                    f"{ts.name}.{fk.column}={value!r} references "
                    f"missing {fk.parent_table}.{fk.parent_column}"
                )

    def _check_pk_change_references(self, table: str, old_pk: Any) -> None:
        for child_schema, fk in self.schema.referencing(table):
            if self.table(child_schema.name).referencing_rows(
                fk.column, old_pk, sort=False
            ):
                raise ForeignKeyError(
                    f"cannot change primary key {table}.{old_pk!r}: "
                    f"still referenced by {child_schema.name}.{fk.column}"
                )

    def update_by_pk(
        self,
        table: str,
        pk_value: Any,
        changes: Mapping[str, Any],
        enforce_fk: bool = True,
    ) -> dict[str, Any]:
        self._bump(statements=1)
        return self._update_one(table, pk_value, changes, enforce_fk)

    def update(
        self,
        table: str,
        where: str | Predicate,
        changes: Mapping[str, Any],
        params: Mapping[str, Any] | None = None,
    ) -> int:
        self._bump(statements=1)
        rows = self.select(table, where, params)
        pk_col = self.schema.table(table).primary_key
        for row in rows:
            self._update_one(table, row[pk_col], changes)
        return len(rows)

    def _update_many_core(
        self,
        table: str,
        updates: list[tuple[Any, Mapping[str, Any]]],
        enforce_fk: bool,
    ) -> list[dict[str, Any]]:
        if not updates:
            return []
        ts = self.schema.table(table)
        pk_col = ts.primary_key
        if any(pk_col in changes for _pk, changes in updates):
            # Primary-key renumbering needs full per-row reference checks
            # (mirrors the monolith's per-row fallback).
            return [self._update_one(table, pk, ch, enforce_fk) for pk, ch in updates]
        placement = self.router.placement(table)
        if placement.kind == GLOBAL:
            for pk, _ch in updates:
                if self.shards[0].table(table).rid_of(pk) is None:
                    raise NoSuchRowError(f"{table}: no row with {pk_col}={pk!r}")
            if enforce_fk:
                self._check_batch_update_fks(ts, updates)
            out = self.shards[0].update_many(table, updates, enforce_fk=False)
            for shard in self.shards[1:]:
                shard.update_many(table, updates, enforce_fk=False)
            with self._stats_mu:
                self.fanout_writes += 1
            self._bump(updates=len(updates))
            return out
        located: list[int] = []
        for pk, _changes in updates:
            where_at = self._locate(table, pk)
            if where_at is None:
                raise NoSuchRowError(f"{table}: no row with {pk_col}={pk!r}")
            located.append(where_at)
        if enforce_fk:
            self._check_batch_update_fks(ts, updates)
        groups: dict[int, list[tuple[Any, Mapping[str, Any]]]] = {}
        order: list[tuple[int, int]] = []
        for shard_index, (pk, changes) in zip(located, updates):
            group = groups.setdefault(shard_index, [])
            order.append((shard_index, len(group)))
            group.append((pk, changes))
        results = {
            shard_index: self.shards[shard_index].update_many(
                table, group, enforce_fk=False
            )
            for shard_index, group in groups.items()
        }
        for shard_index, group in groups.items():
            for _pk, changes in group:
                self._note_anchor_change(table, shard_index, changes)
        self._bump(updates=len(updates))
        return [results[s][pos] for s, pos in order]

    def _check_batch_update_fks(
        self, ts: TableSchema, updates: list[tuple[Any, Mapping[str, Any]]]
    ) -> None:
        """Distinct-value FK check, mirroring ``Database._update_batch``."""
        for fk in ts.foreign_keys:
            ctype = ts.column(fk.column).ctype
            distinct = set()
            for _pk, changes in updates:
                if fk.column in changes and changes[fk.column] is not None:
                    distinct.add(coerce(changes[fk.column], ctype))
            for value in distinct:
                if not self._exists(fk.parent_table, value):
                    raise ForeignKeyError(
                        f"{ts.name}.{fk.column}={value!r} references "
                        f"missing {fk.parent_table}.{fk.parent_column}"
                    )

    def update_many(
        self,
        table: str,
        updates: Iterable[tuple[Any, Mapping[str, Any]]],
        enforce_fk: bool = True,
    ) -> list[dict[str, Any]]:
        self._bump(statements=1)
        return self._update_many_core(table, list(updates), enforce_fk)

    def update_where(
        self,
        table: str,
        where: str | Predicate,
        changes: Mapping[str, Any] | str | SetClause,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        self._bump(statements=1, selects=1)
        ts = self.schema.table(table)
        pk_col = ts.primary_key
        placement = self.router.placement(table)
        if isinstance(changes, (str, SetClause)):
            clause = parse_set(changes)
            assigned = {item.column for item in clause.items}
            fk_cols = {fk.column for fk in ts.foreign_keys}
            if pk_col in assigned or (assigned & fk_cols):
                raise ShardError(
                    "sharded update_where cannot assign primary-key or "
                    "foreign-key columns through SET expressions; use a "
                    "mapping change set"
                )
            # FK-free SET expressions are safe to evaluate shard-locally.
            indices = self._route_read(table, where, params)
            total = 0
            for position, i in enumerate(indices):
                n = self.shards[i].update_where(table, where, changes, params)
                if placement.kind != GLOBAL or position == 0:
                    total += n
            self._bump(updates=total)
            return total
        indices = (
            self._write_indices(table)
            if placement.kind == GLOBAL
            else self._route_read(table, where, params)
        )
        total = 0
        checked = False
        for position, i in enumerate(indices):
            rows = self.shards[i].select(table, where, params)
            if not rows:
                continue
            if not checked:
                self._check_batch_update_fks(ts, [(None, changes)])
                checked = True
            self.shards[i].update_many(
                table, [(row[pk_col], changes) for row in rows], enforce_fk=False
            )
            self._note_anchor_change(table, i, changes)
            if placement.kind != GLOBAL or position == 0:
                total += len(rows)
        self._bump(updates=total)
        return total

    # -- deletes -----------------------------------------------------------------

    def delete(
        self,
        table: str,
        where: str | Predicate,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        self._bump(statements=1)
        rows = self.select(table, where, params)
        pk_col = self.schema.table(table).primary_key
        for row in rows:
            self.delete_by_pk(table, row[pk_col])
        return len(rows)

    def delete_by_pk(
        self, table: str, pk_value: Any, enforce_fk: bool = True
    ) -> dict[str, Any]:
        placement = self.router.placement(table)
        if placement.kind == GLOBAL:
            if self.shards[0].table(table).rid_of(pk_value) is None:
                raise NoSuchRowError(f"{table}: no row with pk {pk_value!r}")
            if enforce_fk:
                self._resolve_incoming(table, pk_value)
            self._bump(deletes=1, statements=1)
            old = self.shards[0].delete_by_pk(table, pk_value, enforce_fk=False)
            for shard in self.shards[1:]:
                shard.delete_by_pk(table, pk_value, enforce_fk=False)
            with self._stats_mu:
                self.fanout_writes += 1
            return old
        located = self._locate(table, pk_value)
        if located is None:
            raise NoSuchRowError(f"{table}: no row with pk {pk_value!r}")
        if enforce_fk:
            self._resolve_incoming(table, pk_value)
        self._bump(deletes=1, statements=1)
        return self.shards[located].delete_by_pk(table, pk_value, enforce_fk=False)

    def _resolve_incoming(self, table: str, pk_value: Any) -> None:
        """Apply ON DELETE actions across shards, in the monolith's order."""
        for child_schema, fk in self.schema.referencing(table):
            self._bump(selects=1)
            referencing = self.table(child_schema.name).referencing_rows(
                fk.column, pk_value
            )
            if not referencing:
                continue
            if fk.on_delete is FKAction.RESTRICT:
                raise ForeignKeyError(
                    f"cannot delete {table}.{pk_value!r}: referenced by "
                    f"{len(referencing)} row(s) of {child_schema.name}.{fk.column} "
                    f"(ON DELETE RESTRICT)"
                )
            pk_col = child_schema.primary_key
            if fk.on_delete is FKAction.CASCADE:
                for row in referencing:
                    self.delete_by_pk(child_schema.name, row[pk_col])
            elif fk.on_delete is FKAction.SET_NULL:
                for row in referencing:
                    self._update_one(child_schema.name, row[pk_col], {fk.column: None})

    def delete_many(
        self, table: str, pk_values: Iterable[Any], enforce_fk: bool = True
    ) -> int:
        self._bump(statements=1)
        return self._delete_batch(table, pk_values, enforce_fk)

    def delete_where(
        self,
        table: str,
        where: str | Predicate,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        self._bump(statements=1, selects=1)
        indices = self._route_read(table, where, params)
        placement = self.router.placement(table)
        if placement.kind == GLOBAL:
            indices = [0]
        pk_col = self.schema.table(table).primary_key
        pks: list[Any] = []
        for i in indices:
            pks.extend(
                row[pk_col]
                for _rid, row in self.shards[i].table(table).match_rows(
                    parse_where(where), params
                )
            )
        return self._delete_batch(table, pks, True)

    def _delete_batch(
        self, table: str, pk_values: Iterable[Any], enforce_fk: bool
    ) -> int:
        pks = list(dict.fromkeys(pk_values))
        if not pks:
            return 0
        ts = self.schema.table(table)
        placement = self.router.placement(table)
        fan_out = placement.kind == GLOBAL
        located: dict[Any, int] = {}
        for pk in pks:
            at = 0 if fan_out else self._locate(table, pk)
            if at is None or self.shards[at].table(table).rid_of(pk) is None:
                raise NoSuchRowError(f"{table}: no row with pk {pk!r}")
            located[pk] = at
        if enforce_fk:
            doomed = set(pks)
            for child_schema, fk in self.schema.referencing(table):
                self._bump(selects=len(pks))
                child_view = self.table(child_schema.name)
                child_pk = child_schema.primary_key
                hits: list[Any] = []
                seen: set[Any] = set()
                for pk in pks:
                    for row in child_view.referencing_rows(fk.column, pk, sort=False):
                        cpk = row[child_pk]
                        if child_schema.name == table and cpk in doomed:
                            continue
                        if cpk not in seen:
                            seen.add(cpk)
                            hits.append(cpk)
                if not hits:
                    continue
                if fk.on_delete is FKAction.RESTRICT:
                    raise ForeignKeyError(
                        f"cannot delete from {table}: {len(hits)} row(s) of "
                        f"{child_schema.name}.{fk.column} still reference the "
                        f"batch (ON DELETE RESTRICT)"
                    )
                if fk.on_delete is FKAction.CASCADE:
                    self._delete_batch(child_schema.name, hits, True)
                elif fk.on_delete is FKAction.SET_NULL:
                    self._update_many_core(
                        child_schema.name,
                        [(cpk, {fk.column: None}) for cpk in hits],
                        enforce_fk=False,
                    )
        if fan_out:
            for shard in self.shards:
                shard.delete_many(table, pks, enforce_fk=False)
            with self._stats_mu:
                self.fanout_writes += 1
        else:
            groups: dict[int, list[Any]] = {}
            for pk in pks:
                groups.setdefault(located[pk], []).append(pk)
            for shard_index, group in groups.items():
                self.shards[shard_index].delete_many(table, group, enforce_fk=False)
        self._bump(deletes=len(pks))
        return len(pks)

    # -- integrity ---------------------------------------------------------------

    def check_row_fks(self, table: str, pk_value: Any) -> list[str]:
        view = self.table(table).get(pk_value)
        if view is None:
            return []
        problems = []
        for fk in self.schema.table(table).foreign_keys:
            value = view[fk.column]
            if value is None:
                continue
            if not self._exists(fk.parent_table, value):
                problems.append(
                    f"{table}.{fk.column}={value!r} references missing "
                    f"{fk.parent_table}.{fk.parent_column}"
                )
        return problems

    def check_integrity(self) -> list[str]:
        problems = []
        for ts in self.schema:
            seen_pks: set[Any] = set()
            for index in self._read_indices(ts.name):
                for row in self.shards[index].table(ts.name).rows():
                    pk = row[ts.primary_key]
                    if pk in seen_pks:
                        problems.append(
                            f"{ts.name}: primary key {pk!r} present on "
                            f"multiple shards"
                        )
                    seen_pks.add(pk)
                    for fk in ts.foreign_keys:
                        value = row[fk.column]
                        if value is None:
                            continue
                        if not self._exists(fk.parent_table, value):
                            problems.append(
                                f"{ts.name}.{fk.column}={value!r} dangles "
                                f"(row {ts.primary_key}={pk!r})"
                            )
        return problems

    def assert_integrity(self) -> None:
        problems = self.check_integrity()
        if problems:
            from repro.errors import IntegrityViolation

            raise IntegrityViolation(
                f"{len(problems)} dangling foreign key(s): " + "; ".join(problems[:5])
            )

    # -- misc --------------------------------------------------------------------

    def next_id(self, table: str) -> int:
        current = self.table(table).max_pk()
        if current is None:
            current = 0
        if not isinstance(current, int):
            raise TransactionError(
                f"next_id requires integer primary keys, {table} has {current!r}"
            )
        with self._id_lock:
            allocated = max(current, self._id_watermark.get(table, 0)) + 1
            self._id_watermark[table] = allocated
        return allocated

    def row_counts(self) -> dict[str, int]:
        return {ts.name: len(self.table(ts.name)) for ts in self.schema}

    def total_rows(self) -> int:
        return sum(self.row_counts().values())

    def close(self) -> None:
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=False)
            self._scatter_pool = None

    # -- observability -----------------------------------------------------------

    def _register_obs(self) -> None:
        reg = self.obs
        for name in ("selects", "inserts", "updates", "deletes", "statements"):
            reg.gauge(f"storage.{name}", lambda n=name: getattr(self.stats, n))
        reg.gauge("storage.total", lambda: self.stats.total)
        reg.gauge("storage.writes", lambda: self.stats.writes)
        reg.gauge(
            "storage.rows_examined",
            lambda: sum(
                t.rows_examined
                for shard in self.shards
                for t in shard._tables.values()
            ),
        )
        reg.gauge("storage.tables", lambda: len(self.schema.table_names))
        reg.gauge("storage.rows", self.total_rows)
        reg.gauge(
            "plancache.hits", lambda: sum(s.plans.hits for s in self.shards)
        )
        reg.gauge(
            "plancache.misses", lambda: sum(s.plans.misses for s in self.shards)
        )
        reg.gauge(
            "plancache.entries", lambda: sum(len(s.plans) for s in self.shards)
        )
        reg.gauge("plancache.generation", lambda: self.shards[0].plans.generation)
        reg.gauge("shard.shards", lambda: self.n_shards)
        reg.gauge("shard.dirty_owners", lambda: len(self.router.map.dirty))
        reg.gauge("shard.overrides", lambda: len(self.router.map.overrides))
        reg.gauge("shard.migrations", lambda: self.router.map.migrations_done)
        reg.gauge("shard.routed_reads", lambda: self.routed_reads)
        reg.gauge("shard.scatter_reads", lambda: self.scatter_reads)
        reg.gauge("shard.fanout_writes", lambda: self.fanout_writes)
        reg.gauge(
            "shard.statements_total",
            lambda: sum(s.stats.statements for s in self.shards),
        )
        for index, shard in enumerate(self.shards):
            reg.gauge(
                f"shard.s{index}.rows", lambda s=shard: s.total_rows()
            )
            reg.gauge(
                f"shard.s{index}.statements", lambda s=shard: s.stats.statements
            )

    def metrics(self) -> dict[str, Any]:
        return self.obs.snapshot()


class _ShardedTransaction:
    def __init__(self, sdb: ShardedDatabase) -> None:
        self._sdb = sdb

    def __enter__(self) -> ShardedDatabase:
        self._sdb.begin()
        return self._sdb

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._sdb.commit()
        else:
            self._sdb.rollback()
        return False


# -- construction ------------------------------------------------------------------


def shard_database(
    db: Database,
    n_shards: int,
    map_path: str | Path | None = None,
    user_table: str = "users",
    shard_map: ShardMap | None = None,
) -> ShardedDatabase:
    """Partition an existing :class:`Database` into N owner-hash shards.

    Placement is deterministic (sha256 owner tokens + the persisted shard
    map), so partitioning the same snapshot with the same map always
    produces the same layout — per-shard WAL replay depends on this.
    System tables land on shard 0; global tables are copied to every
    shard; owner-anchored rows go to their owner's home (NULL anchors to
    shard 0); indirect tables follow their parent row's shard.
    """
    source_schema = db.schema
    if shard_map is None:
        shard_map = ShardMap.open(map_path, n_shards)
    elif map_path is not None and shard_map.path is None:
        shard_map.path = Path(map_path)
    if shard_map.n_shards != n_shards:
        raise ShardError(
            f"shard map is for {shard_map.n_shards} shard(s), requested {n_shards}"
        )
    shards = []
    for index in range(n_shards):
        schema = Schema()
        for ts in source_schema:
            if ts.name.startswith("_") and index > 0:
                continue
            schema.add(ts)
        shards.append(Database(schema))
    router = Router(shards[0].schema, shard_map, user_table)
    sdb = ShardedDatabase(shards, router)
    sdb._id_watermark.update(db._id_watermark)

    # Copy rows, parents before children so indirect placement can look
    # up where each parent row landed.
    placed: dict[str, dict[Any, int]] = {}
    rank = source_schema.topological_order()
    for ts in sorted(source_schema, key=lambda ts: rank[ts.name]):
        placement = router.placement(ts.name)
        rows = [dict(row) for row in db.table(ts.name).rows()]
        if placement.kind == GLOBAL:
            for shard in shards:
                if rows:
                    shard.table(ts.name).insert_rows(rows)
            continue
        groups: dict[int, list[dict[str, Any]]] = {}
        track = placement.kind in (ROOT, DIRECT)
        table_placed = placed.setdefault(ts.name, {})
        for row in rows:
            if placement.kind == SYSTEM:
                target = 0
            elif placement.kind == ROOT:
                target = shard_map.shard_of(row[ts.primary_key])
            elif placement.kind == DIRECT:
                anchor_value = row[placement.anchor]
                target = 0 if anchor_value is None else shard_map.shard_of(anchor_value)
            else:  # INDIRECT: follow the parent row's shard
                parent_value = row[placement.parent_column]
                target = placed.get(placement.parent_table, {}).get(parent_value, 0)
            groups.setdefault(target, []).append(row)
            if track or placement.kind == INDIRECT:
                table_placed[row[ts.primary_key]] = target
        for target, group in groups.items():
            shards[target].table(ts.name).insert_rows(group)
    return sdb


def collapse(sdb: ShardedDatabase) -> Database:
    """Fold a sharded database back into one monolithic :class:`Database`."""
    schema = Schema()
    for ts in sdb.schema:
        schema.add(ts)
    merged = Database(schema)
    rank = sdb.schema.topological_order()
    for ts in sorted(sdb.schema, key=lambda ts: rank[ts.name]):
        rows = [dict(row) for row in sdb.table(ts.name).rows()]
        if rows:
            merged.table(ts.name).insert_rows(rows)
    watermarks = dict(sdb._id_watermark)
    for shard in sdb.shards:
        for table, top in shard._id_watermark.items():
            if top > watermarks.get(table, 0):
                watermarks[table] = top
    merged._id_watermark.update(watermarks)
    return merged
