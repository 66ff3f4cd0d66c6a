"""Row storage for a single table, with automatic index maintenance.

Rows are stored as dicts keyed by an internal row id (rid). The table keeps
a unique index on the primary key, a non-unique index on every foreign-key
column, and any explicitly created secondary indexes. All mutation goes
through :class:`Table` so indexes never go stale.

Read paths (:meth:`scan`, :meth:`rows`, :meth:`referencing_rows`) return
:class:`RowView` objects — immutable, copy-on-demand views over the stored
dicts — instead of eagerly copying every row. This is safe because stored
row dicts are never mutated in place: updates swap in a freshly normalized
dict and deletes pop, so a view taken before a mutation keeps observing the
pre-mutation snapshot. Mutation entry points still return plain dict copies
that callers may edit freely.

Row selection is planned: :mod:`repro.storage.planner` extracts an
index-usable access path (equality, IN-list, OR-union, range) from the
predicate, and the table executes it against its hash indexes, falling back
to a full scan only when no path exists.

The table itself knows nothing about foreign-key *enforcement* — that is
the :class:`repro.storage.database.Database`'s job, since it requires
looking at other tables.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping as _MappingABC
from time import perf_counter as _perf_counter
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import (
    ConstraintError,
    NoSuchRowError,
    SchemaError,
    UnknownColumnError,
)
from repro.obs.report import PlanNode, PlanReport
from repro.storage.compile import PlanCache, PlanEntry, compile_predicate
from repro.storage.index import HashIndex, UniqueIndex
from repro.storage.planner import (
    AccessPath,
    EmptyPath,
    EqProbe,
    MultiProbe,
    RangeProbe,
    UnionPath,
    bind_path,
    choose_path,
    extract_template,
)
from repro.storage.predicate import Predicate, TrueP
from repro.storage.schema import TableSchema
from repro.storage.stats import TableStatistics
from repro.storage.types import coerce

__all__ = ["Table", "RowView"]

_UNSET = object()


class RowView(_MappingABC):
    """Read-only, copy-on-demand view of a stored row.

    Behaves like a mapping for reads and compares equal to plain dicts with
    the same items; call ``dict(view)`` (or :meth:`copy`) to materialize a
    mutable copy. Attempting item assignment raises ``TypeError``.
    """

    __slots__ = ("_row",)

    def __init__(self, row: dict[str, Any]) -> None:
        self._row = row

    def __getitem__(self, key: str) -> Any:
        return self._row[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, key: object) -> bool:
        return key in self._row

    def get(self, key: str, default: Any = None) -> Any:
        return self._row.get(key, default)

    def keys(self):
        return self._row.keys()

    def items(self):
        return self._row.items()

    def values(self):
        return self._row.values()

    def copy(self) -> dict[str, Any]:
        return dict(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowView({self._row!r})"


class Table:
    """In-memory storage of one table's rows."""

    def __init__(self, schema: TableSchema, plans: PlanCache | None = None) -> None:
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_rid = 1
        self._pk_index = UniqueIndex(schema.primary_key)
        self._secondary: dict[str, HashIndex] = {}
        for fk in schema.foreign_keys:
            self._secondary[fk.column] = HashIndex(fk.column)
        # Plan cache: standalone tables own a private one; tables inside a
        # Database share the database's so DDL anywhere invalidates all.
        self._plans = plans if plans is not None else PlanCache()
        # Incremental statistics feeding the cost-based planner.
        self.statistics = TableStatistics(col.name for col in schema.columns)
        # Cached largest primary key (satellite: O(1) id allocation).
        # _UNSET means "unknown, recompute on demand".
        self._max_pk: Any = None
        # Diagnostics: cumulative candidate rows tested by scan(), the
        # access path of the most recent scan, and its cost estimate
        # (benchmarks and EXPLAIN read these).
        self.rows_examined = 0
        self.last_plan = "none"
        self.last_estimate = 0.0
        # rows_examined is bumped once per statement but read-modify-write
        # is not atomic: concurrent shared-lock readers would lose
        # increments without this mutex. last_plan/last_estimate stay
        # unguarded — "most recent" is inherently racy and they are only
        # read single-threaded by tests and EXPLAIN.
        self._diag_mu = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[RowView]:
        """Iterate over read-only views of all rows."""
        for row in self._rows.values():
            yield RowView(row)

    def rids(self) -> list[int]:
        return list(self._rows)

    def row_by_rid(self, rid: int) -> dict[str, Any]:
        try:
            return dict(self._rows[rid])
        except KeyError:
            raise NoSuchRowError(f"{self.name}: no row with rid {rid}") from None

    def has_indexed(self, column: str) -> bool:
        return column == self.schema.primary_key or column in self._secondary

    def create_index(self, column: str) -> None:
        """Create (or no-op if present) a secondary index on *column*."""
        self.schema.column(column)  # raises UnknownColumnError if absent
        if column == self.schema.primary_key or column in self._secondary:
            return
        index = HashIndex(column)
        for rid, row in self._rows.items():
            index.insert(row[column], rid)
        self._secondary[column] = index
        # Cached plans were extracted without this index: invalidate so the
        # next scan can plan a probe against it.
        self._plans.bump()

    def drop_index(self, column: str) -> None:
        if self._secondary.pop(column, None) is not None:
            # Cached plans may probe the dropped index: invalidate before
            # any scan can execute a stale access path.
            self._plans.bump()

    # -- lookups ---------------------------------------------------------------

    def get(self, pk_value: Any) -> dict[str, Any] | None:
        """Fetch the row whose primary key equals *pk_value*, or None.

        Returns a mutable copy; use :meth:`view` on hot read paths.
        """
        rid = self._pk_index.lookup(pk_value)
        if rid is None:
            return None
        return dict(self._rows[rid])

    def view(self, pk_value: Any) -> RowView | None:
        """Read-only view of the row with primary key *pk_value*, or None."""
        rid = self._pk_index.lookup(pk_value)
        if rid is None:
            return None
        return RowView(self._rows[rid])

    def rid_of(self, pk_value: Any) -> int | None:
        return self._pk_index.lookup(pk_value)

    def scan(
        self,
        predicate: Predicate | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> list[RowView]:
        """All rows satisfying *predicate* (all rows if None), as views.

        Uses an index-planned access path (equality, IN, OR-union, range)
        chosen by estimated rows examined when the predicate allows;
        otherwise falls back to a full scan. Rows are filtered by the
        predicate's compiled form (see :mod:`repro.storage.compile`); plan
        and compilation are cached per (table, predicate) across calls.
        """
        pred = predicate if predicate is not None else TrueP()
        bound = params or {}
        if isinstance(pred, TrueP):
            self.last_plan = "full"
            self.last_estimate = float(len(self._rows))
            with self._diag_mu:
                self.rows_examined += len(self._rows)
            return [RowView(row) for row in self._rows.values()]
        entry = self._plan_entry(pred)
        rids = self._candidate_rids(entry, bound)
        with self._diag_mu:
            self.rows_examined += len(rids)
        compiled = entry.compiled
        if compiled is None:
            out = []
            for rid in rids:
                row = self._rows[rid]
                if pred.test(row, bound):
                    out.append(RowView(row))
            return out
        match = compiled.bind(bound)
        out = []
        for rid in rids:
            row = self._rows[rid]
            if match(row) is True:
                out.append(RowView(row))
        return out

    def count(self, predicate: Predicate | None = None,
              params: Mapping[str, Any] | None = None) -> int:
        return len(self.scan(predicate, params))

    def match_rows(
        self,
        predicate: Predicate | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> list[tuple[int, Mapping[str, Any]]]:
        """Matching ``(rid, stored row)`` pairs for the batched write path.

        Same planning, compiled filtering, and ``rows_examined`` accounting
        as :meth:`scan`, but skips the per-row :class:`RowView` allocation
        and hands back the stored dicts directly. Callers treat the dicts
        as read-only snapshots (they are swapped out, never mutated) and
        key their work by rid, avoiding a pk->rid re-lookup per row.
        """
        pred = predicate if predicate is not None else TrueP()
        bound = params or {}
        rows = self._rows
        if isinstance(pred, TrueP):
            self.last_plan = "full"
            self.last_estimate = float(len(rows))
            with self._diag_mu:
                self.rows_examined += len(rows)
            return list(rows.items())
        entry = self._plan_entry(pred)
        rids = self._candidate_rids(entry, bound)
        with self._diag_mu:
            self.rows_examined += len(rids)
        compiled = entry.compiled
        if compiled is None:
            return [(rid, rows[rid]) for rid in rids if pred.test(rows[rid], bound)]
        match = compiled.bind(bound)
        return [(rid, rows[rid]) for rid in rids if match(rows[rid]) is True]

    def _plan_entry(self, pred: Predicate) -> PlanEntry:
        """The cached (template, compiled predicate) for *pred*.

        Misses extract the access-path template and compile the predicate,
        then store both stamped with the current schema generation.
        """
        entry = self._plans.lookup(self.name, pred)
        if entry is None:
            template = extract_template(pred, self.has_indexed)
            compiled = compile_predicate(pred)
            entry = self._plans.store(self.name, pred, template, compiled)
        return entry

    def _candidate_rids(self, entry: PlanEntry, params: Mapping[str, Any]) -> list[int]:
        """Row ids to test, narrowed by index when the plan allows."""
        if self.statistics.needs_refresh():
            self.statistics.refresh(self._rows.values())
        path = None
        if entry.template is not None:
            path = bind_path(entry.template, params)
        path, estimate = choose_path(path, self)
        self.last_estimate = estimate
        if path is None:
            self.last_plan = "full"
            return list(self._rows)
        rids = self._execute_path(path)
        if rids is None:
            self.last_plan = "full"
            return list(self._rows)
        self.last_plan = path.describe()
        return rids

    def _execute_path(self, path: AccessPath) -> list[int] | None:
        """Candidate rids for *path*, or None to force a full scan."""
        if isinstance(path, EmptyPath):
            return []
        if isinstance(path, EqProbe):
            if path.column == self.schema.primary_key:
                rid = self._pk_index.lookup(path.value)
                return [] if rid is None else [rid]
            index = self._secondary.get(path.column)
            if index is None:
                return None
            return sorted(index.lookup(path.value))
        if isinstance(path, MultiProbe):
            if path.column == self.schema.primary_key:
                rids = {
                    rid
                    for rid in (self._pk_index.lookup(v) for v in path.values)
                    if rid is not None
                }
                return sorted(rids)
            index = self._secondary.get(path.column)
            if index is None:
                return None
            rids = set()
            for value in path.values:
                rids |= index.lookup(value)
            return sorted(rids)
        if isinstance(path, RangeProbe):
            if path.column == self.schema.primary_key:
                index: UniqueIndex | HashIndex = self._pk_index
            else:
                secondary = self._secondary.get(path.column)
                if secondary is None:
                    return None
                index = secondary
            rids = index.range_rids(path.lo, path.hi, path.lo_incl, path.hi_incl)
            return None if rids is None else sorted(rids)
        if isinstance(path, UnionPath):
            out: set[int] = set()
            for arm in path.paths:
                rids = self._execute_path(arm)
                if rids is None:
                    return None
                out.update(rids)
            return sorted(out)
        return None

    # -- statistics & EXPLAIN ----------------------------------------------------

    def rebuild_statistics(self) -> None:
        """Recompute the planner statistics from the live rows in one pass.

        Bulk loaders (WAL replay) install :data:`~repro.storage.stats.DEFERRED`
        as ``statistics`` while they mutate, then call this once."""
        stats = TableStatistics(col.name for col in self.schema.columns)
        for row in self._rows.values():
            stats.on_insert(row)
        self.statistics = stats

    def stat_row_count(self) -> int:
        return len(self._rows)

    def stat_distinct(self, column: str) -> int | None:
        """Distinct values in *column*: exact from an index, else sketched."""
        if column == self.schema.primary_key:
            return self._pk_index.distinct()
        index = self._secondary.get(column)
        if index is not None:
            return index.distinct()
        return self.statistics.distinct_estimate(column)

    def stat_null_count(self, column: str) -> int:
        nulls = self.statistics.null_count(column)
        return 0 if nulls is None else nulls

    def stat_min_max(self, column: str) -> tuple[Any, Any] | None:
        if column == self.schema.primary_key:
            return self._pk_index.key_bounds()
        index = self._secondary.get(column)
        if index is not None:
            return index.key_bounds()
        return self.statistics.min_max(column)

    def explain(
        self,
        predicate: Predicate | None = None,
        params: Mapping[str, Any] | None = None,
        analyze: bool = False,
    ) -> PlanReport:
        """EXPLAIN for a scan; ``analyze=True`` executes it too.

        Returns a :class:`~repro.obs.report.PlanReport`: ``plan`` (the
        access-path description a scan would record in ``last_plan``),
        ``estimated_rows`` (the cost model's guess at rows examined),
        ``table_rows``, whether the predicate has a ``compiled`` form,
        whether the plan was already ``cached``, and the schema
        ``generation`` the plan is stamped with. ANALYZE runs the same
        access-path + compiled-filter pipeline a :meth:`scan` would,
        filling ``actual_rows`` / ``rows_examined`` / ``cache_hit`` /
        ``wall_time_s`` and a per-node breakdown (probe, then filter) —
        the examined count advances ``rows_examined`` exactly as the
        equivalent scan would, so EXPLAIN ANALYZE actuals and scan stats
        deltas agree by construction.
        """
        pred = predicate if predicate is not None else TrueP()
        bound = params or {}
        rows = len(self._rows)
        if isinstance(pred, TrueP):
            report = PlanReport(
                table=self.name, plan="full", estimated_rows=float(rows),
                table_rows=rows, compiled=False, cached=False,
                generation=self._plans.generation,
            )
            if analyze:
                start = _perf_counter()
                with self._diag_mu:
                    self.rows_examined += rows
                report.analyzed = True
                report.cache_hit = False
                report.rows_examined = rows
                report.actual_rows = rows
                report.wall_time_s = _perf_counter() - start
                report.nodes = [
                    PlanNode("seq scan", rows, report.wall_time_s)
                ]
            return report
        cached = self._plans.lookup(self.name, pred)
        entry = cached if cached is not None else self._plan_entry(pred)
        path = None
        if entry.template is not None:
            path = bind_path(entry.template, bound)
        path, estimate = choose_path(path, self)
        report = PlanReport(
            table=self.name,
            plan="full" if path is None else path.describe(),
            estimated_rows=estimate,
            table_rows=rows,
            compiled=entry.compiled is not None,
            cached=cached is not None,
            generation=self._plans.generation,
        )
        if not analyze:
            return report
        # Execute exactly what scan() executes — same plan-entry lookup
        # (so the cache-hit bit reflects this execution), same candidate
        # resolution, same compiled-vs-interpreted filter — timing the
        # probe and filter stages separately.
        start = _perf_counter()
        rids = self._candidate_rids(entry, bound)
        with self._diag_mu:
            self.rows_examined += len(rids)
        probe_s = _perf_counter() - start
        filter_start = _perf_counter()
        compiled = entry.compiled
        if compiled is None:
            matched = sum(
                1 for rid in rids if pred.test(self._rows[rid], bound)
            )
        else:
            match = compiled.bind(bound)
            matched = sum(1 for rid in rids if match(self._rows[rid]) is True)
        filter_s = _perf_counter() - filter_start
        report.analyzed = True
        report.cache_hit = cached is not None
        report.rows_examined = len(rids)
        report.actual_rows = matched
        report.wall_time_s = probe_s + filter_s
        report.nodes = [
            PlanNode(self.last_plan if self.last_plan != "full" else "seq scan",
                     len(rids), probe_s),
            PlanNode("filter" + (" [compiled]" if compiled is not None else ""),
                     matched, filter_s),
        ]
        return report

    # -- mutation ---------------------------------------------------------------

    def _note_inserted_pk(self, pk: Any) -> None:
        if self._max_pk is _UNSET:
            return
        if self._max_pk is None:
            self._max_pk = pk
            return
        try:
            if pk is not None and pk > self._max_pk:
                self._max_pk = pk
        except TypeError:
            self._max_pk = _UNSET

    def _note_removed_pk(self, pk: Any) -> None:
        if self._max_pk is not _UNSET and pk == self._max_pk:
            self._max_pk = _UNSET

    def insert(self, values: dict[str, Any]) -> dict[str, Any]:
        """Insert a row (validated against the schema); returns the stored row."""
        row = self.schema.normalize_row(values)
        pk = row[self.schema.primary_key]
        if pk in self._pk_index:
            raise ConstraintError(
                f"{self.name}: duplicate primary key {pk!r}"
            )
        rid = self._next_rid
        self._next_rid += 1
        self._rows[rid] = row
        self._pk_index.insert(pk, rid)
        for column, index in self._secondary.items():
            index.insert(row[column], rid)
        self._note_inserted_pk(pk)
        self.statistics.on_insert(row)
        return dict(row)

    def insert_rows(self, values_list: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
        """Insert many rows as one batch; returns stored copies.

        All rows are validated (schema + duplicate primary keys, including
        duplicates within the batch) before any row is stored, so a failure
        leaves the table untouched.
        """
        pk_col = self.schema.primary_key
        normalized: list[dict[str, Any]] = []
        batch_pks: set[Any] = set()
        for values in values_list:
            row = self.schema.normalize_row(values)
            pk = row[pk_col]
            if pk in self._pk_index or pk in batch_pks:
                raise ConstraintError(f"{self.name}: duplicate primary key {pk!r}")
            batch_pks.add(pk)
            normalized.append(row)
        for row in normalized:
            rid = self._next_rid
            self._next_rid += 1
            self._rows[rid] = row
            self._pk_index.insert(row[pk_col], rid)
            for column, index in self._secondary.items():
                index.insert(row[column], rid)
            self._note_inserted_pk(row[pk_col])
            self.statistics.on_insert(row)
        return [dict(row) for row in normalized]

    def delete_by_pk(self, pk_value: Any) -> dict[str, Any]:
        """Delete the row with primary key *pk_value*; returns the old row."""
        rid = self._pk_index.lookup(pk_value)
        if rid is None:
            raise NoSuchRowError(f"{self.name}: no row with {self.schema.primary_key}={pk_value!r}")
        row = self._rows.pop(rid)
        self._pk_index.remove(pk_value, rid)
        for column, index in self._secondary.items():
            index.remove(row[column], rid)
        self._note_removed_pk(pk_value)
        self.statistics.on_delete(row)
        return row

    def delete_pks(self, pk_values: Iterable[Any]) -> list[dict[str, Any]]:
        """Delete many rows by primary key as one batch; returns old rows.

        Every key must exist (checked up front, so a failure mutates
        nothing). Routed through :meth:`apply_deletes` for grouped index
        maintenance.
        """
        rids = []
        for pk_value in pk_values:
            rid = self._pk_index.lookup(pk_value)
            if rid is None:
                raise NoSuchRowError(
                    f"{self.name}: no row with {self.schema.primary_key}={pk_value!r}"
                )
            rids.append(rid)
        return self.apply_deletes(rids)

    def apply_deletes(self, rids: Iterable[int]) -> list[dict[str, Any]]:
        """Delete rows by rid as one batch; returns the popped rows.

        Duplicate rids collapse; every rid must exist (checked up front, so
        a failure mutates nothing). Per-index removal pairs are collected
        across the whole batch and patched with one :meth:`HashIndex.apply_batch`
        call per index instead of a remove per row per index.
        """
        rid_list = list(dict.fromkeys(rids))
        rows = self._rows
        for rid in rid_list:
            if rid not in rows:
                raise NoSuchRowError(f"{self.name}: no row with rid {rid}")
        pk_col = self.schema.primary_key
        patches: dict[str, list[tuple[Any, int]]] = {c: [] for c in self._secondary}
        stats = self.statistics
        out = []
        for rid in rid_list:
            row = rows.pop(rid)
            pk = row[pk_col]
            self._pk_index.remove(pk, rid)
            for column, pairs in patches.items():
                pairs.append((row[column], rid))
            self._note_removed_pk(pk)
            stats.on_delete(row)
            out.append(row)
        for column, pairs in patches.items():
            if pairs:
                self._secondary[column].apply_batch(pairs, ())
        return out

    def coerce_changes(self, changes: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and coerce a change mapping once, without a target row.

        Shared by the batched update paths so a constant change set applied
        to N rows is validated once, not N times. Primary-key changes are
        the caller's problem — the batch entry points fall back to the
        per-row path before coming here.
        """
        out: dict[str, Any] = {}
        for column, value in changes.items():
            if not self.schema.has_column(column):
                raise UnknownColumnError(
                    f"table {self.name!r} has no column {column!r}"
                )
            col = self.schema.column(column)
            coerced = coerce(value, col.ctype) if value is not None else None
            if coerced is None and not col.nullable:
                raise SchemaError(
                    f"column {self.name}.{column} is NOT NULL but got NULL"
                )
            out[column] = coerced
        return out

    def apply_updates(
        self, deltas: Iterable[tuple[int, Mapping[str, Any]]]
    ) -> list[tuple[int, dict[str, Any], dict[str, Any]]]:
        """Apply pre-coerced column deltas keyed by rid, as one batch.

        The core of the delta write path. Values must already be validated
        and coerced (see :meth:`coerce_changes`); changing a primary key is
        rejected. Columns whose stored value would not actually change are
        dropped from the delta, so the returned
        ``(rid, old_delta, new_delta)`` triples carry exactly the changed
        columns — ``old_delta`` is the inverse record (re-applying the
        triples in reverse order restores the pre-batch rows). Per-index
        add/remove pairs are collected across the whole batch and patched
        with one call per index, and statistics consume the same deltas.

        Deltas are applied in order: a later delta for the same rid
        observes the earlier one. The whole batch is staged before any
        stored state changes, so a failure partway through (missing rid,
        unknown column, pk change) mutates nothing — statement atomicity
        without a transaction. Stored dicts are swapped, never mutated,
        preserving the :class:`RowView` snapshot contract.
        """
        rows = self._rows
        pk_col = self.schema.primary_key
        secondary = self._secondary
        # (column, rid) -> [value to un-index, value to index]; coalesced so
        # two deltas touching the same row's column net out to one patch.
        patch_map: dict[tuple[str, int], list[Any]] = {}
        stat_changes: list[tuple[str, Any, Any]] = []
        staged: dict[int, dict[str, Any]] = {}  # rid -> replacement row
        out: list[tuple[int, dict[str, Any], dict[str, Any]]] = []
        for rid, delta in deltas:
            old = staged.get(rid)
            if old is None:
                old = rows.get(rid)
                if old is None:
                    raise NoSuchRowError(f"{self.name}: no row with rid {rid}")
            inverse: dict[str, Any] = {}
            effective: dict[str, Any] = {}
            for column, value in delta.items():
                try:
                    before = old[column]
                except KeyError:
                    raise UnknownColumnError(
                        f"table {self.name!r} has no column {column!r}"
                    ) from None
                if before is value or (before == value and type(before) is type(value)):
                    continue
                if column == pk_col:
                    raise ConstraintError(
                        f"{self.name}: apply_updates cannot change primary keys"
                    )
                inverse[column] = before
                effective[column] = value
            if effective:
                new = dict(old)
                new.update(effective)
                staged[rid] = new
                for column, value in effective.items():
                    if column in secondary:
                        patch = patch_map.setdefault((column, rid), [old[column], None])
                        patch[1] = value
                    stat_changes.append((column, old[column], value))
            out.append((rid, inverse, effective))
        rows.update(staged)
        index_patches: dict[str, tuple[list, list]] = {}
        for (column, rid), (first, last) in patch_map.items():
            removes, inserts = index_patches.setdefault(column, ([], []))
            removes.append((first, rid))
            inserts.append((last, rid))
        for column, (removes, inserts) in index_patches.items():
            secondary[column].apply_batch(removes, inserts)
        if stat_changes:
            self.statistics.on_update_deltas(stat_changes)
        return out

    def update_by_pk(self, pk_value: Any, changes: Mapping[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
        """Apply *changes* to the row with primary key *pk_value*.

        Returns ``(old_row, new_row)`` copies. Changing the primary key is
        allowed (placeholder renumbering needs it) and keeps indexes
        consistent.
        """
        rid = self._pk_index.lookup(pk_value)
        if rid is None:
            raise NoSuchRowError(f"{self.name}: no row with {self.schema.primary_key}={pk_value!r}")
        old = self._rows[rid]
        merged = dict(old)
        for column, value in changes.items():
            if not self.schema.has_column(column):
                raise UnknownColumnError(f"table {self.name!r} has no column {column!r}")
            merged[column] = value
        new = self.schema.normalize_row(merged)
        new_pk = new[self.schema.primary_key]
        if new_pk != pk_value and new_pk in self._pk_index:
            raise ConstraintError(f"{self.name}: duplicate primary key {new_pk!r}")
        # Re-index: remove old entries, store, insert new entries.
        self._pk_index.remove(pk_value, rid)
        for column, index in self._secondary.items():
            index.remove(old[column], rid)
        self._rows[rid] = new
        self._pk_index.insert(new_pk, rid)
        for column, index in self._secondary.items():
            index.insert(new[column], rid)
        if new_pk != pk_value:
            self._note_removed_pk(pk_value)
        self._note_inserted_pk(new_pk)
        self.statistics.on_update(old, new)
        return dict(old), dict(new)

    def referencing_rows(
        self, fk_column: str, value: Any, sort: bool = True
    ) -> list[RowView]:
        """Rows whose *fk_column* equals *value* (index-accelerated).

        ``sort=False`` skips the deterministic rid ordering — internal
        callers that only need membership or iterate order-insensitively
        use it to avoid the per-call sort.
        """
        index = self._secondary.get(fk_column)
        if index is not None:
            rids = index.lookup(value)
            ordered = sorted(rids) if sort else rids
            return [RowView(self._rows[rid]) for rid in ordered]
        return [
            RowView(row) for row in self._rows.values() if row[fk_column] == value
        ]

    def max_pk(self) -> Any:
        """Largest primary-key value, or None if empty (for id allocation).

        O(1) in the common case: a cached high-water mark is maintained on
        insert/update and only invalidated when the current maximum is
        deleted, forcing one recompute over the pk index keys.
        """
        if self._max_pk is _UNSET:
            best = None
            for pk in self._pk_index._slots:
                if best is None or (pk is not None and pk > best):
                    best = pk
            self._max_pk = best
        return self._max_pk
