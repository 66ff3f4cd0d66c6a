"""Incremental per-table / per-column statistics for cost-based planning.

The structural planner (PR 1) ranks access paths by *shape* — an equality
probe always beats a range probe — which misorders plans as soon as data
skews: an equality probe on a two-valued column examines half the table,
while a range probe on a near-unique column examines a handful of rows.
This module gives the planner numbers instead of shapes:

* **row count** — exact, maintained on insert/delete;
* **NULL count** per column — exact, maintained incrementally;
* **distinct count** per column — a KMV (k-minimum-values) sketch:
  remember the *k* smallest 64-bit hashes seen; if fewer than *k* values
  have been seen the count is exact, otherwise the k-th smallest hash
  estimates density (``(k-1) * 2^64 / kth_min``). O(k) memory per column,
  O(log k) per insert, no dependence on value sizes;
* **min / max** per column — exact under inserts; deleting an extremum
  marks the pair dirty and the next reader rescans lazily (deletes of
  extrema are rare; scanning on every delete would be quadratic).

Everything here is *advisory*: a wrong estimate can only produce a slower
plan, never a wrong result, because every access path yields a superset of
matching rows that the predicate then filters. That tolerance is what
makes the thread-safety story cheap (see PR 4's multi-worker executor):
mutators hold the table's write path exclusively already, and concurrent
readers of the counters see torn-but-plausible values at worst — every
read here is a single GIL-atomic dict/int/attribute access, so no lock is
taken on the read path.

Sketches never shrink on delete (KMV is insert-only); :meth:`refresh`
rebuilds statistics from live rows, and tables call it automatically when
enough deletes have accumulated to skew estimates.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Mapping

__all__ = ["ColumnStats", "TableStatistics", "DEFERRED", "KMV_K"]

KMV_K = 64

# 64-bit Fibonacci-style multiplicative mixer: Python's hash() of small
# ints is the int itself, which would make the "k minimum hashes" of a
# dense id column simply 0..k-1 and wildly bias the estimate upward.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# Deletes tolerated before a table rebuilds its sketches from live rows.
_REFRESH_DELETES = 4096


class _KMV:
    """k-minimum-values distinct-count sketch."""

    __slots__ = ("_members", "_heap", "_k")

    def __init__(self, k: int = KMV_K) -> None:
        self._k = k
        self._members: set[int] = set()   # hashes currently kept
        self._heap: list[int] = []        # negated hashes: max-heap of kept set

    def add(self, value: Any) -> None:
        try:
            h = (hash(value) * _MIX) & _MASK
        except TypeError:
            return  # unhashable values are invisible to the sketch
        if h in self._members:
            return
        if len(self._members) < self._k:
            self._members.add(h)
            heapq.heappush(self._heap, -h)
        elif h < -self._heap[0]:
            self._members.discard(-heapq.heapreplace(self._heap, -h))
            self._members.add(h)

    def estimate(self) -> int:
        n = len(self._members)
        if n < self._k:
            return n  # exact: we have seen every distinct hash
        kth_min = -self._heap[0]
        if kth_min == 0:
            return n
        return max(n, int((self._k - 1) * (1 << 64) / kth_min))


class ColumnStats:
    """Incremental statistics for one column."""

    __slots__ = ("nulls", "_sketch", "_min", "_max", "_dirty", "_orderable")

    def __init__(self) -> None:
        self.nulls = 0
        self._sketch = _KMV()
        self._min: Any = None
        self._max: Any = None
        self._dirty = False      # an extremum was deleted; min/max stale
        self._orderable = True   # set False once a value defeats < / >

    def on_insert(self, value: Any) -> None:
        if value is None:
            self.nulls += 1
            return
        self._sketch.add(value)
        if not self._orderable:
            return
        try:
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
        except TypeError:
            # Mixed/unorderable values (e.g. bytes vs str after evolve):
            # stop tracking bounds for this column.
            self._orderable = False
            self._min = self._max = None

    def on_delete(self, value: Any) -> None:
        if value is None:
            self.nulls -= 1
            return
        # The sketch cannot forget; bounds go lazy if an extremum leaves.
        if self._orderable and (value == self._min or value == self._max):
            self._dirty = True

    def distinct(self) -> int:
        return self._sketch.estimate()

    def bounds(self) -> tuple[Any, Any] | None:
        """(min, max) over non-NULL values, or None when unknown/stale."""
        if self._dirty or not self._orderable or self._min is None:
            return None
        return self._min, self._max


class TableStatistics:
    """Statistics for one table, updated by every mutation.

    The owning :class:`~repro.storage.table.Table` calls the ``on_*``
    hooks from its insert/delete/update paths; the planner reads through
    :meth:`distinct_estimate` / :meth:`null_count` / :meth:`min_max`.
    """

    __slots__ = ("row_count", "_columns", "_deletes_since_refresh")

    def __init__(self, columns: Iterable[str]) -> None:
        self.row_count = 0
        self._columns: dict[str, ColumnStats] = {c: ColumnStats() for c in columns}
        self._deletes_since_refresh = 0

    # -- mutation hooks -----------------------------------------------------

    def on_insert(self, row: Mapping[str, Any]) -> None:
        self.row_count += 1
        for name, stats in self._columns.items():
            stats.on_insert(row.get(name))

    def on_delete(self, row: Mapping[str, Any]) -> None:
        self.row_count -= 1
        self._deletes_since_refresh += 1
        for name, stats in self._columns.items():
            stats.on_delete(row.get(name))

    def on_update(self, old: Mapping[str, Any], new: Mapping[str, Any]) -> None:
        for name, stats in self._columns.items():
            before, after = old.get(name), new.get(name)
            if before == after and type(before) is type(after):
                continue
            stats.on_delete(before)
            stats.on_insert(after)

    def on_update_deltas(self, changes: Iterable[tuple[str, Any, Any]]) -> None:
        """Batched delta form of :meth:`on_update`.

        Takes ``(column, before, after)`` triples for values that actually
        changed — the same deltas the batched write path already computed
        for undo and index maintenance — so a whole statement updates the
        sketches without re-diffing old/new row pairs. Duplicate triples
        (a constant UPDATE over N rows produces N identical ones) are
        collapsed first: the sketch and min/max hooks are value-idempotent,
        so only the NULL counters need the multiplicity.
        """
        columns = self._columns
        if not isinstance(changes, list):
            changes = list(changes)
        counts: dict[tuple[str, Any, Any], int] = {}
        try:
            for triple in changes:
                counts[triple] = counts.get(triple, 0) + 1
        except TypeError:  # an unhashable value: take the per-triple path
            for name, before, after in changes:
                stats = columns.get(name)
                if stats is not None:
                    stats.on_delete(before)
                    stats.on_insert(after)
            return
        for (name, before, after), count in counts.items():
            stats = columns.get(name)
            if stats is None:
                continue
            stats.on_delete(before)
            stats.on_insert(after)
            if count > 1:
                if before is None:
                    stats.nulls -= count - 1
                if after is None:
                    stats.nulls += count - 1

    def needs_refresh(self) -> bool:
        return self._deletes_since_refresh >= _REFRESH_DELETES

    def refresh(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Rebuild all statistics from live rows (ANALYZE)."""
        fresh = TableStatistics(self._columns.keys())
        for row in rows:
            fresh.on_insert(row)
        # Swap wholesale so concurrent readers see either old or new stats.
        self.row_count = fresh.row_count
        self._columns = fresh._columns
        self._deletes_since_refresh = 0

    # -- planner reads ------------------------------------------------------

    def distinct_estimate(self, column: str) -> int | None:
        stats = self._columns.get(column)
        if stats is None:
            return None
        return max(1, stats.distinct())

    def null_count(self, column: str) -> int | None:
        stats = self._columns.get(column)
        return None if stats is None else max(0, stats.nulls)

    def min_max(self, column: str) -> tuple[Any, Any] | None:
        stats = self._columns.get(column)
        return None if stats is None else stats.bounds()


class _Deferred:
    """Mutation hooks that do nothing, for a bulk load (WAL replay) whose
    tables rebuild their statistics once at the end instead of per row
    (:meth:`repro.storage.table.Table.rebuild_statistics`)."""

    __slots__ = ()

    def on_insert(self, row: Mapping[str, Any]) -> None:
        pass

    on_delete = on_insert

    def on_update(self, old: Any, new: Any) -> None:
        pass

    def on_update_deltas(self, changes: Any) -> None:
        pass


DEFERRED = _Deferred()
