"""Metrics registry: counters, gauges, histograms under dotted names.

Before this layer, every subsystem grew its own ad-hoc counters —
``Database.stats`` (a :class:`~repro.storage.database.QueryStats`),
``Server.metrics()`` (a hand-built dict), the WAL's ``syncs`` /
``bytes_written`` attributes, the lock manager's ``LockStats``, and the
vault stores' ``VaultStats`` plus the file vault's fsync tallies. The
registry unifies them under one naming scheme without moving the hot-path
accumulation: subsystems keep bumping their plain attributes (free, as
ever) and register **gauges** that read those attributes lazily, so a
registry snapshot is always a view over live state, never a second copy
that can drift or double-count.

Naming scheme (stable, dotted, lowercase): ``<subsystem>.<metric>`` —
``storage.selects``, ``storage.rows_examined``, ``plancache.hits``,
``wal.fsyncs``, ``vault.journal_appends``, ``service.lock_wait_s``.
Histogram snapshots expand to ``<name>.count`` / ``.sum`` / ``.p50`` /
``.p95`` / ``.p99``.

Thread-safety: every instrument takes a narrow per-instrument lock on
mutation; gauge callbacks read attributes that their owners already
guard (or that are advisory by design, like plan-cache hit counts).
Disabled registries make :meth:`Counter.inc` / :meth:`Histogram.observe`
no-ops after a single attribute check — near-zero cost.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_registry", "_value", "_mu")

    def __init__(self, name: str, registry: "Registry") -> None:
        self.name = name
        self._registry = registry
        self._value = 0
        self._mu = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if not self._registry.enabled:
            return
        with self._mu:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._mu:
            self._value = 0

    def read(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value: either set explicitly or read via callback.

    Callback gauges are how existing ad-hoc counters resolve through the
    registry: ``reg.gauge("wal.fsyncs", lambda: wal.syncs)`` reads the
    WAL's own attribute at snapshot time — the write path pays nothing.
    A callback that raises (its owner was closed or replaced) reads as
    ``None`` rather than poisoning the whole snapshot.
    """

    __slots__ = ("name", "_fn", "_value", "_mu")

    def __init__(
        self, name: str, fn: Callable[[], Any] | None = None
    ) -> None:
        self.name = name
        self._fn = fn
        self._value: Any = 0
        self._mu = threading.Lock()

    def set(self, value: Any) -> None:
        with self._mu:
            self._fn = None
            self._value = value

    def set_fn(self, fn: Callable[[], Any]) -> None:
        with self._mu:
            self._fn = fn

    def read(self) -> Any:
        fn = self._fn
        if fn is None:
            return self._value
        try:
            return fn()
        except Exception:
            return None


class Histogram:
    """Recent-observation histogram with p50/p95/p99.

    Keeps a bounded ring of the last *window* observations (plus exact
    ``count`` and ``sum`` over all of them); percentiles are computed over
    the ring on read. Observing on a disabled registry is a no-op after
    one attribute check.
    """

    __slots__ = ("name", "_registry", "_ring", "_size", "_next", "count", "sum", "_mu")

    def __init__(self, name: str, registry: "Registry", window: int = 1024) -> None:
        self.name = name
        self._registry = registry
        self._ring: list[float] = [0.0] * max(1, window)
        self._size = 0       # live observations in the ring
        self._next = 0       # ring write cursor
        self.count = 0
        self.sum = 0.0
        self._mu = threading.Lock()

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._mu:
            ring = self._ring
            ring[self._next] = value
            self._next = (self._next + 1) % len(ring)
            if self._size < len(ring):
                self._size += 1
            self.count += 1
            self.sum += value

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0..100) of the retained window."""
        with self._mu:
            window = sorted(self._ring[: self._size])
        if not window:
            return 0.0
        rank = max(0, min(len(window) - 1, int(round((p / 100.0) * (len(window) - 1)))))
        return window[rank]

    def read(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class Registry:
    """A named collection of :class:`Counter` / :class:`Gauge` /
    :class:`Histogram` instruments.

    ``get-or-create`` semantics: asking for an existing name returns the
    existing instrument (re-registering a gauge callback replaces the
    callback — hooks that detach and re-attach stay current). Every
    :class:`~repro.storage.database.Database` owns one registry
    (``db.obs``); subsystems attached to that database register into it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Any] = {}
        self._mu = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- registration ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._mu:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Counter(name, self)
            elif not isinstance(metric, Counter):
                raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
            return metric

    def gauge(self, name: str, fn: Callable[[], Any] | None = None) -> Gauge:
        with self._mu:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Gauge(name, fn)
            elif isinstance(metric, Gauge):
                if fn is not None:
                    metric.set_fn(fn)
            else:
                raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
            return metric

    def histogram(self, name: str, window: int = 1024) -> Histogram:
        with self._mu:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Histogram(name, self, window)
            elif not isinstance(metric, Histogram):
                raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
            return metric

    def unregister(self, name: str) -> None:
        with self._mu:
            self._metrics.pop(name, None)

    # -- reading -----------------------------------------------------------------

    def get(self, name: str) -> Any:
        return self._metrics.get(name)

    def names(self, prefix: str | Iterable[str] | None = None) -> list[str]:
        return sorted(
            name for name in self._metrics if _match_prefix(name, prefix)
        )

    def snapshot(self, prefix: str | Iterable[str] | None = None) -> dict[str, Any]:
        """Flat ``{dotted name: value}`` of every (matching) instrument.

        Histograms expand into ``.count`` / ``.sum`` / ``.p50`` / ``.p95``
        / ``.p99`` sub-keys.
        """
        with self._mu:
            items = sorted(self._metrics.items())
        out: dict[str, Any] = {}
        for name, metric in items:
            if not _match_prefix(name, prefix):
                continue
            value = metric.read()
            if isinstance(metric, Histogram):
                for sub, sub_value in value.items():
                    out[f"{name}.{sub}"] = sub_value
            else:
                out[name] = value
        return out


def _match_prefix(name: str, prefix: str | Iterable[str] | None) -> bool:
    if prefix is None:
        return True
    prefixes = (prefix,) if isinstance(prefix, str) else tuple(prefix)
    return any(name == p or name.startswith(p + ".") for p in prefixes)
