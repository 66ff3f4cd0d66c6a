"""repro.obs — the unified observability layer.

One public surface for everything the engine can tell you about itself:

* :class:`Registry` — counters, gauges, histograms under stable dotted
  names (``storage.selects``, ``wal.fsyncs``, ``plancache.hits``,
  ``vault.journal_appends``, ``service.lock_wait_s``, ...). Every
  :class:`~repro.storage.database.Database` owns one as ``db.obs``;
  subsystems attached to the database register into it, and
  ``Database.metrics()`` / ``DisguiseService.metrics()`` return
  snapshots of it.
* :func:`span` / :func:`traced` / :data:`TRACER` — trace spans with
  parent/child nesting through the hot path (apply → op → statement →
  WAL append/fsync → vault encrypt/put), exportable as a rendered tree
  (:func:`render_spans`) or JSONL (:func:`spans_to_jsonl`). Off by
  default; :func:`enable_tracing` turns it on, optionally with a slow-op
  budget that logs the span tree of any statement or disguise over it.
* :class:`PlanReport` — the typed report ``Database.explain`` returns,
  including actual row counts and per-node timings with ``analyze=True``.
"""

from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.report import PlanNode, PlanReport
from repro.obs.trace import (
    NULL_SPAN,
    SlowOp,
    Span,
    TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    render_spans,
    span,
    spans_to_jsonl,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "PlanNode",
    "PlanReport",
    "Span",
    "SlowOp",
    "Tracer",
    "TRACER",
    "NULL_SPAN",
    "span",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "render_spans",
    "spans_to_jsonl",
]
