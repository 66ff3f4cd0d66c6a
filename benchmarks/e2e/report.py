"""Turning samples, counters and spans into the metrics ``BENCHMARK.json``
names, and comparing two sets of runs.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path
from typing import Any, Iterable

from stack import Stack, engines_of, process_bytes_written
from tracing import Span, layer_of, self_times
from workloads import Measured

__all__ = [
    "BENCHMARK",
    "compare",
    "counters",
    "end_to_end",
    "per_layer",
    "percentile",
    "phase_metrics",
    "quiet_quartile",
    "quartiles",
    "summarise",
]

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def percentile(samples: Iterable[float], point: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    data = sorted(samples)
    if not data:
        return 0.0
    return data[min(len(data) - 1, max(0, math.ceil(point / 100.0 * len(data)) - 1))]


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _rate(rates: list[float], latencies_ms: list[float]) -> float:
    """Jobs per second: the median backlog's rate where backlogs were
    drained; with one job in flight, jobs over their summed latency."""
    if rates:
        return statistics.median(rates)
    return 1e3 * len(latencies_ms) / sum(latencies_ms) if latencies_ms else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# -- one run ---------------------------------------------------------------------------


def phase_metrics(m: Measured) -> dict[str, float]:
    """The measured-phase metrics over one stretch of samples: a window, or
    the whole phase."""
    return {
        "apply_p50_ms": _median(m.apply_ms),
        "apply_p95_ms": percentile(m.apply_ms, 95),
        "reveal_p50_ms": _median(m.reveal_ms),
        "reveal_p95_ms": percentile(m.reveal_ms, 95),
        "cycles_per_s": m.cycles / m.wall if m.wall else 0.0,
        "apply_jobs_per_s": _rate(m.apply_rates, m.apply_ms),
        "reveal_jobs_per_s": _rate(m.reveal_rates, m.reveal_ms),
        # Quiet rounds give the typical cost as a round's mean (workloads.py).
        "app_op_p50_ms": _median(m.round_ms or m.app_ms),
        "app_op_p95_ms": percentile(m.app_ms, 95),
    }


def quiet_quartile(values: list[float], better: str) -> float:
    """The quartile of *values* on the good side: the first where lower is
    better, the third where higher is."""
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1 if better == "lower" else q3


def end_to_end(
    m: Measured,
    window: int,
    pooled: tuple[str, ...],
    setup_times: list[float],
    recover_times: list[float],
    durable_bytes: int,
) -> dict[str, float]:
    """The untraced run's metrics, by the names in ``BENCHMARK.json``.

    The phase is cut into windows of *window* units of work; each phase
    metric is computed per window and the run reports the quartile of the
    windows on the metric's good side. The sandbox slows down by half for
    seconds at a time, for a different share of every run; that only ever
    makes a window worse, so the good quartile is the program's own speed
    where a figure over the whole phase is a mixture of the two (README,
    "Noise"). Metrics named in *pooled* are taken over the whole phase.
    The restarts, timed back to back after the phase, get the same
    treatment; set-up is reported as its median.
    """
    better = {d["name"]: d["better"] for d in BENCHMARK["end_to_end"]}
    whole = phase_metrics(m)
    windows = [phase_metrics(w) for w in m.windows(window)]
    phase = {
        name: value if name in pooled
        else quiet_quartile([w[name] for w in windows], better[name])
        for name, value in whole.items()
    }
    return {
        "setup_s": _median(setup_times),
        **phase,
        "recover_s": quiet_quartile(recover_times, better["recover_s"]),
        "durable_bytes_per_job": durable_bytes / max(1, m.jobs_acked),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def counters(stack: Stack) -> dict[str, float]:
    """The layers' own public counters, read at a quiet instant."""
    engines = engines_of(stack.db)
    wals = getattr(stack.wal, "wals", None) or [stack.wal]
    locks = stack.service.locks.stats
    return {
        "statements": stack.db.stats.statements,
        "rows_examined": sum(
            engine.table(name).rows_examined
            for engine in engines for name in engine.table_names
        ),
        "plan_hits": sum(engine.plans.hits for engine in engines),
        "plan_misses": sum(engine.plans.misses for engine in engines),
        "wal_fsyncs": sum(wal.syncs for wal in wals),
        "wal_bytes": sum(wal.bytes_written for wal in wals),
        "vault_writes": stack.vault.stats.writes,
        "lock_waits": locks.waits,
        "lock_wait_s": locks.wait_time_s,
        "deadlocks": locks.deadlocks,
        "lock_timeouts": locks.timeouts,
        "routed_reads": getattr(stack.db, "routed_reads", 0),
        "scatter_reads": getattr(stack.db, "scatter_reads", 0),
        "queue_bytes": stack.queue.path.stat().st_size,
        "bytes_written": process_bytes_written(),
    }


def per_layer(
    spans: list[Span],
    recovery_spans: list[Span],
    before: dict[str, float],
    after: dict[str, float],
    m: Measured,
    stack: Stack,
    probe_ms: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """The traced run's table. Sums over the traced phase are divided by the
    jobs it acked; ratios, shares and once-per-run values are as named."""
    jobs = max(1, m.jobs_acked)
    own = self_times(spans)
    by_id = {span.sid: span for span in spans}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    quantity: dict[str, float] = {}
    fsyncs_under: dict[str | None, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.sid]
        quantity[span.name] = quantity.get(span.name, 0.0) + span.n
        if span.name == "device.fsync":
            layer = layer_of(by_id, span, ("service.queue", "storage.wal", "vault"))
            fsyncs_under[layer] = fsyncs_under.get(layer, 0) + 1

    def delta(key: str) -> float:
        return after[key] - before[key]

    def per_job(value: float) -> float:
        return value / jobs

    def own_s(*names: str) -> float:
        return per_job(sum(self_s.get(name, 0.0) for name in names))

    def count(*names: str) -> float:
        return per_job(sum(calls.get(name, 0) for name in names))

    plan_lookups = delta("plan_hits") + delta("plan_misses")
    reads = delta("routed_reads") + delta("scatter_reads")
    roots = total.get("service.executor", 0.0)
    vault_bytes = delta("bytes_written") - delta("wal_bytes") - delta("queue_bytes")
    return {
        "service.queue.submit_s": own_s("service.queue.submit"),
        "service.queue.claim_s": own_s("service.queue.claim"),
        "service.queue.complete_s": own_s("service.queue.complete", "service.queue.fail"),
        "service.queue.wait_s": per_job(quantity.get("service.queue.claim", 0.0)),
        "service.queue.fsyncs": per_job(fsyncs_under.get("service.queue", 0)),
        "service.queue.journal_bytes": per_job(delta("queue_bytes")),
        "service.locks.acquire_calls": count("service.locks.acquire"),
        "service.locks.waits": per_job(delta("lock_waits")),
        "service.locks.wait_s": per_job(delta("lock_wait_s")),
        "service.locks.deadlocks": per_job(delta("deadlocks")),
        "service.locks.timeouts": per_job(delta("lock_timeouts")),
        "service.locks.app_retries": per_job(m.app_retries),
        "service.executor.self_s": own_s("service.executor"),
        "service.executor.retries": per_job(quantity.get("service.queue.fail", 0.0)),
        "spec.validate_s": stack.validate_s,
        "core.apply.calls": count("core.apply"),
        "core.apply.self_s": own_s("core.apply"),
        "core.reveal.calls": count("core.reveal"),
        "core.reveal.self_s": own_s("core.reveal"),
        "core.history.self_s": own_s("core.history"),
        "storage.statements": per_job(delta("statements")),
        "storage.read_s": own_s("storage.read"),
        "storage.write_s": own_s("storage.write"),
        "storage.parse_s": own_s("storage.parse"),
        "storage.rows_examined": per_job(delta("rows_examined")),
        "storage.rows_examined_per_row_returned":
            delta("rows_examined") / max(1.0, quantity.get("storage.read", 0.0)),
        "storage.plancache.hit_ratio":
            delta("plan_hits") / plan_lookups if plan_lookups else 0.0,
        "storage.wal.append_s": own_s("storage.wal.append"),
        "storage.wal.barrier_wait_s": own_s("storage.wal.barrier"),
        "storage.wal.fsyncs": per_job(delta("wal_fsyncs")),
        "storage.wal.bytes": per_job(delta("wal_bytes")),
        "storage.wal.replay_s": sum(
            span.end - span.start for span in recovery_spans
            if span.name == "storage.wal.replay"
        ),
        "vault.put_many_s": own_s("vault.put_many"),
        "vault.entries_for_s": own_s("vault.entries_for"),
        "vault.entries_for_calls": count("vault.entries_for"),
        "vault.delete_s": own_s("vault.delete"),
        "vault.entries_written": per_job(delta("vault_writes")),
        "vault.entries_opened_per_entry_restored":
            calls.get("crypto.decrypt", 0) / max(1.0, quantity.get("core.reveal", 0.0)),
        "vault.fsyncs": per_job(fsyncs_under.get("vault", 0)),
        "vault.journal_bytes": per_job(vault_bytes),
        "crypto.encrypt_s": own_s("crypto.encrypt"),
        "crypto.decrypt_s": own_s("crypto.decrypt"),
        "crypto.decrypt_calls": count("crypto.decrypt"),
        "shard.routed_reads": per_job(delta("routed_reads")),
        "shard.scatter_reads": per_job(delta("scatter_reads")),
        "shard.scatter_share": delta("scatter_reads") / reads if reads else 0.0,
        "shard.cross_shard_txns": per_job(quantity.get("shard.tag_commit", 0.0)),
        "shard.route_s": own_s("shard.route", "shard.tag_commit"),
        "device.fsyncs_per_job": count("device.fsync"),
        "device.fsync_s": own_s("device.fsync", "device.replace"),
        "device.fsync_probe_ms": probe_ms,
        "bench.generator_late_p95_ms": percentile(m.late_ms, 95),
        "bench.samples": float(len(m.apply_ms) + len(m.reveal_ms)),
        "obs.traced_overhead_ratio": overhead_ratio,
        "obs.untraced_share": self_s.get("service.executor", 0.0) / roots if roots else 0.0,
    }


# -- many runs -------------------------------------------------------------------------


def summarise(records: list[dict[str, Any]]) -> dict[str, dict[str, dict[str, Any]]]:
    """``{workload: {metric: {median, q1, q3, values}}}`` over whole runs."""
    out: dict[str, dict[str, dict[str, Any]]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            out.setdefault(record["workload"], {}).setdefault(
                name, {"values": []}
            )["values"].append(metric["value"])
    for metrics in out.values():
        for stats in metrics.values():
            stats["q1"], stats["median"], stats["q3"] = quartiles(stats["values"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``improved`` / ``regressed`` / ``unresolved`` / ``unchanged`` for one
    metric on one workload, *a* the parent's runs and *b* the change's.

    The paired rule of the choosing-metrics guide (§8): a gain needs the
    change to win nine tenths of the pairs (ties count for neither) *and*
    the medians to differ by more than the parent's own interquartile
    distance. A regression is a median worse by more than the metric's
    bound. Where either side's spread is wider than the bound, no change
    is reported as unresolved rather than unchanged.
    """
    sign = -1.0 if better == "lower" else 1.0
    q1_a, median_a, q3_a = quartiles(a)
    q1_b, median_b, q3_b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (median_b - median_a)
    if pairs and wins >= 0.9 * len(pairs) and gain > (q3_a - q1_a):
        return "improved"
    if median_a and -gain / abs(median_a) > bound:
        return "regressed"
    spread = max(
        (q3_a - q1_a) / abs(median_a) if median_a else 0.0,
        (q3_b - q1_b) / abs(median_b) if median_b else 0.0,
    )
    return "unresolved" if spread > bound else "unchanged"


def compare(a_records: list[dict[str, Any]], b_records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One row per workload and end-to-end metric present on both sides."""
    a_all = summarise([r for r in a_records if not r["traced"]])
    b_all = summarise([r for r in b_records if not r["traced"]])
    rows = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        if workload not in a_all or workload not in b_all:
            continue
        for metric in BENCHMARK["end_to_end"]:
            a, b = a_all[workload][metric["name"]], b_all[workload][metric["name"]]
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "bound": metric["bound"], "a": a, "b": b,
                "verdict": verdict(
                    a["values"], b["values"], metric["better"], metric["bound"]
                ),
            })
    return rows
