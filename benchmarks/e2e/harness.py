"""One whole run of one workload: set up, warm up, measure, recover, check."""

from __future__ import annotations

import gc
import os
import platform
import shutil
import subprocess
import time
from pathlib import Path
from typing import Any

import report
from stack import (
    Recovered, Stack, build, digest, fsync_probe_ms, job_states,
    process_bytes_written, recover,
)
from tracing import Recorder, installed
from workloads import SCALES, WORKLOADS, Measured, Workload

__all__ = ["ROOT", "run_once"]

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_e2e"   # every file a run writes lives (briefly) under here


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _set_up(workload: Workload, workdir: Path) -> Stack:
    stack = build(
        workdir, workload.generate, workload.spec(), workload.user_table,
        workload.seed, workload.workers, workload.shards,
    )
    workload.prepare(stack)
    return stack


def _checks(
    workload: Workload, recovered: Recovered, baseline: dict[str, str], m: Measured
) -> tuple[dict[str, bool], list[str]]:
    """Output checks, all against what the restart found on disk; also the
    error messages of any job attempt that failed."""
    inserted = set(workload.client.inserted)
    table = workload.inserts_into
    dead, unfinished, errors = job_states(recovered.queue)
    vault = recovered.engine.vault
    return {
        # Every job the run saw acked is DONE once the journal is folded.
        "jobs_done_after_reopen": unfinished == 0 and dead == m.jobs_dead,
        "integrity": recovered.db.check_integrity() == [],
        # apply∘reveal is the identity: with every measured disguise revealed
        # again, the application tables hash to what set-up left (rows the
        # client inserted aside), and the WAL replay lost none of it.
        "identity_digest": digest(recovered.db, {table: inserted}) == baseline,
        "acked_inserts_survive": all(
            recovered.db.get(table, pk) is not None for pk in inserted
        ),
        # Only disguises still outstanding may hold vault entries.
        "vault_holds_only_standing": {
            owner for owner in vault.owners() if vault.entries_for(owner)
        } == set(workload.standing),
    }, errors


def _measure_untraced(
    workload: Workload, stack: Stack, seconds: float, max_units: int | None,
    setup_times: list[float],
) -> tuple[Measured, Recovered, dict[str, float]]:
    """The end-to-end run: nothing wrapped; the restart timed as often as set-up was."""
    m = Measured()
    written = process_bytes_written()
    workload.measure(stack, seconds, m, max_units)
    written = process_bytes_written() - written
    stack.close()
    recover_times = []
    for _ in setup_times:
        recovered = recover(stack)
        recover_times.append(recovered.seconds)
        if len(recover_times) < len(setup_times):
            recovered.close()
    return m, recovered, report.end_to_end(
        m, workload.window, workload.pooled, setup_times, recover_times, written
    )


def _measure_traced(
    workload: Workload, stack: Stack, seconds: float, max_units: int | None
) -> tuple[Measured, Recovered, dict[str, float]]:
    """The per-layer run: a quarter of *seconds* untraced on the same stack
    gives the overhead ratio its base, then the wrappers go on for the rest
    of the measurement and for the recovery."""
    probe_ms = fsync_probe_ms(stack.workdir)
    workload.quiet_rounds = 0   # the table is per disguise job; keep the client out of it
    base, m = Measured(), Measured()
    workload.measure(stack, seconds / 4, base, max_units)
    before = report.counters(stack)
    recorder = Recorder()
    with installed(recorder):
        workload.measure(stack, seconds * 3 / 4, m, max_units)
        after = report.counters(stack)
        spans = list(recorder.spans)
        stack.close()
        recorder.spans.clear()
        recovered = recover(stack)
    overhead = 0.0
    if base.cycles and m.cycles:
        overhead = (base.cycles / base.wall) / (m.cycles / m.wall)
    metrics = report.per_layer(
        spans, recorder.spans, before, after, m, stack, probe_ms, overhead
    )
    return m, recovered, metrics


def run_once(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale_name: str = "full",
    max_units: int | None = None,
) -> dict[str, Any]:
    """Run workload *name* once and return its result record.

    Set-up is timed ``scale.setups`` times (once when traced) and the last
    stack is measured. ``max_units`` (tests) stops the measured phase after
    that many cycles or backlogs, making the work — and so the exact
    counters — repeatable.
    """
    wall_started = time.perf_counter()
    scale = SCALES[scale_name]
    rundir = WORK / f"{os.getpid()}-{name}-{seed}"
    stack: Stack | None = None
    recovered: Recovered | None = None
    try:
        setup_times: list[float] = []
        for attempt in range(1 if traced else scale.setups):
            if stack is not None:
                stack.close()
                shutil.rmtree(stack.workdir)
            workload = WORKLOADS[name](seed, scale)
            started = time.perf_counter()
            stack = _set_up(workload, rundir / f"setup{attempt}")
            setup_times.append(time.perf_counter() - started)
        baseline = digest(stack.db)
        workload.warm_up(stack)
        # Nothing allocated so far is worth re-scanning during the measurement.
        gc.collect()
        gc.freeze()
        if traced:
            m, recovered, metrics = _measure_traced(workload, stack, seconds, max_units)
        else:
            m, recovered, metrics = _measure_untraced(
                workload, stack, seconds, max_units, setup_times
            )
        gc.unfreeze()

        checks, job_errors = _checks(workload, recovered, baseline, m)
        kind = "per_layer" if traced else "end_to_end"
        units = {d["name"]: d["unit"] for d in report.BENCHMARK[kind]}
        failed = m.jobs_dead + m.app_failed + sum(not ok for ok in checks.values())
        attempted = m.jobs + m.app_ops + len(checks)
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "traced": traced,
            "scale": scale_name,
            "git_rev": _git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "wall_s": time.perf_counter() - wall_started,
            "samples": {
                "apply": len(m.apply_ms), "reveal": len(m.reveal_ms),
                "apply_rates": len(m.apply_rates), "reveal_rates": len(m.reveal_rates),
                "app_ops": len(m.app_ms), "rounds": len(m.round_ms),
                "cycles": m.cycles, "setups": len(setup_times),
                "windows": len(m.windows(workload.window)),
            },
            # Over the whole phase, slow stretches of the sandbox included:
            # what the windowed metrics would read without the windows.
            "whole_phase": report.phase_metrics(m),
            "checks": checks,
            "job_errors": job_errors[:5],
            "correct": all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "metrics": {
                key: {"value": value, "unit": units[key]} for key, value in metrics.items()
            },
        }
    finally:
        if recovered is not None:
            recovered.close()
        if stack is not None:
            stack.close()
        shutil.rmtree(rundir, ignore_errors=True)
