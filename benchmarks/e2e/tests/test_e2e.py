"""Smoke-scale checks of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

import harness
import report
import tracing
from tracing import Recorder, Span, installed, self_times
from workloads import Measured

WORKLOADS = [w["name"] for w in report.BENCHMARK["workloads"]]
# Work is capped by count, not by the clock, so counters repeat exactly.
UNITS = {"hotcrp_cycle": 6, "hotcrp_mixed": 6, "lobsters_drain": 1, "lobsters_sharded": 1}


@functools.lru_cache(maxsize=None)
def _run(name: str, traced: bool, again: int = 0) -> dict:
    return harness.run_once(
        name, seed=5, seconds=60.0, traced=traced, scale_name="smoke",
        max_units=UNITS[name],
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_record_has_every_end_to_end_metric(name):
    record = _run(name, False)
    wanted = {m["name"]: m["unit"] for m in report.BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == wanted
    # The driver refuses metrics that can read 0.
    assert all(v["value"] > 0 for v in record["metrics"].values()), record["metrics"]
    assert record["checks"] and all(record["checks"].values()), record["checks"]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert record["workload"] == name and record["seed"] == 5
    assert {"git_rev", "python", "nproc", "wall_s", "samples", "scale"} <= set(record)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_record_has_every_per_layer_metric(name):
    record = _run(name, True)
    wanted = {m["name"]: m["unit"] for m in report.BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == wanted
    value = lambda key: record["metrics"][key]["value"]
    assert record["correct"] and record["failed"] == 0
    # Half the acked jobs are applies, half reveals; with two workers a
    # deadlock victim's retry calls the engine again.
    if name.startswith("hotcrp"):
        assert value("core.apply.calls") == value("core.reveal.calls") == 0.5
    else:
        assert value("core.apply.calls") >= 0.5 <= value("core.reveal.calls")
    assert value("device.fsyncs_per_job") >= (
        value("service.queue.fsyncs") + value("vault.fsyncs")
    ) > 0
    assert 0 <= value("obs.untraced_share") < 0.10
    sharded = name == "lobsters_sharded"
    assert (value("shard.routed_reads") > 0) == sharded
    assert (value("shard.route_s") > 0) == sharded


def test_same_seed_gives_the_same_exact_counters():
    first, second = _run("hotcrp_cycle", True), _run("hotcrp_cycle", True, again=1)
    assert first is not second
    for key in ("storage.statements", "device.fsyncs_per_job", "vault.entries_written",
                "crypto.decrypt_calls", "storage.wal.bytes"):
        assert first["metrics"][key] == second["metrics"][key], key
    # The queue journal stamps each event with time.time(), whose decimal
    # rendering varies by a digit or two per event: bytes repeat to within
    # that, not exactly.
    a = _run("hotcrp_cycle", False)["metrics"]["durable_bytes_per_job"]["value"]
    b = _run("hotcrp_cycle", False, again=1)["metrics"]["durable_bytes_per_job"]["value"]
    assert abs(a - b) / a < 0.002


def test_wrappers_are_removed_after_a_traced_run():
    originals = {
        (owner, attr): vars(owner)[attr] for owner, attr, _name, _q in tracing._targets()
    }
    from repro.service.queue import JobQueue

    for attr in ("claim", "complete", "fail"):
        originals[(JobQueue, attr)] = vars(JobQueue)[attr]
    _run("lobsters_drain", True, again=2)
    with pytest.raises(RuntimeError), installed(Recorder()):
        raise RuntimeError("a failing run must restore them too")
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


# -- windows ---------------------------------------------------------------------------


def _phase(unit_ms):
    """A phase of one-cycle units, each with one apply of the given latency."""
    m = Measured()
    for latency in unit_ms:
        m.apply_ms.append(float(latency))
        m.reveal_ms.append(2.0 * latency)
        m.app_ms.append(latency / 10)
        m.cycles += 1
        m.wall += latency / 1e3
        m.cut(m.wall)
    return m


def test_windows_cut_the_phase_by_units_and_drop_a_short_tail():
    m = _phase([1, 2, 3, 4, 5])
    first, second = m.windows(2)
    assert (first.apply_ms, second.apply_ms) == ([1.0, 2.0], [3.0, 4.0])
    assert (first.app_ms, second.reveal_ms) == ([0.1, 0.2], [6.0, 8.0])
    assert first.round_ms == second.round_ms == []
    assert (first.cycles, second.cycles) == (2, 2)
    assert first.wall == pytest.approx(0.003) and second.wall == pytest.approx(0.007)
    assert m.windows(6) == [m]   # shorter than one window: the phase is the window


def test_quiet_quartile_is_the_quartile_on_the_good_side():
    assert report.quiet_quartile([5, 1, 4, 2, 3], "lower") == 2
    assert report.quiet_quartile([5, 1, 4, 2, 3], "higher") == 4
    assert report.quiet_quartile([7], "lower") == 7


def test_a_slow_stretch_moves_the_whole_phase_figure_but_not_the_windowed_one():
    quiet = _phase([10] * 40)
    disturbed = _phase([10] * 24 + [30] * 8 + [10] * 8)
    windowed = lambda m: report.end_to_end(m, 4, ("apply_p95_ms",), [1.0], [1.0], 0)
    for name in ("apply_p50_ms", "reveal_p95_ms", "cycles_per_s", "apply_jobs_per_s"):
        assert windowed(disturbed)[name] == pytest.approx(windowed(quiet)[name]), name
    assert report.phase_metrics(disturbed)["cycles_per_s"] < 0.8 * windowed(quiet)["cycles_per_s"]
    # A metric the workload asks to have taken over the whole phase is.
    assert windowed(disturbed)["apply_p95_ms"] == 30 > windowed(quiet)["apply_p95_ms"]


# -- span arithmetic -------------------------------------------------------------------


def _span(sid, parent, start, end, thread=1, name="x"):
    return Span(sid, parent, name, None, thread, float(start), float(end), 0.0)


def test_self_time_subtracts_nested_and_sibling_children_per_thread():
    spans = [
        # thread 1: a root with two siblings, the first holding a grandchild
        _span(1, 0, 0, 10), _span(2, 1, 1, 3), _span(3, 2, 1.5, 2.5), _span(4, 1, 4, 6),
        # thread 2, interleaved in time with thread 1 but its own tree
        _span(5, 0, 2, 8, thread=2), _span(6, 5, 3, 7, thread=2),
    ]
    assert self_times(spans) == {1: 6.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0, 6: 4.0}


def test_self_time_counts_overlapping_children_once_and_clips_to_the_parent():
    spans = [
        _span(1, 0, 0, 10),
        _span(2, 1, 1, 5, thread=2), _span(3, 1, 3, 7, thread=3),   # overlap: cover 1..7
        _span(4, 1, 9, 12, thread=2),                                # sticks out: cover 9..10
    ]
    assert self_times(spans)[1] == pytest.approx(10 - 6 - 1)


def test_recorder_keeps_one_tree_per_thread():
    recorder = Recorder()

    def inner():
        time.sleep(0.002)

    def outer():
        recorder.call("inner", inner, (), {})
        time.sleep(0.002)
        recorder.call("inner", inner, (), {})

    threads = [
        threading.Thread(target=lambda: recorder.call("outer", outer, (), {}))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    outers = [s for s in recorder.spans if s.name == "outer"]
    inners = [s for s in recorder.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 4
    own = self_times(recorder.spans)
    for root in outers:
        children = [s for s in inners if s.parent == root.sid]
        assert len(children) == 2 and {s.thread for s in children} == {root.thread}
        covered = sum(s.end - s.start for s in children)
        assert own[root.sid] == pytest.approx((root.end - root.start) - covered)
        assert own[root.sid] >= 0.002


# -- comparing runs --------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10.2] * 2, [8, 8.1, 7.9, 8, 8.2] * 2, "lower", "improved"),
        ([10, 10.1, 9.9, 10, 10.2] * 2, [12, 12.1, 11.9, 12, 12.2] * 2, "lower", "regressed"),
        ([10, 10.1, 9.9, 10, 10.2] * 2, [8, 8.1, 7.9, 8, 8.2] * 2, "higher", "regressed"),
        ([10, 10.1, 9.9, 10, 10.2] * 2, [10.1, 10, 10, 9.9, 10.2] * 2, "lower", "unchanged"),
        ([10, 13, 8, 12, 9] * 2, [10.5, 12, 8, 13, 9] * 2, "lower", "unresolved"),
    ],
)
def test_verdicts(a, b, better, expected):
    assert report.verdict(a, b, better, bound=0.10) == expected
