"""Unit tests for the metrics registry (repro.obs.registry)."""

import json
import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, Registry


class TestCounter:
    def test_increments(self):
        reg = Registry()
        c = reg.counter("x.hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_disabled_registry_makes_inc_a_noop(self):
        reg = Registry(enabled=False)
        c = reg.counter("x.hits")
        c.inc(100)
        assert c.value == 0
        reg.enable()
        c.inc()
        assert c.value == 1

    def test_get_or_create_returns_same_instrument(self):
        reg = Registry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = Registry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_thread_safe_under_contention(self):
        reg = Registry()
        c = reg.counter("hot")

        def bump():
            for _ in range(5_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 20_000


class TestGauge:
    def test_callback_reads_live_state(self):
        reg = Registry()
        box = {"n": 1}
        g = reg.gauge("box.n", lambda: box["n"])
        assert g.read() == 1
        box["n"] = 7
        assert g.read() == 7

    def test_set_value_overrides_callback(self):
        g = Gauge("g", lambda: 3)
        g.set(9)
        assert g.read() == 9

    def test_reregistering_replaces_callback(self):
        reg = Registry()
        reg.gauge("g", lambda: 1)
        reg.gauge("g", lambda: 2)
        assert reg.snapshot()["g"] == 2

    def test_raising_callback_reads_none(self):
        g = Gauge("g", lambda: 1 / 0)
        assert g.read() is None


class TestHistogram:
    def test_count_sum_and_percentiles(self):
        reg = Registry()
        h = reg.histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == pytest.approx(5050.0)
        snap = h.read()
        assert snap["p50"] == pytest.approx(50.0, abs=2.0)
        assert snap["p95"] == pytest.approx(95.0, abs=2.0)
        assert snap["p99"] == pytest.approx(99.0, abs=2.0)

    def test_window_bounds_memory_but_not_count(self):
        reg = Registry()
        h = reg.histogram("lat", window=8)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        # Percentiles reflect only the retained window (most recent 8).
        assert h.percentile(0.0) >= 92.0

    def test_disabled_observe_is_noop(self):
        reg = Registry(enabled=False)
        h = reg.histogram("lat")
        h.observe(1.0)
        assert h.count == 0

    def test_snapshot_expands_subkeys(self):
        reg = Registry()
        reg.histogram("lat").observe(2.0)
        snap = reg.snapshot()
        assert snap["lat.count"] == 1
        assert snap["lat.sum"] == pytest.approx(2.0)
        assert "lat.p50" in snap and "lat.p95" in snap and "lat.p99" in snap


class TestSnapshotAndView:
    def test_prefix_filtering(self):
        reg = Registry()
        reg.counter("storage.selects").inc()
        reg.counter("wal.fsyncs").inc(3)
        reg.counter("service.jobs_done")
        assert set(reg.snapshot("wal")) == {"wal.fsyncs"}
        assert set(reg.snapshot(("storage", "wal"))) == {
            "storage.selects",
            "wal.fsyncs",
        }
        # Prefixes match dotted segments, not raw string prefixes.
        reg.counter("walrus.count")
        assert "walrus.count" not in reg.snapshot("wal")

    def test_view_is_json_serializable_with_new_names_only(self):
        reg = Registry()
        reg.counter("a.b").inc()
        assert json.loads(json.dumps(reg.snapshot())) == {"a.b": 1}
