"""Metrics registry: instruments, reservoirs, collectors, events."""

import gc

import numpy as np
import pytest

from repro.obs.metrics import (DEFAULT_CAPACITY, Counter, Gauge, Histogram,
                               MetricsRegistry, Reservoir, default_registry,
                               next_instance_id, set_default_registry)


class TestReservoir:
    def test_exact_below_capacity(self):
        """Below capacity the reservoir IS the unbounded list it replaced."""
        r = Reservoir(capacity=100)
        values = [float(i) for i in range(80)]
        r.extend(values)
        assert list(r) == values
        assert len(r) == 80
        assert r.count == 80
        assert r.total == sum(values)
        assert r.minimum == 0.0 and r.maximum == 79.0
        assert not r.saturated
        assert bool(r)

    def test_bounded_past_capacity_with_exact_aggregates(self):
        r = Reservoir(capacity=50)
        values = list(range(1000))
        r.extend(values)
        assert len(r) == 50                      # retained sample bounded
        assert r.count == 1000                   # exact lifetime count
        assert r.total == float(sum(values))     # exact lifetime sum
        assert r.minimum == 0.0 and r.maximum == 999.0
        assert r.saturated
        assert set(r) <= set(float(v) for v in values)

    def test_deterministic_subsample(self):
        """Same seed + same stream => same retained sample."""
        a, b = Reservoir(capacity=16), Reservoir(capacity=16)
        for v in range(500):
            a.append(v)
            b.append(v)
        assert list(a) == list(b)

    def test_sequence_protocol_feeds_numpy(self):
        r = Reservoir(capacity=32)
        r.extend([3.0, 1.0, 2.0])
        assert r[0] == 3.0
        assert float(np.percentile(np.asarray(r, dtype=np.float64), 50)) == 2.0

    def test_percentile_and_summary(self):
        r = Reservoir()
        r.extend(range(1, 101))
        assert r.percentile(50) == pytest.approx(50.5)
        s = r.summary()
        assert s["count"] == 100
        assert s["sum"] == pytest.approx(5050.0)
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert {"p50", "p95", "p99"} <= set(s)

    def test_empty(self):
        r = Reservoir()
        assert not r
        assert len(r) == 0
        with pytest.raises(ValueError, match="empty"):
            r.percentile(50)
        assert r.summary() == {"count": 0, "sum": 0.0,
                               "min": None, "max": None}

    def test_merge_keeps_exact_aggregates(self):
        a, b = Reservoir(capacity=4), Reservoir(capacity=4)
        a.extend([5.0, 1.0])
        b.extend(range(10, 20))
        merged = Reservoir.merge([a, Reservoir(), b])
        assert list(merged) == [5.0, 1.0] + list(b)
        assert merged.count == 12
        assert merged.total == 6.0 + sum(range(10, 20))
        assert (merged.minimum, merged.maximum) == (1.0, 19.0)
        assert Reservoir.merge([]).count == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            Reservoir(capacity=0)


class TestInstruments:
    def test_counter(self):
        c = Counter("requests", {"routine": "gemm"})
        c.inc()
        c.inc(4)
        assert c.value == 5.0
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)
        assert c.describe() == {"name": "requests", "type": "counter",
                                "labels": {"routine": "gemm"}, "value": 5.0}

    def test_gauge(self):
        g = Gauge("depth", {})
        g.set(7)
        g.inc(2)
        g.dec(1)
        assert g.value == 8.0
        assert g.describe()["type"] == "gauge"

    def test_histogram(self):
        h = Histogram("latency", {}, capacity=8)
        for v in range(20):
            h.observe(v)
        assert h.count == 20
        assert len(h.reservoir) == 8
        d = h.describe()
        assert d["type"] == "histogram" and d["count"] == 20


class TestRegistry:
    def test_get_or_create_same_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("served", routine="gemm")
        b = reg.counter("served", routine="gemm")
        assert a is b
        c = reg.counter("served", routine="gemv")
        assert c is not a                   # distinct labels, distinct row
        assert len(reg.instruments()) == 2

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.gauge("x", a="1", b="2")
        b = reg.gauge("x", b="2", a="1")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("served")
        with pytest.raises(TypeError, match="not a gauge"):
            reg.gauge("served")
        with pytest.raises(TypeError, match="not a histogram"):
            reg.histogram("served")

    def test_collector_pull_with_labels(self):
        reg = MetricsRegistry()

        class Component:
            def metrics(self):
                return {"hits": 3, "misses": 1}

        comp = Component()
        reg.register_collector(comp.metrics, component="engine", instance="e1")
        rows = reg.collect()
        assert {r["name"]: r["value"] for r in rows} == {"hits": 3,
                                                         "misses": 1}
        assert all(r["labels"] == {"component": "engine", "instance": "e1"}
                   for r in rows)
        assert all(r["type"] == "gauge" for r in rows)

    def test_dead_collector_pruned(self):
        """A garbage-collected owner silently leaves the snapshot."""
        reg = MetricsRegistry()

        class Component:
            def metrics(self):
                return {"alive": 1}

        comp = Component()
        reg.register_collector(comp.metrics)
        assert len(reg.collect()) == 1
        del comp
        gc.collect()
        assert reg.collect() == []
        assert reg.collect() == []          # pruned, not just skipped

    def test_lambda_collector_held_strongly(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda: {"x": 1.0})
        gc.collect()
        assert [r["value"] for r in reg.collect()] == [1.0]

    def test_events_ring_bounded_with_exact_count(self):
        reg = MetricsRegistry(events_capacity=4)
        for i in range(10):
            reg.event("reload", ts=float(i), version=i)
        events = reg.events()
        assert len(events) == 4
        assert [e["version"] for e in events] == [6, 7, 8, 9]  # oldest drop
        assert reg.n_events == 10

    def test_events_filter_by_name(self):
        reg = MetricsRegistry()
        reg.event("drift", ts=1.0)
        reg.event("reload", ts=2.0)
        assert [e["event"] for e in reg.events("drift")] == ["drift"]

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("served").inc()
        reg.event("boot", ts=0.0)
        snap = reg.snapshot()
        assert {"metrics", "events", "n_events"} <= set(snap)
        assert snap["n_events"] == 1
        assert snap["metrics"][0]["name"] == "served"


class TestDefaultRegistry:
    def test_singleton_and_swap(self):
        original = default_registry()
        try:
            assert default_registry() is original
            fresh = MetricsRegistry()
            set_default_registry(fresh)
            assert default_registry() is fresh
        finally:
            set_default_registry(original)
        assert default_registry() is original


def test_next_instance_id_unique():
    a, b = next_instance_id("srv"), next_instance_id("srv")
    assert a != b
    assert a.startswith("srv-") and b.startswith("srv-")


def test_default_capacity_is_generous():
    """The compat bound: short runs stay exact (bitwise telemetry)."""
    assert DEFAULT_CAPACITY >= 1024
