"""Serving telemetry: latency percentiles, batch histogram, accounting."""

import asyncio

import pytest

from repro.bench.stats import LatencySummary
from repro.serve import GemmServer, ServeTelemetry, poisson_trace, replay_trace


class TestServeTelemetryUnit:
    def test_counters_and_histogram(self):
        t = ServeTelemetry()
        t.record_admission("a", queue_depth=0)
        t.record_admission("a", queue_depth=1)
        t.record_admission("b", queue_depth=2)
        t.record_batch("default", 2)
        t.record_batch("default", 1)
        t.record_done("a", latency=0.004, wait=0.001)
        t.record_done("a", latency=0.002, wait=0.001)
        t.record_done("b", latency=0.010, wait=0.005)
        t.record_rejection("b", "overload")
        stats = t.stats()
        assert stats["submitted"] == 3 and stats["served"] == 3
        assert stats["rejected"] == 1
        assert stats["rejected_by_reason"] == {"overload": 1}
        assert stats["batch_size_histogram"] == {1: 1, 2: 1}
        assert stats["max_queue_depth"] == 2
        assert stats["clients"]["a"]["served"] == 2
        assert stats["clients"]["b"]["rejected"] == 1

    def test_latency_summaries_are_shared_helper_output(self):
        t = ServeTelemetry()
        for ms in (1, 2, 3, 4, 100):
            t.record_done("a", latency=ms / 1e3, wait=ms / 2e3)
        assert isinstance(t.latency(), LatencySummary)
        row = t.stats()["latency_ms"]
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"] <= row["max_ms"]
        assert row["n"] == 5

    def test_empty_stats_have_no_latency(self):
        stats = ServeTelemetry().stats()
        assert "latency_ms" not in stats
        assert stats["mean_batch_size"] == 0.0

    def test_routine_entry_built_once(self, monkeypatch):
        """Recording a request for a known routine builds no reservoir."""
        import repro.serve.telemetry as telemetry_module

        built = []

        class CountingReservoir(telemetry_module.Reservoir):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(telemetry_module, "Reservoir", CountingReservoir)
        t = ServeTelemetry()
        before = len(built)
        t.record_admission("a", queue_depth=0, routine="gemm")
        first = len(built)
        assert first - before == 2  # the routine's latency and wait stores
        for _ in range(5):
            t.record_admission("a", queue_depth=0, routine="gemm")
            t.record_done("a", latency=0.001, wait=0.0, routine="gemm")
            t.record_failure("a", routine="gemm")
            t.record_rejection("a", "overload", routine="gemm")
        assert len(built) == first
        assert t.stats()["routines"]["gemm"]["served"] == 5


class TestServerTelemetryEndToEnd:
    @pytest.fixture
    def outcome_and_server(self, make_service, distinct_specs):
        specs = distinct_specs * 3
        trace = poisson_trace(specs, rate_hz=5000, seed=0, n_clients=2)
        server = GemmServer(make_service(), max_batch=8, max_wait_ms=3.0)
        return replay_trace(server, trace), server

    def test_batch_histogram_accounts_every_request(self, outcome_and_server):
        outcome, server = outcome_and_server
        histogram = outcome.stats["batch_size_histogram"]
        assert sum(size * count for size, count in histogram.items()) == \
            outcome.served

    def test_wait_is_within_latency(self, outcome_and_server):
        _, server = outcome_and_server
        assert all(w <= l + 1e-9 for w, l in
                   zip(server.telemetry.waits, server.telemetry.latencies))
        # Queue wait is bounded by the window plus execution time of the
        # batch in front; with a 3 ms window it stays far below a second.
        assert server.telemetry.wait().maximum < 1.0

    def test_stats_merge_shard_and_config_fields(self, outcome_and_server):
        outcome, server = outcome_and_server
        stats = outcome.stats
        assert stats["max_batch"] == 8
        assert stats["max_wait_ms"] == 3.0
        assert set(stats["shards"]) == {"default"}
        shard = stats["shards"]["default"]
        assert shard["requests"] == outcome.served
        assert stats["evaluations"] == shard["evaluations"]
        assert stats["model_passes"] >= 1

    def test_per_client_accounting_sums_to_totals(self, outcome_and_server):
        outcome, server = outcome_and_server
        clients = outcome.stats["clients"]
        assert set(clients) == {"client-0", "client-1"}
        assert sum(c["served"] for c in clients.values()) == outcome.served
        assert sum(c["submitted"] for c in clients.values()) == \
            outcome.stats["submitted"]
