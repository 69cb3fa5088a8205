"""Serving observability: tracing, tier attribution, drift monitors.

The acceptance properties of the observability layer, end to end:
tracing changes no thread choice and adds no model pass; every served
request yields one complete, well-formed span chain; the predict span
records the tier that actually answered; and the table-fallback drift
monitor fires exactly once when traffic leaves the lattice — never on
in-lattice baseline traffic.
"""

import asyncio

import numpy as np
import pytest

from repro.compile.table import DecisionTable
from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.engine import GemmService, PredictionCache
from repro.gemm.interface import GemmSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import table_fallback_monitor
from repro.obs.tracing import CHAIN
from repro.serve.server import GemmServer

from .conftest import GRID, ExplodingBackend, OracleModel

AXES = ([32, 64, 128], [32, 64, 128], [32, 64, 128])
LATTICE = [GemmSpec(m, k, n) for m in AXES[0] for k in AXES[1]
           for n in AXES[2]]
OFF_LATTICE = [GemmSpec(33 + i, 65, 99) for i in range(12)]


def run(coro):
    return asyncio.run(coro)


def oracle_table() -> DecisionTable:
    """A lattice that always answers 8 — exactly what the oracle picks."""
    shape = tuple(len(a) for a in AXES)
    grid_index = np.full(shape, GRID.index(8), dtype=np.int16)
    return DecisionTable("gemm", GRID, AXES, grid_index)


@pytest.fixture
def make_tabled_service(tiny_sim):
    """Oracle service fronted by a tier-0 table over AXES."""

    def make(cache_size: int = 64):
        predictor = ThreadPredictor(
            FeatureBuilder("both"), None, OracleModel(), GRID,
            cache=PredictionCache(maxsize=cache_size), table=oracle_table())
        return GemmService(predictor, backend=tiny_sim.backend(GRID))

    return make


class TestTracingDisabled:
    def test_no_trace_state_anywhere(self, make_service, distinct_specs,
                                     monkeypatch):
        """An untraced server must never construct a RequestTrace."""

        def boom(*args, **kwargs):
            raise AssertionError("RequestTrace allocated with tracing off")

        monkeypatch.setattr("repro.serve.server.RequestTrace", boom)

        async def scenario():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=0.5) as server:
                await server.submit_many(distinct_specs[:8])
                return server

        server = run(scenario())
        assert server.collector is None
        stats = server.stats()
        assert "trace" not in stats
        assert "monitors" not in stats
        assert stats["served"] == 8

    def test_trace_id_ignored_when_untraced(self, make_service):
        async def scenario():
            async with GemmServer(make_service()) as server:
                record = await server.submit(GemmSpec(64, 64, 64),
                                             trace_id="ext-1")
                return record

        assert run(scenario()).n_threads == 8


class TestTracingEnabled:
    def test_every_served_request_has_a_complete_chain(self, make_service,
                                                       distinct_specs):
        async def scenario():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=0.5, tracing=True) as server:
                await server.submit_many(distinct_specs, client="c0")
                return server

        server = run(scenario())
        stats = server.stats()["trace"]
        assert stats["traces"] == len(distinct_specs)
        assert stats["complete"] == len(distinct_specs)
        assert stats["dropped"] == 0

        for trace in server.collector.traces():
            spans = trace.spans()
            assert [s.name for s in spans] == list(CHAIN)
            root = spans[0]
            assert root.parent_id is None
            assert all(s.parent_id == root.span_id for s in spans[1:])
            assert root.attrs["client"] == "c0"
            assert root.attrs["status"] == "ok"
            by_name = {s.name: s for s in spans}
            assert by_name["predict"].attrs["n_threads"] == 8
            assert by_name["batch"].attrs["batch_size"] >= 1
            assert by_name["execute"].attrs["runtime_s"] > 0
            assert root.t_end >= root.t_start

    def test_bitwise_parity_and_zero_extra_model_passes(self, make_service,
                                                        distinct_specs):
        """Tracing on vs off: identical choices, identical model passes."""

        async def replay(tracing):
            service = make_service(cache_size=64)
            async with GemmServer(service, max_batch=4, max_wait_ms=0.5,
                                  tracing=tracing) as server:
                records = await server.submit_many(distinct_specs * 2)
            return [r.n_threads for r in records], \
                service.stats()["model_passes"]

        traced_choices, traced_passes = run(replay(True))
        plain_choices, plain_passes = run(replay(False))
        assert traced_choices == plain_choices
        assert traced_passes == plain_passes

    def test_caller_supplied_trace_ids(self, make_service):
        async def scenario():
            async with GemmServer(make_service(), tracing=True) as server:
                await server.submit(GemmSpec(64, 64, 64), trace_id="ext-7")
                return server

        server = run(scenario())
        assert server.collector.trace_ids() == ["ext-7"]
        assert [s.trace_id for s in server.collector.chain("ext-7")] \
            == ["ext-7"] * len(CHAIN)

    def test_failed_request_traced_as_error(self, make_service):
        async def scenario():
            service = make_service(backend=ExplodingBackend())
            async with GemmServer(service, max_batch=2, max_wait_ms=0.2,
                                  tracing=True) as server:
                with pytest.raises(ArithmeticError):
                    await server.submit(GemmSpec(64, 64, 64))
                return server

        server = run(scenario())
        stats = server.stats()["trace"]
        assert stats["traces"] == 1
        assert stats["complete"] == 0
        trace = server.collector.traces()[0]
        assert trace.status == "error"
        assert trace.spans()[0].attrs["status"] == "error"


class TestTierAttribution:
    def test_cache_table_and_object_tiers(self, make_tabled_service):
        """The predict span names the tier that actually answered."""
        lattice, off = LATTICE[0], OFF_LATTICE[0]

        async def scenario():
            async with GemmServer(make_tabled_service(), max_batch=1,
                                  max_wait_ms=0.0, tracing=True) as server:
                await server.submit(lattice)    # miss -> table answers
                await server.submit(lattice)    # memoised -> cache
                await server.submit(off)        # off-lattice, no plan
                return server

        server = run(scenario())
        tiers = [t.tier for t in server.collector.traces()]
        assert tiers == ["table", "cache", "object"]
        choices = [t.n_threads for t in server.collector.traces()]
        assert choices[:2] == [8, 8]            # table == oracle

    def test_untabled_service_attributes_object(self, make_service):
        async def scenario():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=0.5, tracing=True) as server:
                await server.submit(GemmSpec(48, 48, 48))
                return server

        server = run(scenario())
        assert [t.tier for t in server.collector.traces()] == ["object"]


class TestDriftMonitors:
    def test_fallback_monitor_fires_once_on_off_lattice_shift(
            self, make_tabled_service):
        """The acceptance scenario: in-lattice baseline never fires;
        an off-lattice traffic shift fires exactly once, not per batch."""
        registry = MetricsRegistry()
        fired = []
        monitor = table_fallback_monitor(max_rate=0.2, min_lookups=4,
                                         callback=fired.append)

        async def scenario():
            async with GemmServer(make_tabled_service(cache_size=1),
                                  max_batch=4, max_wait_ms=0.5,
                                  monitors=[monitor],
                                  registry=registry) as server:
                # Phase 1: in-lattice baseline — table answers everything.
                await server.submit_many(LATTICE[:12])
                baseline_fired = monitor.fired
                # Phase 2: traffic shifts off the lattice.
                await server.submit_many(OFF_LATTICE)
                # Phase 3: stays off-lattice — must not re-fire.
                await server.submit_many(OFF_LATTICE)
                return server, baseline_fired

        server, baseline_fired = run(scenario())
        assert baseline_fired is None           # never on baseline
        assert len(fired) == 1                  # exactly once on the shift
        event = fired[0]
        assert event.monitor == "table_fallback_rate"
        assert event.value > 0.2
        assert server.stats()["table_fallbacks"] == 2 * len(OFF_LATTICE)

        # The firing is recorded everywhere an operator looks.
        drift_events = registry.events("drift")
        assert len(drift_events) == 1
        assert drift_events[0]["monitor"] == "table_fallback_rate"
        stats = server.stats()["monitors"]
        assert stats["monitors"]["table_fallback_rate"]["fired"] is not None
        assert len(stats["events"]) == 1

    def test_in_lattice_baseline_alone_never_fires(self, make_tabled_service):
        monitor = table_fallback_monitor(max_rate=0.2, min_lookups=4)

        async def scenario():
            async with GemmServer(make_tabled_service(cache_size=1),
                                  max_batch=4, max_wait_ms=0.5,
                                  monitors=[monitor],
                                  registry=MetricsRegistry()) as server:
                await server.submit_many(LATTICE)
                return server

        server = run(scenario())
        assert monitor.fired is None
        assert monitor.last_value == 0.0
        assert server.stats()["table_hits"] == len(LATTICE)
