"""Slab-batched bulk submit: one future per micro-batch, full parity.

``submit_many`` must be indistinguishable from a loop of per-request
``submit`` calls in everything observable — record order, thread
choices, telemetry, error propagation — while allocating event-loop
bookkeeping per *micro-batch* instead of per request.
"""

import asyncio

import pytest

from repro.gemm.interface import GemmSpec
from repro.serve import GemmServer, ServerClosed, ServerOverloaded
from repro.serve.request import SlabRequest

from .conftest import ExplodingBackend


def burst(n: int) -> list:
    return [GemmSpec(16 + i, 32, 24) for i in range(n)]


class TestSlabParity:
    def test_matches_per_request_submit(self, make_service, distinct_specs):
        """Same specs through both paths on fresh twin servers."""

        async def bulk():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=5.0) as server:
                return await server.submit_many(distinct_specs)

        async def streaming():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=5.0) as server:
                return await asyncio.gather(
                    *(server.submit(s) for s in distinct_specs))

        slab_records = asyncio.run(bulk())
        single_records = asyncio.run(streaming())
        assert [(r.spec, r.n_threads) for r in slab_records] \
            == [(r.spec, r.n_threads) for r in single_records]

    def test_results_scatter_back_to_input_order(self, make_service):
        specs = burst(23)[::-1]  # descending m: order must be preserved

        async def run():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=1.0) as server:
                return await server.submit_many(specs)

        records = asyncio.run(run())
        assert [r.spec for r in records] == specs

    def test_empty_burst(self, make_service):
        async def run():
            async with GemmServer(make_service()) as server:
                return await server.submit_many([])

        assert asyncio.run(run()) == []

    def test_telemetry_counts_requests_not_slabs(self, make_service):
        specs = burst(10)

        async def run():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=1.0) as server:
                await server.submit_many(specs, client="bulk")
                return server

        server = asyncio.run(run())
        stats = server.stats()
        assert stats["submitted"] == 10 and stats["served"] == 10
        assert stats["clients"]["bulk"]["submitted"] == 10
        assert sum(k * v for k, v
                   in stats["batch_size_histogram"].items()) == 10


class TestFutureEconomy:
    def test_one_future_per_micro_batch(self, make_service, monkeypatch):
        """A 256-request burst through max_batch=16 must allocate
        exactly 16 slabs — one future each — not 256 futures."""
        created = []

        def counting_slab(*args, **kwargs):
            slab = SlabRequest(*args, **kwargs)
            created.append(slab)
            return slab

        monkeypatch.setattr("repro.serve.server.SlabRequest", counting_slab)
        specs = burst(256)

        async def run():
            async with GemmServer(make_service(), max_batch=16,
                                  max_wait_ms=1.0, max_queue=64,
                                  max_pending=1024) as server:
                return await server.submit_many(specs)

        records = asyncio.run(run())
        assert [r.spec for r in records] == specs
        assert len(created) == 16                     # ceil(256 / 16)
        assert all(slab.count == 16 for slab in created)
        assert sum(slab.count for slab in created) == 256
        futures = {id(slab.future) for slab in created}
        assert len(futures) == 16                     # one future per slab

    def test_ragged_tail_gets_its_own_slab(self, make_service, monkeypatch):
        created = []

        def counting_slab(*args, **kwargs):
            slab = SlabRequest(*args, **kwargs)
            created.append(slab)
            return slab

        monkeypatch.setattr("repro.serve.server.SlabRequest", counting_slab)

        async def run():
            async with GemmServer(make_service(), max_batch=8,
                                  max_wait_ms=1.0) as server:
                await server.submit_many(burst(21))

        asyncio.run(run())
        assert sorted(slab.count for slab in created) == [5, 8, 8]


class TestSlabFailureModes:
    def test_backend_error_reaches_the_caller(self, make_service,
                                              distinct_specs):
        server = GemmServer(make_service(backend=ExplodingBackend()),
                            max_batch=4, max_wait_ms=1.0)

        async def run():
            async with server:
                with pytest.raises(ArithmeticError, match="boom"):
                    await server.submit_many(distinct_specs[:8])

        asyncio.run(run())
        assert server.telemetry.failed == 8
        assert server.telemetry.served == 0
        assert server._pending == 0  # slots released despite the failure

    def test_burst_admission_is_all_or_nothing(self, make_service,
                                               distinct_specs):
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=1.0,
                            max_queue=4, max_pending=8)

        async def run():
            async with server:
                with pytest.raises(ServerOverloaded) as err:
                    await server.submit_many(distinct_specs)  # 20 > 8
                assert err.value.reason == "overload"
                # Nothing from the rejected burst may linger: a burst
                # that fits afterwards is served in full.
                return await server.submit_many(distinct_specs[:8])

        records = asyncio.run(run())
        assert len(records) == 8
        assert server.telemetry.rejected["overload"] == len(distinct_specs)
        assert server.telemetry.served == 8

    def test_submit_many_after_close_raises(self, make_service):
        server = GemmServer(make_service())

        async def run():
            async with server:
                pass
            await server.submit_many(burst(3))

        with pytest.raises(ServerClosed):
            asyncio.run(run())

    @pytest.mark.parametrize("max_queue", [2, 64])
    def test_cancelled_burst_releases_every_slot(self, make_service,
                                                 max_queue):
        """Cancel a burst two loop steps in: with a tiny queue some slabs
        are still waiting to be enqueued, with a roomy one every slab
        reached its shard.  Either way each slot is released once, and
        only the slabs that reached the queue count as submitted."""
        specs = burst(256)
        server = GemmServer(make_service(), max_batch=16, max_wait_ms=1.0,
                            max_queue=max_queue, max_pending=len(specs))

        async def run():
            async with server:
                task = asyncio.ensure_future(server.submit_many(specs))
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while server.pending and loop.time() < deadline:
                    await asyncio.sleep(0.01)
                pending, stats = server.pending, server.stats()
                # A leaked slot would get this full-size burst rejected.
                return pending, stats, await server.submit_many(specs)

        pending, stats, records = asyncio.run(run())
        assert pending == 0
        assert stats["submitted"] == stats["served"] + stats["failed"]
        assert [r.spec for r in records] == specs
        assert server.pending == 0

    def test_unknown_shard_rejected_before_admission(self, make_service):
        class LostRouter:
            def route_batch(self, specs, client):
                return ["nowhere"] * len(specs)

        server = GemmServer({"default": make_service()}, router=LostRouter())

        async def run():
            async with server:
                await server.submit_many(burst(3))

        with pytest.raises(KeyError, match="nowhere"):
            asyncio.run(run())
        assert server._pending == 0


class TestSlabTracing:
    def test_untraced_slabs_allocate_no_traces(self, make_service,
                                               monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("RequestTrace allocated with tracing off")

        monkeypatch.setattr("repro.serve.server.RequestTrace", boom)

        async def run():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=1.0) as server:
                await server.submit_many(burst(8))
                return server

        server = asyncio.run(run())
        assert server.collector is None
        assert server.telemetry.served == 8

    def test_traced_slabs_stamp_every_slot(self, make_service):
        async def run():
            async with GemmServer(make_service(), max_batch=4,
                                  max_wait_ms=1.0,
                                  tracing=True) as server:
                await server.submit_many(burst(10), client="traced")
                return server

        server = asyncio.run(run())
        traces = server.collector.traces()
        assert len(traces) == 10
        assert {t.client for t in traces} == {"traced"}
        assert all(t.n_threads == 8 for t in traces)
