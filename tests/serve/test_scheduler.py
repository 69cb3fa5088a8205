"""Micro-batching scheduler and admission-control edge cases."""

import asyncio

import pytest

from repro.gemm.interface import GemmSpec
from repro.serve import (BatchPolicy, GemmServer, ServerClosed,
                         ServerOverloaded)

from .conftest import ExplodingBackend


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_ms=-1.0)

    def test_server_rejects_bad_limits(self, make_service):
        with pytest.raises(ValueError):
            GemmServer(make_service(), max_queue=0)
        with pytest.raises(ValueError):
            GemmServer(make_service(), max_pending=0)
        with pytest.raises(ValueError):
            GemmServer(make_service(), fair_share=1.5)


class TestWindowFlush:
    def test_single_straggler_flushes_on_window(self, make_service):
        """One lonely request must not wait for max_batch companions."""
        server = GemmServer(make_service(), max_batch=64, max_wait_ms=10.0)

        async def run():
            async with server:
                return await server.submit(GemmSpec(64, 64, 64))

        record = asyncio.run(run())
        assert record.n_threads == 8
        assert server.telemetry.batch_size_histogram() == {1: 1}

    def test_zero_wait_serves_singletons(self, make_service, distinct_specs):
        """max_wait_ms=0 degenerates to per-request serving."""
        server = GemmServer(make_service(), max_batch=64, max_wait_ms=0.0)

        async def run():
            async with server:
                for spec in distinct_specs[:5]:
                    await server.submit(spec)

        asyncio.run(run())
        assert server.telemetry.batch_size_histogram() == {1: 5}


class TestBatchFormation:
    def test_max_batch_caps_batch_size(self, make_service, distinct_specs):
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=50.0)

        async def run():
            async with server:
                await server.submit_many(distinct_specs[:10])

        asyncio.run(run())
        sizes = server.telemetry.batch_size_histogram()
        assert sum(size * n for size, n in sizes.items()) == 10
        assert max(sizes) <= 4
        assert 4 in sizes  # a concurrent burst actually filled a batch

    def test_batch_resolves_every_future_in_order(self, make_service,
                                                  distinct_specs):
        server = GemmServer(make_service(), max_batch=8, max_wait_ms=20.0)

        async def run():
            async with server:
                return await server.submit_many(distinct_specs)

        records = asyncio.run(run())
        assert [r.spec for r in records] == distinct_specs
        assert all(r.n_threads == 8 for r in records)


class TestAdmissionControl:
    def test_hard_limit_rejects_with_overloaded(self, make_service,
                                                distinct_specs):
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=5.0,
                            max_queue=2, max_pending=4, fair_share=None)

        async def run():
            async with server:
                results = await asyncio.gather(
                    *(server.submit(s) for s in distinct_specs),
                    return_exceptions=True)
            return results

        results = asyncio.run(run())
        rejected = [r for r in results if isinstance(r, ServerOverloaded)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert rejected, "the burst must overflow the hard limit"
        assert served, "backpressure must still serve admitted requests"
        assert all(r.reason == "overload" for r in rejected)
        assert server.telemetry.rejected["overload"] == len(rejected)

    def test_backpressure_without_loss(self, make_service, distinct_specs):
        """A tiny queue throttles but never drops below the hard limit."""
        server = GemmServer(make_service(), max_batch=2, max_wait_ms=1.0,
                            max_queue=1, max_pending=1000)

        async def run():
            async with server:
                return await asyncio.gather(
                    *(server.submit(s) for s in distinct_specs))

        records = asyncio.run(run())
        assert len(records) == len(distinct_specs)
        assert server.telemetry.rejected == {}

    def test_fair_share_protects_other_tenants(self, make_service,
                                               distinct_specs):
        # Cap: each client may hold 2 of the 8 admission slots.
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=5.0,
                            max_queue=8, max_pending=8, fair_share=0.25)

        async def run():
            async with server:
                greedy = asyncio.gather(
                    *(server.submit(s, client="greedy")
                      for s in distinct_specs), return_exceptions=True)
                polite = asyncio.gather(
                    *(server.submit(s, client="polite")
                      for s in distinct_specs[:2]), return_exceptions=True)
                return await greedy, await polite

        greedy, polite = asyncio.run(run())
        greedy_rejected = [r for r in greedy
                           if isinstance(r, ServerOverloaded)]
        assert greedy_rejected
        assert all(r.reason == "fair_share" for r in greedy_rejected)
        # The polite tenant was never crowded out.
        assert all(not isinstance(r, Exception) for r in polite)
        clients = server.telemetry.stats()["clients"]
        assert clients["polite"]["rejected"] == 0
        assert clients["greedy"]["rejected"] == len(greedy_rejected)

    def test_pending_accounting_returns_to_zero(self, make_service,
                                                distinct_specs):
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=2.0)

        async def run():
            async with server:
                await server.submit_many(distinct_specs)

        asyncio.run(run())
        assert server.pending == 0


class TestShutdown:
    def test_close_drains_in_flight_requests(self, make_service,
                                             distinct_specs):
        """Requests admitted before close() must resolve, not drop."""
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=200.0)

        async def run():
            await server.start()
            tasks = [asyncio.ensure_future(server.submit(s))
                     for s in distinct_specs[:6]]
            await asyncio.sleep(0)   # let every submit reach its queue
            await server.close()     # well before the 200 ms window
            return await asyncio.gather(*tasks)

        records = asyncio.run(run())
        assert len(records) == 6
        assert all(r.n_threads == 8 for r in records)
        assert server.pending == 0

    def test_submit_after_close_raises(self, make_service):
        server = GemmServer(make_service())

        async def run():
            async with server:
                pass
            await server.submit(GemmSpec(8, 8, 8))

        with pytest.raises(ServerClosed):
            asyncio.run(run())

    def test_submit_before_start_raises(self, make_service):
        server = GemmServer(make_service())
        with pytest.raises(ServerClosed):
            asyncio.run(server.submit(GemmSpec(8, 8, 8)))

    def test_close_is_idempotent(self, make_service):
        server = GemmServer(make_service())

        async def run():
            async with server:
                pass
            await server.close()

        asyncio.run(run())  # no error


class TestFailurePropagation:
    def test_backend_error_reaches_every_caller(self, make_service,
                                                distinct_specs):
        service = make_service(backend=ExplodingBackend())
        server = GemmServer(service, max_batch=4, max_wait_ms=10.0)

        async def run():
            async with server:
                return await asyncio.gather(
                    *(server.submit(s) for s in distinct_specs[:4]),
                    return_exceptions=True)

        results = asyncio.run(run())
        assert all(isinstance(r, ArithmeticError) for r in results)
        assert server.telemetry.failed == 4
        assert server.pending == 0

    def test_unknown_shard_rejected(self, make_service):
        server = GemmServer(make_service())

        async def run():
            async with server:
                await server.submit(GemmSpec(8, 8, 8), shard="nope")

        with pytest.raises(KeyError):
            asyncio.run(run())


class TestCarryPaths:
    """An over-budget entry comes back as a carry and seeds the next
    batch; control items (SHUTDOWN, reload) arriving while a carried
    entry is collecting must not strand it."""

    LIGHT = GemmSpec(8, 8, 8)
    # Fits one light GEMM, not two: every second request is carried.
    BUDGET = 1.5 * float(GemmSpec(8, 8, 8).flops)

    def test_cost_carry_resolves_after_shutdown(self, make_service):
        server = GemmServer(make_service(), max_batch=16, max_wait_ms=500.0,
                            max_batch_cost=self.BUDGET)

        async def scenario():
            async with server:
                tasks = [asyncio.create_task(server.submit(self.LIGHT))
                         for _ in range(2)]
                await asyncio.sleep(0.05)
                # Exiting drains: SHUTDOWN lands while the carried
                # request's 500 ms window is still open.
            return await asyncio.gather(*tasks)

        records = asyncio.run(scenario())
        assert [r.n_threads for r in records] == [8, 8]
        assert server.telemetry.batch_size_histogram() == {1: 2}
        reasons = server.stats()["batch_close_reasons"]
        assert reasons.get("cost", 0) == 1      # the carry that split them
        assert reasons.get("control", 0) == 1   # shutdown closed the carry

    def test_cost_carry_executes_before_reload(self, make_service):
        """The carried request still resolves on the bundle it was
        admitted under; the swap applies to the *next* batch."""
        from repro.core.config import AdsalaConfig
        from repro.core.training import TrainedBundle

        from .conftest import GRID, OracleModel

        spec_a = GemmSpec(24, 64, 48)
        spec_b = GemmSpec(32, 64, 48)
        budget = 1.2 * float(spec_a.flops)  # b never joins a's batch
        bundle = TrainedBundle(
            config=AdsalaConfig(machine="tiny", thread_grid=list(GRID),
                                model_name="oracle-1"),
            pipeline=None, model=OracleModel(target=1))
        server = GemmServer(make_service(), max_batch=16, max_wait_ms=500.0,
                            max_batch_cost=budget)

        async def scenario():
            async with server:
                first = asyncio.create_task(server.submit(spec_a))
                second = asyncio.create_task(server.submit(spec_b))
                await asyncio.sleep(0)  # admit both ahead of the reload
                await server.reload(bundle)
                after = await server.submit(spec_a)
                return await first, await second, after

        r_a, r_b, r_after = asyncio.run(scenario())
        assert (r_a.n_threads, r_b.n_threads) == (8, 8)  # old oracle
        assert r_after.n_threads == 1                    # new oracle
        stats = server.stats()
        assert stats["reloads"] == 1
        assert stats["batch_close_reasons"].get("cost", 0) == 1
        assert stats["batch_close_reasons"].get("control", 0) == 1

    def test_slab_carry_seeds_next_batch(self, make_service):
        """A slab that would overflow max_batch is carried whole and
        forms the next batch by itself."""
        server = GemmServer(make_service(), max_batch=4, max_wait_ms=200.0)
        scalar_spec = GemmSpec(16, 32, 24)
        slab_specs = [GemmSpec(24 + 8 * i, 64, 48) for i in range(4)]

        async def scenario():
            async with server:
                single = asyncio.create_task(server.submit(scalar_spec))
                await asyncio.sleep(0)  # scalar heads the queue
                slab = await server.submit_many(slab_specs)
                return await single, slab

        single, slab = asyncio.run(scenario())
        assert single.spec == scalar_spec
        assert [r.spec for r in slab] == slab_specs
        # The slab (4 slots) could not join the scalar's batch (1 + 4 > 4).
        assert server.telemetry.batch_size_histogram() == {1: 1, 4: 1}
        assert server.stats()["batch_close_reasons"].get("size", 0) == 2
