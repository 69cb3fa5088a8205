"""Server hot-reload: zero-downtime bundle swap between micro-batches."""

import asyncio

import numpy as np
import pytest

from repro.core.config import AdsalaConfig
from repro.core.training import TrainedBundle
from repro.gemm.interface import GemmSpec
from repro.serve.request import ServerClosed
from repro.serve.server import GemmServer

from .conftest import GRID


class OracleModel:
    def __init__(self, target: int = 8):
        self.target = target

    def predict(self, X):
        return np.abs(X[:, 3] - self.target)


def oracle_bundle(target: int):
    return TrainedBundle(
        config=AdsalaConfig(machine="tiny", thread_grid=list(GRID),
                            model_name=f"oracle-{target}"),
        pipeline=None, model=OracleModel(target))


def run(coro):
    return asyncio.run(coro)


class RecordingBackend:
    """Runs ``inner`` and keeps every dispatched thread count, in
    dispatch order."""

    def __init__(self, inner):
        self.inner = inner
        self.choices = []

    def timed_run(self, spec, n_threads, repeats=1):
        self.choices.append(n_threads)
        return self.inner.timed_run(spec, n_threads, repeats=repeats)


class TestServerReload:
    def test_queued_requests_finish_on_old_bundle(self, make_service,
                                                  distinct_specs):
        """FIFO ordering: everything admitted before the reload resolves
        with the old model, everything after with the new one."""

        async def scenario():
            async with GemmServer(make_service(cache_size=64), max_batch=4,
                                  max_wait_ms=0.5) as server:
                before_task = asyncio.gather(
                    *(server.submit(s) for s in distinct_specs))
                await asyncio.sleep(0)  # admit the burst first
                reload_info = await server.reload(oracle_bundle(1))
                after = await server.submit_many(distinct_specs[:5])
                before = await before_task
                return server, reload_info, before, after

        server, info, before, after = run(scenario())
        assert info["default"]["model_name"] == "oracle-1"
        assert [r.n_threads for r in before] == [8] * len(before)
        assert [r.n_threads for r in after] == [1] * len(after)
        stats = server.stats()
        assert stats["served"] == len(before) + len(after)
        assert stats["rejected"] == 0 and stats["failed"] == 0
        assert stats["reloads"] == 1

    def test_reload_under_sustained_load_drops_nothing(self, make_service,
                                                       distinct_specs,
                                                       tiny_sim):
        """Requests keep flowing while the swap happens; every one
        resolves, none is rejected, and no batch mixes bundles."""
        backend = RecordingBackend(tiny_sim)

        async def scenario():
            service = make_service(backend=backend, cache_size=256)
            async with GemmServer(service, max_batch=8,
                                  max_wait_ms=0.2) as server:
                async def client(i):
                    records = []
                    for spec in distinct_specs:
                        records.append(await server.submit(
                            spec, client=f"c{i}"))
                        await asyncio.sleep(0)
                    return records

                clients = asyncio.gather(*(client(i) for i in range(4)))
                await asyncio.sleep(0.005)
                await server.reload(oracle_bundle(1))
                results = await clients
                return server, service, results

        server, service, results = run(scenario())
        flat = [r for records in results for r in records]
        assert len(flat) == 4 * len(distinct_specs)
        assert {r.n_threads for r in flat} <= {8, 1}
        stats = server.stats()
        assert stats["rejected"] == 0 and stats["failed"] == 0
        assert stats["served"] == len(flat)
        assert service.bundle_generation == 1
        # The swap is never mid-batch: per-request choices within one
        # batch come from one predictor, so the old-target records all
        # precede the new-target records in dispatch order.
        choices = backend.choices
        assert len(choices) == len(flat)
        if 1 in choices and 8 in choices:
            assert choices.index(1) > len(choices) - 1 - choices[::-1].index(8)

    def test_reload_single_shard_leaves_others(self, make_service):
        async def scenario():
            shards = {"a": make_service(), "b": make_service()}
            async with GemmServer(shards, max_batch=2,
                                  max_wait_ms=0.2) as server:
                await server.reload(oracle_bundle(1), shard="a")
                ra = await server.submit(GemmSpec(64, 64, 64), shard="a")
                rb = await server.submit(GemmSpec(64, 64, 64), shard="b")
                return ra, rb, server.stats()

        ra, rb, stats = run(scenario())
        assert ra.n_threads == 1
        assert rb.n_threads == 8  # untouched shard still on the oracle
        assert stats["shards"]["a"]["reloads"] == 1
        assert stats["shards"]["b"]["reloads"] == 0

    def test_unknown_shard_rejected(self, make_service):
        async def scenario():
            async with GemmServer(make_service()) as server:
                with pytest.raises(KeyError, match="unknown shard"):
                    await server.reload(oracle_bundle(1), shard="nope")

        run(scenario())

    def test_reload_before_start_raises(self, make_service):
        async def scenario():
            server = GemmServer(make_service())
            with pytest.raises(ServerClosed, match="not started"):
                await server.reload(oracle_bundle(1))

        run(scenario())

    def test_stats_and_table_counters_monotonic_across_reload(self,
                                                              tiny_sim):
        """Reload retires a predictor but never rewinds a counter: table
        hits, per-routine served counts and engine totals all keep
        counting across the swap (the old predictor's tallies fold into
        the retired-counter bucket instead of vanishing)."""
        from repro.core.features import FeatureBuilder
        from repro.core.predictor import ThreadPredictor
        from repro.engine import GemmService, PredictionCache

        from .test_observability import LATTICE, oracle_table

        predictor = ThreadPredictor(
            FeatureBuilder("both"), None, OracleModel(), GRID,
            cache=PredictionCache(maxsize=4), table=oracle_table())
        service = GemmService(predictor, backend=tiny_sim)

        async def scenario():
            async with GemmServer(service, max_batch=4,
                                  max_wait_ms=0.5) as server:
                await server.submit_many(LATTICE[:10])
                before = server.stats()
                tables_before = service.table_counters()
                await server.reload(oracle_bundle(1))
                await server.submit_many(LATTICE[:10])
                return server, before, tables_before

        server, before, tables_before = run(scenario())
        after = server.stats()
        tables_after = service.table_counters()

        # Every pre-reload table hit survives the swap (the reloaded
        # oracle bundle has no table, so the count stays put rather
        # than resetting to zero with the fresh predictor).
        assert tables_before["table_hits"] == 10
        assert tables_after["table_hits"] == tables_before["table_hits"]
        assert tables_after["table_fallbacks"] \
            >= tables_before["table_fallbacks"]

        # Per-routine serving stats keep counting across the swap.
        assert before["routines"]["gemm"]["served"] == 10
        assert after["routines"]["gemm"]["served"] == 20
        assert after["reloads"] == 1

        # Engine aggregates are monotonic too — the reload folded the
        # retired predictor's evaluations instead of dropping them.
        for key in ("served", "submitted", "evaluations", "model_passes"):
            assert after[key] >= before[key], key
        assert after["shards"]["default"]["requests"] \
            >= before["shards"]["default"]["requests"]

    def test_failed_reload_keeps_old_bundle(self, make_service):
        class BrokenBundle:
            """No .config / .predictor: service.reload must raise."""

        async def scenario():
            async with GemmServer(make_service(), max_batch=2,
                                  max_wait_ms=0.2) as server:
                with pytest.raises(AttributeError):
                    await server.reload(BrokenBundle())
                record = await server.submit(GemmSpec(48, 48, 48))
                return record, server.stats()

        record, stats = run(scenario())
        assert record.n_threads == 8  # old bundle still serving
        assert stats["reloads"] == 0
