"""One GemmServer, mixed GEMM/GEMV/TRSM/SYRK traffic, per-routine shards."""

import asyncio

import pytest

from repro.blas.gemv import GemvSpec
from repro.blas.syrk import SyrkSpec
from repro.blas.trsm import TrsmSpec
from repro.engine import GemmService
from repro.gemm.interface import GemmSpec
from repro.serve import GemmServer, RoutineRouter
from tests.routines.conftest import ROUTINE_TARGETS, oracle_predictor

MIXED = [GemmSpec(64, 512, 64), GemvSpec(m=64, n=512),
         SyrkSpec(n=96, k=64), TrsmSpec(m=128, n=32)] * 3


def _shards(tiny_sim) -> dict:
    return {routine: GemmService(oracle_predictor(routine), backend=tiny_sim)
            for routine in ROUTINE_TARGETS}


class TestRoutineRouter:
    def test_identity_routes_to_routine_name(self):
        router = RoutineRouter()
        assert router.route(GemvSpec(m=8, n=8)) == "gemv"
        assert router.route(GemmSpec(8, 8, 8)) == "gemm"
        assert router.route((8, 8, 8)) == "gemm"

    def test_explicit_routes_with_default(self):
        router = RoutineRouter({"gemv": "level2"}, default="level3")
        assert router.route(GemvSpec(m=8, n=8)) == "level2"
        assert router.route(SyrkSpec(n=8, k=8)) == "level3"

    def test_missing_route_without_default_raises(self):
        router = RoutineRouter({"gemv": "level2"})
        with pytest.raises(KeyError, match="trsm"):
            router.route(TrsmSpec(m=8, n=8))


class TestMixedTrafficServer:
    def _serve(self, shards, specs, **server_kwargs):
        server = GemmServer(shards, router=RoutineRouter(),
                            max_batch=8, max_wait_ms=5.0, **server_kwargs)

        async def run():
            async with server:
                return await server.submit_many(specs)

        return asyncio.run(run()), server

    def test_each_request_resolved_by_its_routines_model(self, tiny_sim):
        records, _ = self._serve(_shards(tiny_sim), MIXED)
        assert [r.n_threads for r in records] == \
            [ROUTINE_TARGETS[s.routine] for s in MIXED]

    def test_choices_bitwise_match_single_routine_path(self, tiny_sim):
        """The acceptance criterion: served mixed-trace choices equal
        the dedicated single-routine services run synchronously."""
        records, _ = self._serve(_shards(tiny_sim), MIXED)
        dedicated = _shards(tiny_sim)
        expected = [dedicated[s.routine].run(s).n_threads for s in MIXED]
        assert [r.n_threads for r in records] == expected

    def test_telemetry_segmented_by_routine(self, tiny_sim):
        _, server = self._serve(_shards(tiny_sim), MIXED)
        routines = server.telemetry.routine_stats()
        assert set(routines) == set(ROUTINE_TARGETS)
        for routine, entry in routines.items():
            assert entry["submitted"] == entry["served"] == 3
            assert entry["rejected"] == entry["failed"] == 0
            assert entry["latency_ms"]["p99_ms"] >= 0
        stats = server.stats()
        assert set(stats["routines"]) == set(ROUTINE_TARGETS)

    def test_rejections_tagged_with_routine(self, tiny_sim):
        shards = _shards(tiny_sim)
        server = GemmServer(shards, router=RoutineRouter(), max_batch=2,
                            max_wait_ms=1.0, max_queue=1, max_pending=1)

        async def run():
            async with server:
                return await asyncio.gather(
                    *(server.submit(s) for s in MIXED),
                    return_exceptions=True)

        results = asyncio.run(run())
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(served) < len(MIXED)  # overload genuinely triggered
        rejected = sum(entry["rejected"] for entry
                       in server.telemetry.routine_stats().values())
        assert rejected == len(MIXED) - len(served)


class TestServerRoutineReload:
    def test_reload_one_routine_shard_via_kwargs(self, routine_bundles,
                                                 tiny_sim):
        """server.reload(bundle, shard=..., routine=...) swaps a single
        routine's predictor inside a multi-routine shard."""
        service = GemmService.from_bundle(routine_bundles["gemm"], tiny_sim)
        service.register_routine("gemv", bundle=routine_bundles["gemv"])
        server = GemmServer(service, max_batch=4, max_wait_ms=2.0)

        async def run():
            async with server:
                before = dict(service.predictors)
                info = await server.reload(routine_bundles["gemv"],
                                           routine="gemv")
                record = await server.submit(GemvSpec(m=128, n=128))
                return before, info, record

        before, info, record = asyncio.run(run())
        assert info["default"]["routine"] == "gemv"
        assert service.predictors["gemv"] is not before["gemv"]
        assert service.predictors["gemm"] is before["gemm"]
        assert record.runtime > 0
