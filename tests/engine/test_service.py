"""GemmService: dedup, batch prediction, dispatch, stats, facade parity."""

import gc
import weakref

import numpy as np
import pytest

from repro.blas.adapter import RoutineSimulator
from repro.blas.gemv import GemvSpec
from repro.blas.syrk import SyrkSpec
from repro.blas.trsm import TrsmSpec
from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.engine import GemmService, PredictionCache
from repro.gemm.interface import GemmSpec

GRID = [1, 2, 4, 8, 12, 16]


class _OracleModel:
    def __init__(self, target=8):
        self.target = target

    def predict(self, X):
        return np.abs(X[:, 3] - self.target)


@pytest.fixture
def service(tiny_sim):
    predictor = ThreadPredictor(FeatureBuilder("both"), None, _OracleModel(),
                                GRID, cache=PredictionCache(maxsize=64))
    return GemmService(predictor, backend=tiny_sim, repeats=2)


class TestSingleCalls:
    def test_run_records_history(self, service):
        record = service.run(GemmSpec(64, 64, 64))
        assert record.n_threads == 8
        assert record.runtime > 0
        assert not record.memoised
        assert service.stats()["requests"] == 1

    def test_repeat_call_is_memoised(self, service):
        service.run(GemmSpec(64, 64, 64))
        record = service.run(GemmSpec(64, 64, 64))
        assert record.memoised
        assert service.memo_hit_rate == pytest.approx(0.5)

    def test_baseline_uses_grid_max(self, service, tiny_sim):
        spec = GemmSpec(48, 48, 48)
        t = service.run_baseline(spec)
        assert t == pytest.approx(tiny_sim.timed_run(spec, 16, repeats=2))

    def test_closed_service_rejects_calls(self, service):
        service.close()
        with pytest.raises(RuntimeError):
            service.run(GemmSpec(8, 8, 8))

    def test_closed_service_rejects_stats(self, service):
        service.run(GemmSpec(64, 64, 64))
        service.run(GemmSpec(64, 64, 64))
        service.close()
        with pytest.raises(RuntimeError, match="has been closed"):
            service.stats()
        with pytest.raises(RuntimeError, match="has been closed"):
            service.cache
        with pytest.raises(RuntimeError, match="has been closed"):
            service.thread_grid
        assert service.memo_hit_rate == pytest.approx(0.5)


class TestKeepsNoRecord:
    """The engine counts calls; a record its caller drops is garbage."""

    def test_run_record_is_collected(self, service):
        ref = weakref.ref(service.run(GemmSpec(64, 64, 64)))
        gc.collect()
        assert ref() is None
        assert service.stats()["requests"] == 1

    def test_run_batch_records_are_collected(self, service):
        refs = [weakref.ref(record) for record in service.run_batch(
            [GemmSpec(32, 32, 32), GemmSpec(64, 64, 64),
             GemmSpec(32, 32, 32)])]
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert service.stats()["requests"] == 3


class TestBatchServing:
    def test_records_in_input_order(self, service):
        specs = [GemmSpec(32, 32, 32), GemmSpec(64, 64, 64),
                 GemmSpec(32, 32, 32)]
        records = service.run_batch(specs)
        assert [r.spec for r in records] == specs

    def test_dedup_one_evaluation_per_unique_shape(self, service):
        specs = [GemmSpec(32, 32, 32), GemmSpec(64, 64, 64),
                 GemmSpec(32, 32, 32), GemmSpec(64, 64, 64)]
        service.run_batch(specs)
        assert service.predictor.n_evaluations == 2
        assert service.predictor.n_model_passes == 1

    def test_memoised_flags(self, service):
        service.run(GemmSpec(32, 32, 32))
        records = service.run_batch(
            [GemmSpec(32, 32, 32),   # cached before the batch
             GemmSpec(64, 64, 64),   # fresh
             GemmSpec(64, 64, 64)])  # duplicate within the batch
        assert [r.memoised for r in records] == [True, False, True]

    def test_batch_then_scalar_shares_cache(self, service):
        service.run_batch([GemmSpec(32, 32, 32)])
        record = service.run(GemmSpec(32, 32, 32))
        assert record.memoised

    def test_empty_batch(self, service):
        assert service.run_batch([]) == []

    def test_stats_fields(self, service):
        service.run_batch([GemmSpec(32, 32, 32), GemmSpec(64, 64, 64),
                           GemmSpec(32, 32, 32)])
        stats = service.stats()
        assert stats["requests"] == 3
        assert stats["batches"] == 1
        assert stats["evaluations"] == 2
        # Cache lookups are per unique shape; the intra-batch duplicate
        # shares the batch evaluation and shows up in memo_hit_rate.
        assert stats["cache_misses"] == 2 and stats["cache_hits"] == 0
        assert stats["memo_hit_rate"] == pytest.approx(1 / 3, abs=1e-4)


class TestMultiRoutineDispatch:
    """All four routines serve through one GEMM predictor on a
    simulator: GEMV, SYRK and TRSM calls run on the routine oracle."""

    @pytest.fixture
    def routed(self, tiny_sim):
        predictor = ThreadPredictor(FeatureBuilder("both"), None,
                                    _OracleModel(), GRID, cache_size=64)
        return GemmService(predictor, tiny_sim)

    def test_all_four_routines_serve(self, routed):
        specs = [GemmSpec(64, 64, 64), GemvSpec(m=256, n=256),
                 SyrkSpec(n=64, k=32), TrsmSpec(m=64, n=32)]
        records = routed.run_batch(specs)
        assert len(records) == 4
        assert all(r.runtime > 0 for r in records)
        assert all(r.n_threads in GRID for r in records)

    def test_routing_targets(self, routed, tiny_sim):
        assert routed._executor("gemm") is tiny_sim
        syrk = routed._executor("syrk")
        assert isinstance(syrk, RoutineSimulator)
        assert syrk.simulator is tiny_sim
        assert routed._executor("syrk") is syrk  # resolved once

    def test_syrk_cheaper_than_equivalent_gemm(self, routed):
        syrk = SyrkSpec(n=256, k=128)
        t_syrk = routed.run(syrk).runtime
        t_gemm = routed.run(syrk.equivalent_gemm()).runtime
        assert t_syrk < t_gemm


class TestConstruction:
    def test_from_bundle(self, tiny_bundle):
        bundle, sim = tiny_bundle
        with GemmService.from_bundle(bundle, sim, cache_size=128) as service:
            records = service.run_batch(
                [GemmSpec(32, 768, 32), GemmSpec(32, 768, 32)])
            assert records[1].memoised
            assert service.cache.maxsize == 128
            np.testing.assert_array_equal(
                service.thread_grid,
                sorted(set(bundle.config.thread_grid)))


class TestAdsalaGemmFacade:
    """The public library keeps its API while riding on the engine."""

    def test_run_batch_and_cache_stats(self, tiny_bundle):
        from repro.core.library import AdsalaGemm

        bundle, sim = tiny_bundle
        with AdsalaGemm(bundle, sim) as gemm:
            records = gemm.run_batch([GemmSpec(64, 64, 64)] * 3)
            assert len(records) == 3
            stats = gemm.cache_stats
            assert stats["requests"] == 3
            assert stats["evaluations"] == 1  # dups share one model pass
            assert gemm.memo_hit_rate == pytest.approx(2 / 3)

    def test_real_lru_outlives_the_paper_memo(self, tiny_bundle):
        """A-B-A now hits the cache (the size-1 memo never could)."""
        from repro.core.library import AdsalaGemm

        bundle, sim = tiny_bundle
        with AdsalaGemm(bundle, sim) as gemm:
            gemm.gemm(100, 100, 100)
            gemm.gemm(200, 200, 200)
            record = gemm.gemm(100, 100, 100)
            assert record.memoised

    def test_paper_memo_mode(self, tiny_bundle):
        from repro.core.library import AdsalaGemm

        bundle, sim = tiny_bundle
        with AdsalaGemm(bundle, sim, cache_size=1) as gemm:
            gemm.gemm(100, 100, 100)
            gemm.gemm(200, 200, 200)
            record = gemm.gemm(100, 100, 100)
            assert not record.memoised

    def test_grid_clamped_to_a_smaller_machine(self, tiny_bundle):
        """A bundle installed on a 16-thread node serves on a 2-thread
        host, choosing what ``GemmService.from_bundle`` chooses."""
        from repro.core.library import AdsalaRuntime
        from repro.machine.host import HostMachine

        bundle, _ = tiny_bundle
        assert max(bundle.config.thread_grid) > 2
        machine = HostMachine(max_threads=2)
        reference = GemmService.from_bundle(bundle, machine)
        specs = [GemmSpec(32, 768, 32), GemmSpec(64, 64, 64),
                 GemmSpec(96, 16, 48), GemmSpec(8, 300, 8)]
        with AdsalaRuntime(bundle, machine) as runtime:
            records = [runtime.run(spec) for spec in specs]
        assert [r.n_threads for r in records] == \
            [reference.run(spec).n_threads for spec in specs]
        assert all(r.runtime > 0 for r in records)
