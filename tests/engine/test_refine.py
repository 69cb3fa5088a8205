"""The opt-in ``refine=`` hook: online refinement inside GemmService."""

import numpy as np
import pytest

from repro.core.features import FeatureBuilder
from repro.core.online import OnlineRefiner
from repro.core.predictor import ThreadPredictor
from repro.engine import GemmService, PredictionCache
from repro.gemm.interface import GemmSpec

GRID = [1, 2, 4, 8, 12, 16]


class _BiasedModel:
    """Always scores the largest thread count best (a wrong prior)."""

    def predict(self, X):
        return -X[:, 3]  # column 3 is n_threads


def _biased_predictor():
    return ThreadPredictor(FeatureBuilder("both"), None, _BiasedModel(),
                           GRID, cache=PredictionCache(maxsize=64))


class TestRefineHook:
    def test_off_by_default(self, tiny_sim):
        service = GemmService(_biased_predictor(),
                              backend=tiny_sim.backend(GRID))
        assert service.refiner is None
        assert "refine_explorations" not in service.stats()

    def test_refine_true_builds_refiner(self, tiny_sim):
        service = GemmService(_biased_predictor(),
                              backend=tiny_sim.backend(GRID), refine=True)
        assert isinstance(service.refiner, OnlineRefiner)
        assert service.refiner.predictor is service.predictor

    def test_custom_refiner_must_share_predictor(self, tiny_sim):
        with pytest.raises(ValueError):
            GemmService(_biased_predictor(), backend=tiny_sim.backend(GRID),
                        refine=OnlineRefiner(_biased_predictor()))

    def test_converges_on_mispredicted_shape(self, tiny_sim):
        """The model insists on 16 threads for a skinny GEMM; measured
        feedback through the service must walk the choice downhill."""
        predictor = _biased_predictor()
        refiner = OnlineRefiner(predictor, explore_prob=0.4, min_trials=2,
                                seed=0)
        service = GemmService(predictor, backend=tiny_sim.backend(GRID),
                              repeats=2, refine=refiner)
        spec = GemmSpec(32, 512, 32)
        for _ in range(120):
            service.run(spec)
        final = refiner.steady_choice(spec.m, spec.k, spec.n)
        assert final < 16
        assert tiny_sim.true_time(spec, final) < tiny_sim.true_time(spec, 16)
        assert service.stats()["refine_explorations"] > 0

    def test_batch_path_refines_and_keeps_one_model_pass(self, tiny_sim):
        predictor = _biased_predictor()
        service = GemmService(predictor, backend=tiny_sim.backend(GRID),
                              repeats=2, refine=True)
        specs = [GemmSpec(32, 512, 32), GemmSpec(48, 512, 48),
                 GemmSpec(32, 512, 32)]
        for _ in range(40):
            service.run_batch(specs)
        # Still exactly one vectorised pass for the two unique shapes.
        assert predictor.n_model_passes == 1
        assert predictor.n_evaluations == 2
        # Measured feedback accumulated for every call.
        assert service.refiner._state_for(32, 512, 32).calls == 80
        final = service.refiner.steady_choice(32, 512, 32)
        assert tiny_sim.true_time(GemmSpec(32, 512, 32), final) <= \
            tiny_sim.true_time(GemmSpec(32, 512, 32), 16)

    def test_unrefined_service_is_unchanged(self, tiny_sim):
        """refine=None keeps the exact deterministic prediction path."""
        a = GemmService(_biased_predictor(), backend=tiny_sim.backend(GRID))
        b = GemmService(_biased_predictor(), backend=tiny_sim.backend(GRID))
        specs = [GemmSpec(32, 512, 32), GemmSpec(64, 64, 64)] * 3
        assert [r.n_threads for r in a.run_batch(specs)] == \
            [b.run(s).n_threads for s in specs]

    def test_from_bundle_refine_passthrough(self, tiny_bundle):
        bundle, sim = tiny_bundle
        with GemmService.from_bundle(bundle, sim, refine=True) as service:
            assert isinstance(service.refiner, OnlineRefiner)
            record = service.run(GemmSpec(64, 512, 64))
            assert record.n_threads in service.thread_grid
        assert service.refiner is None  # released on close
