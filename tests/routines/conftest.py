"""Fixtures for the routine-generic runtime suite.

Two tiers:

* **oracle services** — per-routine :class:`ThreadPredictor` instances
  over synthetic models with *distinct* optimal targets per routine, so
  a test can tell from a thread choice alone which routine's model
  answered (the whole point of the refactor);
* **trained bundles** — one real (tiny) installation per registered
  routine, session-cached, for serialize/load/compile round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.core.routines import routine_names
from repro.engine import GemmService, PredictionCache
from repro.ml.registry import candidate_models

GRID = [1, 2, 4, 8, 12, 16]

#: Distinct per-routine optima: a correct dispatch is observable from
#: the thread choice alone.
ROUTINE_TARGETS = {"gemm": 8, "gemv": 2, "syrk": 4, "trsm": 16}


class RoutineOracleModel:
    """Scores ``|n_threads - target|``: argmin is always ``target``."""

    def __init__(self, target: int):
        self.target = target

    def predict(self, X):
        return np.abs(X[:, 3] - self.target)


def oracle_predictor(routine: str, cache_size: int = 64) -> ThreadPredictor:
    return ThreadPredictor(FeatureBuilder("both"), None,
                           RoutineOracleModel(ROUTINE_TARGETS[routine]),
                           GRID, cache=PredictionCache(maxsize=cache_size),
                           routine=routine)


@pytest.fixture
def make_mixed_service(tiny_sim):
    """Factory: a service with all four routines' oracle predictors."""

    def make(**service_kwargs) -> GemmService:
        service = GemmService(oracle_predictor("gemm"),
                              backend=tiny_sim,
                              **service_kwargs)
        for routine in ("gemv", "syrk", "trsm"):
            service.register_routine(routine,
                                     predictor=oracle_predictor(routine))
        return service

    return make


@pytest.fixture(scope="session")
def routine_bundles():
    """One real tiny-node installation per registered routine."""
    from repro.train.matrix import build_workflow

    cands = [c for c in candidate_models(budget="fast")
             if c.name in ("Bayes Regression", "Decision Tree")]
    bundles = {}
    for routine in routine_names():
        workflow = build_workflow(
            routine, "tiny", seed=0, n_shapes=24,
            memory_cap_bytes=8 * 1024 * 1024, thread_grid=GRID,
            candidates=cands, tune_iters=1, cv_folds=2, repeats=3,
            eval_time_s=1e-5)
        bundles[routine] = workflow.run()
    return bundles


def routine_specs(routine: str, n: int = 8, seed: int = 7) -> list:
    """Deterministic distinct problem instances for one routine."""
    from repro.core.routines import get_routine

    info = get_routine(routine)
    rng = np.random.default_rng(seed)
    dims = rng.integers(16, 700, size=(n, info.n_dims))
    return [info.build(*row) for row in np.unique(dims, axis=0)]
