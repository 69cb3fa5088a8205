"""Serving-layer fixtures: fresh oracle-model services on the tiny node.

The oracle model scores thread count 8 best for every shape, so thread
choices are trivially predictable and every assertion about scheduling,
admission and routing is deterministic.  ``make_service`` is a factory
(not a shared instance) because parity and determinism tests need
*fresh* services with empty caches and zeroed counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.engine import GemmService, PredictionCache
from repro.gemm.interface import GemmSpec

GRID = [1, 2, 4, 8, 12, 16]


class OracleModel:
    """Scores ``|n_threads - target|``: argmin is always ``target``."""

    def __init__(self, target: int = 8):
        self.target = target

    def predict(self, X):
        return np.abs(X[:, 3] - self.target)


class ExplodingBackend:
    """A backend whose execution always fails (error-path tests)."""

    def timed_run(self, spec, n_threads, repeats=1):
        raise ArithmeticError("boom")


@pytest.fixture
def make_service(tiny_sim):
    """Factory for fresh oracle services over the tiny simulator."""

    def make(backend=None, cache_size: int = 64, **service_kwargs):
        predictor = ThreadPredictor(
            FeatureBuilder("both"), None, OracleModel(), GRID,
            cache=PredictionCache(maxsize=cache_size))
        return GemmService(predictor,
                           backend=backend or tiny_sim,
                           **service_kwargs)

    return make


@pytest.fixture
def distinct_specs():
    """Twenty distinct small shapes (cache-hostile stream)."""
    return [GemmSpec(24 + 8 * i, 64, 48) for i in range(20)]
