"""Shared fixtures: tiny machines, small datasets, deterministic RNGs.

Everything here is sized for test speed: the tiny node has 16 logical
CPUs so exhaustive thread-grid assertions stay cheap, and the cached
micro-installation trains two candidates on a few dozen shapes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.gather import DataGatherer
from repro.core.training import InstallationWorkflow
from repro.machine.noise import QUIET, NoiseModel
from repro.machine.presets import tiny_test_node
from repro.machine.simulator import MachineSimulator
from repro.ml.registry import candidate_models

MB = 1024 * 1024


class CountingExecutor(ThreadPoolExecutor):
    """A default executor that counts the calls the event loop hands it."""

    def __init__(self):
        super().__init__()
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_sim():
    """Deterministic (noise-free) small simulated node."""
    return MachineSimulator(tiny_test_node(), noise=QUIET, seed=0)


@pytest.fixture
def noisy_tiny_sim():
    return MachineSimulator(tiny_test_node(), noise=NoiseModel(), seed=0)


@pytest.fixture
def tiny_grid():
    return [1, 2, 4, 8, 12, 16]


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small gathered dataset on the tiny node (session-cached)."""
    sim = MachineSimulator(tiny_test_node(), seed=0)
    gatherer = DataGatherer(sim, thread_grid=[1, 2, 4, 8, 12, 16], repeats=3)
    return gatherer.gather(n_shapes=40, memory_cap_bytes=64 * MB, seed=0)


@pytest.fixture(scope="session")
def tiny_bundle():
    """A micro-installation (two candidates) on the tiny node.

    The 8 MB memory cap keeps the campaign in the regime where thread
    count genuinely matters on an 8-core node, so assertions about
    speedup over the max-thread baseline are meaningful.
    """
    sim = MachineSimulator(tiny_test_node(), seed=0)
    cands = [c for c in candidate_models(budget="fast")
             if c.name in ("Linear Regression", "XGBoost")]
    workflow = InstallationWorkflow(
        sim, memory_cap_bytes=8 * MB, n_shapes=70,
        thread_grid=[1, 2, 4, 8, 12, 16], candidates=cands,
        tune_iters=2, cv_folds=2, repeats=3, seed=0)
    return workflow.run(), sim


@pytest.fixture
def regression_data(rng):
    """A nonlinear regression problem every model can be smoke-tested on."""
    n, d = 600, 6
    X = rng.standard_normal((n, d))
    y = (np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] ** 2
         + X[:, 2] * X[:, 3] + 0.05 * rng.standard_normal(n))
    return X, y
