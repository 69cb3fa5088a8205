"""Shared fixtures for the compiled-plan suite.

A realistic-but-tiny setting: Table II features over random GEMM shapes
and a synthetic runtime-like label, the real preprocessing stages fitted
exactly as :meth:`InstallationWorkflow.preprocess` assembles them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureBuilder
from repro.preprocessing.correlation import CorrelationPruner
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.standard import StandardScaler
from repro.preprocessing.yeo_johnson import YeoJohnsonTransformer

GRID = [1, 2, 4, 8, 12, 16]

#: Sixteen shapes at the edges of the shape domain: unit dimensions, the
#: axis maxima of a campaign lattice under a 500 MB cap (72760, 73942,
#: 71969), and shapes just and far beyond that lattice's bounding box.
EDGE_SHAPES = [
    (1, 1, 1), (1, 73942, 1), (72760, 1, 1), (1, 1, 71969),
    (72760, 73942, 71969), (72760, 1, 71969), (1, 73942, 71969),
    (2, 1, 3000), (16, 3000, 1), (72761, 73943, 71970),
    (72761, 2, 5), (3, 73943, 1), (1, 2, 71970),
    (250000, 250000, 250000), (250000, 1, 1), (1, 1, 250000),
]


def fit_stages(X, use_yeo_johnson: bool = True):
    """Fit the inference-side stages the way the training workflow does."""
    stages = []
    data = X
    if use_yeo_johnson:
        yj = YeoJohnsonTransformer()
        data = yj.fit_transform(data)
        stages.append(("yeo_johnson", yj))
    scaler = StandardScaler()
    data = scaler.fit_transform(data)
    stages.append(("scaler", scaler))
    pruner = CorrelationPruner()
    data = pruner.fit_transform(data)
    stages.append(("corr_prune", pruner))
    return Pipeline.from_fitted(stages), data


@pytest.fixture(scope="module")
def feature_setup():
    """(builder, raw features X, label y) over random shapes x GRID."""
    rng = np.random.default_rng(7)
    builder = FeatureBuilder("both")
    shapes = rng.integers(16, 3000, (60, 3))
    X = builder.build_for_batch(shapes, GRID)
    y = np.log(X[:, 7] / X[:, 3] + X[:, 16] + rng.random(X.shape[0]))
    return builder, X, y


@pytest.fixture(scope="module")
def fitted_pipeline(feature_setup):
    """(pipeline, transformed Z, y) with the full three-stage pipeline."""
    _, X, y = feature_setup
    pipeline, Z = fit_stages(X)
    return pipeline, Z, y


def random_query_shapes(n: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in row)
            for row in rng.integers(16, 3000, (n, 3))]
