"""Vectorised prediction: batch == scalar, cache interplay, amortisation."""

import numpy as np
import pytest

from repro.bench.throughput import prediction_throughput
from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.ml.registry import candidate_models

GRID = [1, 2, 4, 8, 16]


def random_shapes(n, seed=0, lo=8, hi=3000):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in rng.integers(lo, hi, size=3))
            for _ in range(n)]


class _OracleModel:
    """Predicts runtime = |p - target| so the argmin is known exactly."""

    def __init__(self, target):
        self.target = target

    def predict(self, X):
        return np.abs(X[:, 3] - self.target)


def _fit_on_synthetic(model, seed=0, n_rows=160):
    """Fit a registry model on a synthetic runtime surface."""
    rng = np.random.default_rng(seed)
    builder = FeatureBuilder("both")
    shapes = random_shapes(n_rows // len(GRID) + 1, seed=seed)
    X_rows, y_rows = [], []
    for m, k, n in shapes:
        X_rows.append(builder.build_for_grid(m, k, n, GRID))
        work = m * k * n / 1e9
        p = np.asarray(GRID, dtype=float)
        y_rows.append(work / p + 0.002 * p + 0.01 * rng.random(p.size))
    X = np.vstack(X_rows)[:n_rows]
    y = np.concatenate(y_rows)[:n_rows]
    model.fit(np.log1p(X), np.log1p(y))
    return builder


class _Log1pPipeline:
    def transform(self, X):
        return np.log1p(X)


class TestBatchEqualsScalar:
    def test_oracle_model_matches(self):
        predictor = ThreadPredictor(FeatureBuilder("both"), None,
                                    _OracleModel(target=8), GRID)
        shapes = random_shapes(50, seed=1)
        batch = predictor.predict_threads_batch(shapes)
        assert set(batch.tolist()) == {8}

    def test_scalar_equivalence_on_120_random_shapes(self):
        """Acceptance: bitwise-identical choices on >= 100 random shapes."""
        cand = next(c for c in candidate_models(budget="fast")
                    if c.name == "XGBoost")
        model = cand.build()
        builder = _fit_on_synthetic(model)
        shapes = random_shapes(120, seed=7)

        batch_pred = ThreadPredictor(builder, _Log1pPipeline(), model, GRID,
                                     cache_size=256)
        scalar_pred = ThreadPredictor(builder, _Log1pPipeline(), model, GRID)
        batch = batch_pred.predict_threads_batch(shapes)
        scalar = [scalar_pred.predict_threads(m, k, n) for m, k, n in shapes]
        np.testing.assert_array_equal(batch, np.asarray(scalar))

    @pytest.mark.parametrize(
        "cand", candidate_models(budget="fast", include_extra=True),
        ids=lambda c: c.name.replace(" ", "_"))
    def test_every_registered_model_matches(self, cand):
        """Property: batch == scalar shape-by-shape on every candidate."""
        model = cand.build()
        builder = _fit_on_synthetic(model, seed=3)
        predictor = ThreadPredictor(builder, None, model, GRID, cache_size=64)
        shapes = random_shapes(25, seed=11)
        batch = predictor.predict_threads_batch(shapes)
        predictor.invalidate_memo()
        scalar = [predictor.predict_threads(m, k, n) for m, k, n in shapes]
        np.testing.assert_array_equal(batch, np.asarray(scalar))

    def test_matches_trained_bundle_predictor(self, tiny_bundle):
        """Full pipeline (Yeo-Johnson/scaler/pruner) batch equivalence."""
        bundle, _ = tiny_bundle
        predictor = bundle.predictor(cache_size=256)
        shapes = random_shapes(110, seed=13, lo=8, hi=1200)
        batch = predictor.predict_threads_batch(shapes)
        predictor.invalidate_memo()
        scalar = [predictor.predict_threads(m, k, n) for m, k, n in shapes]
        np.testing.assert_array_equal(batch, np.asarray(scalar))

    def test_accepts_specs_with_dims(self):
        from repro.gemm.interface import GemmSpec

        predictor = ThreadPredictor(FeatureBuilder("both"), None,
                                    _OracleModel(4), GRID)
        specs = [GemmSpec(32, 64, 32), GemmSpec(100, 100, 100)]
        np.testing.assert_array_equal(
            predictor.predict_threads_batch(specs),
            predictor.predict_threads_batch([(32, 64, 32), (100, 100, 100)]))


class TestBatchCacheInterplay:
    @pytest.fixture
    def predictor(self):
        return ThreadPredictor(FeatureBuilder("both"), None, _OracleModel(8),
                               GRID, cache_size=32)

    def test_duplicates_evaluated_once(self, predictor):
        shapes = [(10, 10, 10), (20, 20, 20), (10, 10, 10), (20, 20, 20)]
        predictor.predict_threads_batch(shapes)
        assert predictor.n_evaluations == 2
        assert predictor.n_model_passes == 1

    def test_batch_populates_cache_for_scalar_calls(self, predictor):
        predictor.predict_threads_batch([(10, 10, 10)])
        evals = predictor.n_evaluations
        predictor.predict_threads(10, 10, 10)
        assert predictor.n_evaluations == evals
        assert predictor.n_memo_hits == 1

    def test_scalar_result_reused_by_batch(self, predictor):
        predictor.predict_threads(10, 10, 10)
        predictor.predict_threads_batch([(10, 10, 10), (30, 30, 30)])
        assert predictor.n_evaluations == 2  # only the new shape

    def test_all_cached_batch_skips_model(self, predictor):
        shapes = [(10, 10, 10), (20, 20, 20)]
        predictor.predict_threads_batch(shapes)
        evals = predictor.n_evaluations
        predictor.predict_threads_batch(shapes)
        assert predictor.n_evaluations == evals
        assert predictor.n_model_passes == 1

    def test_empty_batch(self, predictor):
        assert predictor.predict_threads_batch([]).size == 0


class TestAmortisation:
    def test_batch64_beats_single_call_cost(self, tiny_bundle):
        """Acceptance: amortised per-shape time at batch 64 is below the
        single-call cost (measured through the throughput harness)."""
        bundle, _ = tiny_bundle
        predictor = bundle.predictor(cache_size=1)
        rows = prediction_throughput(predictor, n_shapes=128,
                                     batch_sizes=(1, 64), repeats=3)
        by_batch = {row["batch_size"]: row for row in rows}
        assert by_batch[64]["per_shape_us"] < by_batch[1]["per_shape_us"]
        assert by_batch[64]["speedup"] > 1.0

    def test_measure_eval_time_batch_mode(self, tiny_bundle):
        bundle, _ = tiny_bundle
        predictor = bundle.predictor()
        t_scalar = predictor.measure_eval_time(repeats=3)
        t_batch = predictor.measure_eval_time(repeats=3, batch_size=64)
        assert 0 < t_batch < t_scalar
