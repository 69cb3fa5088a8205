"""Predictor-level compiled-vs-object parity over every candidate model.

The acceptance property of the compiled-plan layer: for **every**
registered model, over random shape batches, the compiled predictor's
scores are bitwise equal to the object path's and therefore every thread
choice is identical — including degenerate batches and cache-warm
replays.
"""

import numpy as np
import pytest

from repro.core.predictor import ThreadPredictor
from repro.ml.registry import candidate_models

from tests.compile.conftest import EDGE_SHAPES, GRID, random_query_shapes

ALL_CANDIDATES = candidate_models(budget="fast", include_extra=True,
                                  random_state=0)


@pytest.fixture(scope="module")
def predictor_pairs(feature_setup, fitted_pipeline):
    """(object, compiled) ThreadPredictor per candidate model."""
    builder, _, _ = feature_setup
    pipeline, Z, y = fitted_pipeline
    pairs = {}
    for cand in ALL_CANDIDATES:
        model = cand.build().fit(Z, y)
        obj = ThreadPredictor(builder, pipeline, model, GRID, cache_size=64)
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=64).compile()
        pairs[cand.name] = (obj, comp)
    return pairs


@pytest.mark.parametrize("name", [c.name for c in ALL_CANDIDATES])
class TestEveryModel:
    def test_scores_bitwise_equal_over_random_batches(self, predictor_pairs,
                                                      name):
        obj, comp = predictor_pairs[name]
        for seed in range(3):
            shapes = random_query_shapes(17, seed=seed)
            np.testing.assert_array_equal(
                obj.predicted_runtimes_batch(shapes),
                comp.predicted_runtimes_batch(shapes))

    def test_thread_choices_identical(self, predictor_pairs, name):
        obj, comp = predictor_pairs[name]
        shapes = random_query_shapes(25, seed=99)
        np.testing.assert_array_equal(obj.predict_threads_batch(shapes),
                                      comp.predict_threads_batch(shapes))
        for m, k, n in random_query_shapes(8, seed=100):
            assert obj.predict_threads(m, k, n) \
                == comp.predict_threads(m, k, n)

    def test_edge_shapes_scalar_and_batched(self, predictor_pairs, name):
        obj, comp = predictor_pairs[name]
        np.testing.assert_array_equal(
            obj.predicted_runtimes_batch(EDGE_SHAPES),
            comp.predicted_runtimes_batch(EDGE_SHAPES))
        obj.invalidate_memo()
        expected = [obj.predict_threads(*s) for s in EDGE_SHAPES]
        for m, k, n in EDGE_SHAPES:
            np.testing.assert_array_equal(obj.predicted_runtimes(m, k, n),
                                          comp.predicted_runtimes(m, k, n))
        comp.invalidate_memo()
        assert [comp.predict_threads(*s) for s in EDGE_SHAPES] == expected
        for size in (1, 7, 16):
            comp.invalidate_memo()
            got = np.concatenate([
                comp.predict_threads_batch(EDGE_SHAPES[i:i + size])
                for i in range(0, len(EDGE_SHAPES), size)])
            np.testing.assert_array_equal(got, expected)

    def test_single_shape_batch(self, predictor_pairs, name):
        obj, comp = predictor_pairs[name]
        shape = random_query_shapes(1, seed=5)
        np.testing.assert_array_equal(obj.predict_threads_batch(shape),
                                      comp.predict_threads_batch(shape))

    def test_empty_batch(self, predictor_pairs, name):
        _, comp = predictor_pairs[name]
        out = comp.predict_threads_batch([])
        assert out.dtype == np.int64 and out.size == 0

    def test_cache_warm_replay(self, predictor_pairs, name):
        _, comp = predictor_pairs[name]
        comp.invalidate_memo()
        shapes = random_query_shapes(9, seed=42)
        first = comp.predict_threads_batch(shapes)
        passes_before = comp.n_model_passes
        replay = comp.predict_threads_batch(shapes)
        np.testing.assert_array_equal(first, replay)
        assert comp.n_model_passes == passes_before  # all from cache


class TestCompiledFlag:
    def test_compile_sets_plan(self, predictor_pairs):
        obj, comp = predictor_pairs["XGBoost"]
        assert not obj.compiled and comp.compiled

    def test_scalar_and_batch_agree_compiled(self, predictor_pairs):
        _, comp = predictor_pairs["Random Forest"]
        comp.invalidate_memo()
        shapes = random_query_shapes(6, seed=11)
        batch = comp.predict_threads_batch(shapes)
        comp.invalidate_memo()
        scalar = [comp.predict_threads(*s) for s in shapes]
        np.testing.assert_array_equal(batch, scalar)
