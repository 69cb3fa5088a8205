"""Kernel edge cases the parity suites do not reach.

Each compiled kernel is checked bitwise against a reference that does the
arithmetic one column, one tree or one shape at a time: the object model
itself, :func:`~repro.preprocessing.yeo_johnson.yeo_johnson` per column,
and the feature formulas kept here column by column.  The last class pins
that serving never changes what a plan or a table pickles to.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.compile import (DecisionTable, FusedTransform, compile_table,
                           lower_model)
from repro.compile.lower import _tree_order_sum
from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.ml.registry import candidate_models
from repro.preprocessing.yeo_johnson import yeo_johnson

from tests.compile.conftest import EDGE_SHAPES, GRID, random_query_shapes

ALL_CANDIDATES = candidate_models(budget="fast", include_extra=True,
                                  random_state=0)
ENSEMBLES = ["Random Forest", "AdaBoost", "XGBoost", "LightGBM",
             "Decision Tree"]


@pytest.fixture(scope="module")
def fitted_models(fitted_pipeline):
    _, Z, y = fitted_pipeline
    return {cand.name: cand.build().fit(Z, y) for cand in ALL_CANDIDATES}


class TestTinyBatches:
    @pytest.mark.parametrize("name", ENSEMBLES)
    @pytest.mark.parametrize("rows", [1, 2])
    def test_lowered_ensemble_bitwise_on_tiny_x(self, fitted_models,
                                                fitted_pipeline, name, rows):
        _, Z, _ = fitted_pipeline
        model = fitted_models[name]
        lowered = lower_model(model)
        for start in range(0, 60, 3):
            X = np.ascontiguousarray(Z[start:start + rows])
            np.testing.assert_array_equal(model.predict(X),
                                          lowered.predict(X))
            assert model.predict(X).tobytes() == lowered.predict(X).tobytes()

    @pytest.mark.parametrize("n_samples", [1, 2, 13])
    def test_tree_order_sum_is_the_sequential_loop(self, n_samples):
        rng = np.random.default_rng(n_samples)
        for _ in range(500):
            per_tree = rng.standard_normal((30, n_samples)) * 10.0 ** \
                rng.integers(-3, 4, (30, 1))
            start = float(rng.standard_normal())
            expected = np.full(n_samples, start)
            for row in per_tree:  # the object path's accumulation
                expected += row
            got = _tree_order_sum(per_tree.copy(), start)
            assert got.tobytes() == expected.tobytes()


class TestFusedYeoJohnsonBranches:
    LAMBDAS = (0.0, 2.0, 0.5)

    @pytest.fixture
    def mixed(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 3)) * 4.0
        # Both branch boundaries, signed zeros and the points where the
        # other branch's formula is undefined (x = -1, x <= -1, x >= 1).
        X[:8] = [[0.0, -0.0, -1.0], [-0.0, 0.0, 1.0], [-1.0, -1.0, -1.0],
                 [1.0, 1.0, 1.0], [-5.0, 5.0, -0.5], [5.0, -5.0, 0.5],
                 [-1e-300, 1e-300, -2.0], [2.0, -2.0, 3.0]]
        return X

    def _reference(self, X, affines):
        out = np.empty_like(X)
        for j, lam in enumerate(self.LAMBDAS):
            col = yeo_johnson(X[:, j], lam)
            for mean, scale in affines:
                col = (col - mean[j]) / scale[j]
            out[:, j] = col
        return out

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_affines", [0, 1, 2])
    def test_bitwise_against_yeo_johnson_per_column(self, mixed, order,
                                                    n_affines):
        rng = np.random.default_rng(n_affines)
        affines = [(rng.standard_normal(3), rng.uniform(0.5, 3.0, 3))
                   for _ in range(n_affines)]
        fused = FusedTransform(keep=[0, 1, 2], lambdas=self.LAMBDAS,
                               affines=affines, n_features_in=3,
                               out_order=order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fused.apply(mixed)
        expected = self._reference(mixed, affines)
        assert got.tobytes(order="A") == \
            np.asarray(expected, order=order).tobytes(order="A")
        assert got.flags[f"{order}_CONTIGUOUS"]

    def test_gather_reorders_and_repeats_columns(self, mixed):
        fused = FusedTransform(keep=[2, 0, 2], lambdas=(0.5, 0.0, 2.0),
                               affines=[], n_features_in=3, out_order="F")
        got = fused.apply(mixed)
        for j, (src, lam) in enumerate(zip((2, 0, 2), (0.5, 0.0, 2.0))):
            assert got[:, j].tobytes() == \
                yeo_johnson(mixed[:, src], lam).tobytes()


def column_by_column(m, k, n, p, groups):
    """The feature formulas one column at a time (the reference)."""
    m, k, n, p = np.broadcast_arrays(
        np.asarray(m, dtype=np.float64), np.asarray(k, dtype=np.float64),
        np.asarray(n, dtype=np.float64), np.asarray(p, dtype=np.float64))
    mk, mn, kn = m * k, m * n, k * n
    mkn = mk * n
    total = mk + kn + mn
    group1 = [m, k, n, p, mk, mn, kn, mkn, total]
    group2 = [m / p, k / p, n / p, mk / p, mn / p, kn / p, mkn / p,
              total / p]
    cols = {"raw": group1[:4], "group1": group1, "group2": group2,
            "both": group1 + group2}[groups]
    return np.column_stack([c.ravel() for c in cols])


class TestFeatureFormulas:
    GRIDS = ([1, 2, 4, 8, 12, 16], [1], [96, 3, 7])

    @pytest.mark.parametrize("groups", ["both", "group1", "group2", "raw"])
    def test_build_for_grid_and_batch_bitwise(self, groups):
        builder = FeatureBuilder(groups)
        shapes = EDGE_SHAPES + random_query_shapes(8, seed=3)
        for grid in self.GRIDS:
            p = np.asarray(grid, dtype=np.float64)
            expected_rows = []
            for m, k, n in shapes:
                expected = column_by_column(m, k, n, p, groups)
                got = builder.build_for_grid(m, k, n, grid)
                assert got.tobytes() == expected.tobytes()
                assert got.shape == expected.shape
                assert got.flags["C_CONTIGUOUS"]
                expected_rows.append(expected)
            batch = builder.build_for_batch(shapes, grid)
            assert batch.tobytes() == np.concatenate(expected_rows).tobytes()
            assert batch.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("groups", ["both", "raw"])
    def test_build_broadcasts_like_the_columns(self, groups):
        builder = FeatureBuilder(groups)
        m, k, n = np.asarray(EDGE_SHAPES).T
        p = np.arange(1, len(EDGE_SHAPES) + 1)
        for args in ((m, k, n, p), (m[0], k[0], n[0], p), (m, k, n, 4)):
            assert builder.build(*args).tobytes() == \
                column_by_column(*args, groups).tobytes()


class TestPickleStability:
    """Serving must not change what a table pickles to — the registry
    hashes these pickles to decide whether a retrofit is a no-op."""

    AXES = ([16, 64, 256, 1024], [31, 128, 512], [7, 90, 900])

    @pytest.mark.parametrize("name", ["XGBoost", "Random Forest",
                                      "Decision Tree", "Linear Regression"])
    @pytest.mark.parametrize("snap", ["exact", "plateau"])
    def test_serving_leaves_pickles_unchanged(self, feature_setup,
                                              fitted_pipeline, fitted_models,
                                              name, snap):
        builder, _, _ = feature_setup
        pipeline, _, _ = fitted_pipeline
        model = fitted_models[name]
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=4).compile()
        built = compile_table(comp, axes=self.AXES, snap=snap)
        # compile_table looks up every lattice point; serve through an
        # equal table that has answered nothing yet.
        table = DecisionTable(built.routine, built.thread_grid, built.axes,
                              built.grid_index, snap=built.snap,
                              meta=built.meta, cell_ok=built.cell_ok)
        table_before = pickle.dumps(table)
        tab = ThreadPredictor(builder, pipeline, model, GRID, cache_size=4,
                              plan=comp.plan, table=table)
        shapes = (random_query_shapes(20, seed=8) + EDGE_SHAPES
                  + [(16, 31, 7), (64, 128, 90), (40, 100, 50)])
        choices = tab.predict_threads_batch(shapes)
        for shape in shapes:
            tab.predict_threads(*shape)
        assert pickle.dumps(table) == table_before
        assert pickle.dumps(built) == table_before
        # A round trip rebuilds the derived lookup state and serves alike.
        again = ThreadPredictor(builder, pipeline, model, GRID, cache_size=4,
                                plan=comp.plan,
                                table=pickle.loads(table_before))
        np.testing.assert_array_equal(again.predict_threads_batch(shapes),
                                      choices)
