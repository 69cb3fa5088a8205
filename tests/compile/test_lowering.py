"""Model lowering: bitwise-equal predictions for every candidate."""

import numpy as np
import pytest

from repro.compile import PackedTrees, compile_plan, lower_model
from repro.ml.knn import KNeighborsRegressor
from repro.ml.registry import candidate_models

ALL_CANDIDATES = candidate_models(budget="fast", include_extra=True,
                                  random_state=0)


@pytest.fixture(scope="module")
def fitted_models(fitted_pipeline):
    _, Z, y = fitted_pipeline
    return {cand.name: cand.build().fit(Z, y) for cand in ALL_CANDIDATES}


@pytest.mark.parametrize("name", [c.name for c in ALL_CANDIDATES])
def test_lowered_predictions_bitwise_equal(fitted_models, fitted_pipeline,
                                           name):
    _, Z, _ = fitted_pipeline
    model = fitted_models[name]
    lowered = lower_model(model)
    if isinstance(model, KNeighborsRegressor):
        assert lowered is None  # brute-force kNN keeps the object path
        return
    query = Z[::3]
    np.testing.assert_array_equal(model.predict(query),
                                  lowered.predict(query))


@pytest.mark.parametrize("name", ["Random Forest", "XGBoost", "LightGBM",
                                  "AdaBoost"])
def test_packed_per_tree_matches_each_tree(fitted_models, fitted_pipeline,
                                           name):
    _, Z, _ = fitted_pipeline
    model = fitted_models[name]
    packed = PackedTrees.from_hist_trees(model.trees_)
    per_tree = packed.predict_per_tree(Z[:40])
    assert per_tree.shape == (len(model.trees_), 40)
    for t, tree in enumerate(model.trees_):
        np.testing.assert_array_equal(tree.predict(Z[:40]), per_tree[t])


def test_packed_cart_matches_node_walk(fitted_models, fitted_pipeline):
    _, Z, _ = fitted_pipeline
    model = fitted_models["Decision Tree"]
    packed = PackedTrees.from_cart(model.root_, model.depth_)
    np.testing.assert_array_equal(model.predict(Z),
                                  packed.predict_per_tree(Z)[0])


def test_packed_sizes_accounted(fitted_models):
    model = fitted_models["Random Forest"]
    packed = PackedTrees.from_hist_trees(model.trees_)
    assert packed.n_nodes == sum(t.n_nodes for t in model.trees_)
    assert packed.n_trees == len(model.trees_)
    assert packed.nbytes > 0
    info = packed.describe()
    assert info["n_nodes"] == packed.n_nodes


def test_plan_records_fallbacks(fitted_models, fitted_pipeline):
    pipeline, _, _ = fitted_pipeline
    knn = fitted_models["KNN Regressor"]
    plan = compile_plan(pipeline, knn)
    assert plan.transform is not None
    assert plan.model is None
    assert not plan.fully_lowered
    assert plan.describe()["model"] == "object-fallback"


def test_plan_for_pipelineless_bundle(fitted_models):
    plan = compile_plan(None, fitted_models["Linear Regression"])
    assert plan.transform is None and not plan.transform_fallback
    assert plan.describe()["pipeline"] == "identity"
    assert plan.fully_lowered
