"""Lower fitted models to flat array evaluators.

One dispatch point, :func:`lower_model`, turns each registered candidate
into an array-only evaluator whose ``predict`` is bitwise identical to
the object model's:

* tree ensembles (forest / AdaBoost / XGBoost / LightGBM) pack into one
  :class:`~repro.compile.trees.PackedTrees` traversed for all trees at
  once — accumulation over trees keeps the object path's sequential
  order (:func:`_tree_order_sum`), because pairwise summation would
  change low bits;
* the exact-greedy decision tree flattens its linked nodes into the same
  packed representation (its object path walks Python nodes per sample,
  the slowest evaluator in the registry);
* the linear family (OLS, ridge, ElasticNet, Bayesian ridge, linear SVR
  — our SVR's "kernel" is linear, so its precomputed kernel op *is* the
  coefficient dot product) lowers to one ``X @ coef + intercept``;
* brute-force kNN keeps its training set by construction and is not
  lowerable — :func:`lower_model` returns ``None`` and callers fall back
  to the object path.

Input validation is the *caller's* job (the plan validates once at
entry); the evaluators here index straight into the arrays.
"""

from __future__ import annotations

import numpy as np

from repro.compile.trees import PackedTrees


def _tree_order_sum(per_tree: np.ndarray, start: float) -> np.ndarray:
    """``start + per_tree[0] + per_tree[1] + ...`` per sample, in tree
    order: bitwise the object path's ``out = full(start); out += row``
    loop.

    ``np.add.accumulate`` (``cumsum``) is sequential along the axis for
    every shape, whereas ``np.add.reduce`` switches to pairwise
    summation when the summed axis is contiguous (a one-sample
    ``per_tree``).  ``per_tree`` is consumed.
    """
    per_tree[0] += start
    return np.cumsum(per_tree, axis=0, out=per_tree)[-1]


class LoweredLinear:
    """``X @ coef + intercept`` — the whole model in two arrays."""

    __slots__ = ("coef", "intercept")
    kind = "linear"

    def __init__(self, coef, intercept):
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    def predict(self, X) -> np.ndarray:
        return X @ self.coef + self.intercept

    def describe(self) -> dict:
        return {"kind": self.kind, "n_features": int(self.coef.size),
                "nbytes": int(self.coef.nbytes)}


class LoweredTree:
    """A single packed CART tree."""

    __slots__ = ("packed",)
    kind = "tree"

    def __init__(self, packed: PackedTrees):
        self.packed = packed

    def predict(self, X) -> np.ndarray:
        return self.packed.predict_per_tree(X)[0]

    def describe(self) -> dict:
        return {"kind": self.kind, **self.packed.describe()}


class LoweredMeanEnsemble:
    """Forest: mean of per-tree predictions, summed in tree order."""

    __slots__ = ("packed",)
    kind = "forest"

    def __init__(self, packed: PackedTrees):
        self.packed = packed

    def predict(self, X) -> np.ndarray:
        per_tree = self.packed.predict_per_tree(X)
        return _tree_order_sum(per_tree, 0.0) / self.packed.n_trees

    def describe(self) -> dict:
        return {"kind": self.kind, **self.packed.describe()}


class LoweredBoostedEnsemble:
    """Boosting: base score plus per-tree contributions in tree order."""

    __slots__ = ("packed", "base_score")
    kind = "boosted"

    def __init__(self, packed: PackedTrees, base_score: float):
        self.packed = packed
        self.base_score = float(base_score)

    def predict(self, X) -> np.ndarray:
        return _tree_order_sum(self.packed.predict_per_tree(X),
                               self.base_score)

    def describe(self) -> dict:
        return {"kind": self.kind, **self.packed.describe()}


class LoweredAdaBoost:
    """AdaBoost.R2: packed traversal + the weighted-median combination."""

    __slots__ = ("packed", "log_w")
    kind = "adaboost"

    def __init__(self, packed: PackedTrees, betas):
        from repro.ml.adaboost import boost_log_weights

        self.packed = packed
        self.log_w = boost_log_weights(betas)

    def predict(self, X) -> np.ndarray:
        from repro.ml.adaboost import weighted_median

        # The transpose copy restores the (n, T) row layout np.stack
        # produces on the object path, so argsort sees identical buffers.
        preds = np.ascontiguousarray(self.packed.predict_per_tree(X).T)
        return weighted_median(preds, self.log_w)

    def describe(self) -> dict:
        return {"kind": self.kind, **self.packed.describe()}


def lower_model(model):
    """Array evaluator for a fitted model, or ``None`` if unlowerable."""
    from repro.ml.adaboost import AdaBoostRegressor
    from repro.ml.bayes import BayesianRidge
    from repro.ml.elasticnet import ElasticNet
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.lgbm import LGBMRegressor
    from repro.ml.linear import LinearRegression, Ridge
    from repro.ml.svr import LinearSVR
    from repro.ml.tree import DecisionTreeRegressor
    from repro.ml.xgb import XGBRegressor

    if isinstance(model, RandomForestRegressor):
        return LoweredMeanEnsemble(PackedTrees.from_hist_trees(model.trees_))
    if isinstance(model, (XGBRegressor, LGBMRegressor)):
        return LoweredBoostedEnsemble(
            PackedTrees.from_hist_trees(model.trees_), model.base_score_)
    if isinstance(model, AdaBoostRegressor):
        return LoweredAdaBoost(
            PackedTrees.from_hist_trees(model.trees_), model.betas_)
    if isinstance(model, DecisionTreeRegressor):
        return LoweredTree(PackedTrees.from_cart(model.root_, model.depth_))
    if isinstance(model, (LinearRegression, Ridge, ElasticNet, BayesianRidge,
                          LinearSVR)):
        return LoweredLinear(model.coef_, model.intercept_)
    return None
