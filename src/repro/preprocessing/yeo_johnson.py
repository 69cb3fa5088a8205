"""Yeo-Johnson power transformation with MLE lambda estimation.

The Yeo-Johnson transform (Yeo & Johnson 2000; paper Section II-C)
extends Box-Cox to non-positive values::

    psi(x, lam) = ((x+1)^lam - 1) / lam                     x >= 0, lam != 0
                  log(x+1)                                  x >= 0, lam == 0
                  -((-x+1)^(2-lam) - 1) / (2-lam)           x < 0,  lam != 2
                  -log(-x+1)                                x < 0,  lam == 2

The per-feature lambda is chosen by maximising the Gaussian profile
log-likelihood, exactly as the paper automates it "for each feature from
the original data distribution through maximum likelihood estimation".
The 1-D optimisation uses scipy's bounded Brent search. scipy is
imported on the first fit, inside :func:`yeo_johnson_mle_lambda`, not at
module scope: serving only applies fitted lambdas, and scipy's import
would otherwise dominate the start-up time and memory of every process
that imports :mod:`repro` to serve.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array


def yeo_johnson(x: np.ndarray, lam: float) -> np.ndarray:
    """Apply the Yeo-Johnson transform with a fixed lambda."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    if abs(lam) > 1e-10:
        out[pos] = (np.power(x[pos] + 1.0, lam) - 1.0) / lam
    else:
        out[pos] = np.log1p(x[pos])
    if abs(lam - 2.0) > 1e-10:
        out[~pos] = -(np.power(1.0 - x[~pos], 2.0 - lam) - 1.0) / (2.0 - lam)
    else:
        out[~pos] = -np.log1p(-x[~pos])
    return out


def yeo_johnson_inverse(z: np.ndarray, lam: float) -> np.ndarray:
    """Invert the transform (used by tests as a round-trip oracle)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    if abs(lam) > 1e-10:
        out[pos] = np.power(z[pos] * lam + 1.0, 1.0 / lam) - 1.0
    else:
        out[pos] = np.expm1(z[pos])
    if abs(lam - 2.0) > 1e-10:
        out[~pos] = 1.0 - np.power(1.0 - (2.0 - lam) * z[~pos], 1.0 / (2.0 - lam))
    else:
        out[~pos] = -np.expm1(-z[~pos])
    return out


def _log_likelihood(x: np.ndarray, lam: float) -> float:
    """Gaussian profile log-likelihood of the transformed sample."""
    z = yeo_johnson(x, lam)
    n = x.size
    var = z.var()
    if var <= 0:
        return -np.inf
    # Jacobian term: sum (lam-1) * sign(x) * log(|x|+1)
    jac = (lam - 1.0) * np.sum(np.sign(x) * np.log1p(np.abs(x)))
    return -0.5 * n * np.log(var) + jac


def yeo_johnson_mle_lambda(x: np.ndarray, bounds=(-3.0, 5.0)) -> float:
    """MLE estimate of lambda for one feature via bounded Brent search."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2 or np.all(x == x[0]):
        return 1.0  # identity for degenerate features
    from scipy import optimize

    result = optimize.minimize_scalar(
        lambda lam: -_log_likelihood(x, lam), bounds=bounds, method="bounded")
    return float(result.x)


class YeoJohnsonTransformer(BaseEstimator):
    """Per-feature Yeo-Johnson transform with MLE lambdas.

    Parameters
    ----------
    standardize:
        Also zero-mean/unit-variance the transformed output (matching
        sklearn's PowerTransformer default).  ADSALA's pipeline applies
        a separate :class:`~repro.preprocessing.standard.StandardScaler`
        afterwards, so this defaults to off.
    """

    def __init__(self, standardize: bool = False, lambda_bounds=(-3.0, 5.0)):
        self.standardize = standardize
        self.lambda_bounds = lambda_bounds

    def fit(self, X, y=None) -> "YeoJohnsonTransformer":
        X = check_array(X)
        self.lambdas_ = np.array([
            yeo_johnson_mle_lambda(X[:, j], bounds=self.lambda_bounds)
            for j in range(X.shape[1])
        ])
        self.n_features_ = X.shape[1]
        if self.standardize:
            Z = self._raw_transform(X)
            self.mean_ = Z.mean(axis=0)
            std = Z.std(axis=0)
            std[std == 0.0] = 1.0
            self.std_ = std
        return self

    def _raw_transform(self, X) -> np.ndarray:
        return np.column_stack([
            yeo_johnson(X[:, j], self.lambdas_[j]) for j in range(X.shape[1])
        ])

    def transform(self, X, check_input: bool = True) -> np.ndarray:
        self._check_fitted("lambdas_")
        if check_input:
            X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"X has {X.shape[1]} features, expected {self.n_features_}")
        Z = self._raw_transform(X)
        if self.standardize:
            Z = (Z - self.mean_) / self.std_
        return Z

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)

    def skewness_reduction(self, X) -> np.ndarray:
        """|skew| before minus after, per feature (Fig. 4's effect size)."""
        self._check_fitted("lambdas_")
        X = check_array(X)

        def skew(a):
            a = a - a.mean(axis=0)
            s2 = np.mean(a ** 2, axis=0)
            s3 = np.mean(a ** 3, axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(s2 > 0, s3 / np.power(s2, 1.5), 0.0)

        return np.abs(skew(X)) - np.abs(skew(self.transform(X)))
