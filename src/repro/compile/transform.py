"""Fold a fitted preprocessing pipeline into one fused array pass.

The inference-side :class:`~repro.preprocessing.pipeline.Pipeline` walks
Python stage objects: Yeo-Johnson transforms every column, the scaler
standardises the full matrix, and only then does correlation pruning
throw columns away.  :func:`lower_pipeline` folds the fitted stages into
a :class:`FusedTransform` that

* pushes the column gather to the *front* — pruned columns are never
  Yeo-Johnson-transformed or standardised at all,
* runs the Yeo-Johnson map and the affine stages over the whole
  gathered block, a few array calls for all columns together, with
  only the power / ``log1p`` call made once per column,
* validates the input once instead of once per stage.

All folded operations are column-independent and element-wise, and the
fused path executes the *same* floating-point operations per element as
:func:`~repro.preprocessing.yeo_johnson.yeo_johnson` and the stages'
own mean/scale arrays, so the output is **bitwise identical** to the
object pipeline's.  The gathered block is Fortran-ordered, so each
power / ``log1p`` call meets one contiguous column and a scalar
exponent — the same call shape the per-column reference makes, which
keeps vectorised math kernels on the same code path.  Affine stages
are kept as a sequence rather than composed algebraically —
``((x-m1)/s1 - m2)/s2`` is not bitwise ``(x-M)/S`` — so identity
survives even pipelines with several scalers.

Pipelines containing stages this module does not understand are not
folded: :func:`lower_pipeline` returns ``None`` and the caller keeps the
object path.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array
from repro.preprocessing.correlation import CorrelationPruner
from repro.preprocessing.standard import StandardScaler
from repro.preprocessing.yeo_johnson import YeoJohnsonTransformer

#: ``yeo_johnson``'s tolerance for treating lambda as exactly 0 or 2.
_LAMBDA_EPS = 1e-10


def _branch(base, log_arg, exponents, negate: bool):
    """One Yeo-Johnson branch for every column ``j`` of the
    Fortran-ordered inputs: ``(power(base[:, j], e_j) - 1) / e_j``, or
    ``log1p(log_arg[:, j])`` where ``e_j`` is 0; ``negate`` flips the
    sign before the divide."""
    use_power = np.abs(exponents) > _LAMBDA_EPS
    out = np.empty_like(base)
    # Rows of the transposes are the contiguous columns.
    for col, log_col, out_col, exponent, power in zip(
            base.T, log_arg.T, out.T, exponents.tolist(),
            use_power.tolist()):
        if power:
            np.power(col, exponent, out=out_col)
        else:
            np.log1p(log_col, out=out_col)
    np.subtract(out, 1.0, out=out, where=use_power)
    if negate:
        np.negative(out, out=out)
    np.divide(out, exponents, out=out, where=use_power)
    return out


def _yeo_johnson_block(Z, lambdas):
    """``yeo_johnson(Z[:, j], lambdas[j])`` for every column of the
    Fortran-ordered ``Z`` at once, bitwise.

    Entries ``x >= 0`` take ``(power(x + 1, lam) - 1) / lam``
    (``log1p(x)`` at lam = 0); negative entries, computed only when one
    exists, take ``-(power(1 - x, 2 - lam) - 1) / (2 - lam)``
    (``-log1p(-x)`` at lam = 2).
    """
    neg = Z < 0
    if not neg.any():
        return _branch(Z + 1.0, Z, lambdas, negate=False)
    # Each branch runs over the whole block and keeps only its own
    # entries, so NaNs in the other entries are expected.
    with np.errstate(invalid="ignore", divide="ignore"):
        out = _branch(Z + 1.0, Z, lambdas, negate=False)
        low = _branch(1.0 - Z, -Z, 2.0 - lambdas, negate=True)
    np.copyto(out, low, where=neg)
    return out


class FusedTransform:
    """Gather -> Yeo-Johnson -> affine chain over the gathered block.

    Parameters
    ----------
    keep:
        Output column ``j`` reads input column ``keep[j]``.
    lambdas:
        Per-output-column Yeo-Johnson lambda, or ``None`` when the
        pipeline had no power transform.
    affines:
        Sequence of ``(mean, scale)`` array pairs (aligned with
        ``keep``) applied in order as ``(col - mean[j]) / scale[j]``.
    n_features_in:
        Expected input width (the pipeline's first stage's).
    out_order:
        Memory layout of the output matrix: ``"F"`` when the folded
        pipeline ended in a column gather (numpy's fancy gather returns
        Fortran order), ``"C"`` otherwise.  Matching the object
        pipeline's layout matters because BLAS sums a matmul in a
        layout-dependent order — same values in a different layout can
        flip low bits of a downstream ``X @ coef``.
    """

    __slots__ = ("keep", "lambdas", "affines", "n_features_in", "out_order")

    def __init__(self, keep, lambdas, affines, n_features_in: int,
                 out_order: str = "C"):
        self.keep = np.asarray(keep, dtype=np.int64)
        self.lambdas = (None if lambdas is None
                        else np.asarray(lambdas, dtype=np.float64))
        self.affines = [(np.asarray(m, dtype=np.float64),
                         np.asarray(s, dtype=np.float64)) for m, s in affines]
        self.n_features_in = int(n_features_in)
        if out_order not in ("C", "F"):
            raise ValueError(f"out_order must be 'C' or 'F', got {out_order!r}")
        self.out_order = out_order

    @property
    def n_features_out(self) -> int:
        return self.keep.size

    def apply(self, X, check_input: bool = True) -> np.ndarray:
        """Transform a feature matrix (validated once at entry)."""
        if check_input:
            X = check_array(X)
        if X.shape[1] != self.n_features_in:
            raise ValueError(f"X has {X.shape[1]} features, "
                             f"expected {self.n_features_in}")
        # A fancy column gather copies; Fortran order makes every
        # column of the block contiguous.
        Z = np.asfortranarray(X[:, self.keep], dtype=np.float64)
        if self.lambdas is not None:
            Z = _yeo_johnson_block(Z, self.lambdas)
        for mean, scale in self.affines:
            Z -= mean
            Z /= scale
        return Z if self.out_order == "F" else np.ascontiguousarray(Z)

    @property
    def nbytes(self) -> int:
        total = self.keep.nbytes
        if self.lambdas is not None:
            total += self.lambdas.nbytes
        return total + sum(m.nbytes + s.nbytes for m, s in self.affines)

    def describe(self) -> dict:
        return {"n_features_in": self.n_features_in,
                "n_features_out": int(self.n_features_out),
                "yeo_johnson": self.lambdas is not None,
                "n_affine_stages": len(self.affines),
                "nbytes": int(self.nbytes)}


def lower_pipeline(pipeline) -> FusedTransform:
    """Fold a fitted pipeline's stages, or ``None`` if any stage can't be.

    Understands any in-order mix of :class:`YeoJohnsonTransformer`
    (before any affine stage), :class:`StandardScaler` and
    :class:`CorrelationPruner`.  An empty pipeline folds to the identity
    gather.
    """
    if pipeline is None:
        return None
    n_features_in = None
    keep = None          # current output column -> original input column
    lambdas = None       # aligned with the *current* columns
    affines = []         # (mean, scale) pairs aligned with current columns

    for _, stage in pipeline.steps:
        if n_features_in is None:
            n_features_in = getattr(stage, "n_features_", None)
            if n_features_in is None:
                return None
            keep = np.arange(n_features_in, dtype=np.int64)
        if isinstance(stage, YeoJohnsonTransformer):
            # A power transform after an affine stage does not commute
            # with the folding below; our pipelines never do that, and
            # anything exotic keeps the object path.  Fitted arrays are
            # already aligned with the stage's input = current columns.
            if affines or lambdas is not None:
                return None
            lambdas = stage.lambdas_.copy()
            if stage.standardize:
                affines.append((stage.mean_, stage.std_))
        elif isinstance(stage, StandardScaler):
            affines.append((stage.mean_, stage.scale_))
        elif isinstance(stage, CorrelationPruner):
            sub = np.asarray(stage.keep_, dtype=np.int64)
            keep = keep[sub]
            if lambdas is not None:
                lambdas = lambdas[sub]
            affines = [(m[sub], s[sub]) for m, s in affines]
        else:
            return None

    if n_features_in is None:  # empty pipeline: identity over unknown width
        return None
    return FusedTransform(keep=keep, lambdas=lambdas, affines=affines,
                          n_features_in=n_features_in,
                          out_order=_object_path_order(pipeline))


def _object_path_order(pipeline) -> str:
    """Memory order of the object pipeline's output for C-ordered input.

    The predictor always feeds C-contiguous feature matrices (the
    builder column-stacks), then each stage maps layout deterministically:
    Yeo-Johnson column-stacks (always C), the scaler's element-wise
    affine preserves its input's order, and the pruner's fancy gather
    returns Fortran order whatever it is given.
    """
    order = "C"
    for _, stage in pipeline.steps:
        if isinstance(stage, YeoJohnsonTransformer):
            order = "C"
        elif isinstance(stage, CorrelationPruner):
            order = "F"
        # StandardScaler: order-preserving, no change.
    return order
