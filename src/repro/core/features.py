"""Feature engineering: the paper's Table II.

Two groups of features derived from the GEMM dimensions and the thread
count:

Group 1 (serial-runtime terms)
    ``m, k, n, n_threads, m*k, m*n, k*n, m*k*n, m*k + k*n + m*n``
Group 2 (parallel-runtime terms, everything divided by n_threads)
    ``m/p, k/p, n/p, m*k/p, m*n/p, k*n/p, m*k*n/p, (m*k+k*n+m*n)/p``

The paper generated many candidate combinations and kept these after
correlation pruning; the pruning itself happens later in the pipeline
(:mod:`repro.preprocessing.correlation`), so the builder emits the full
table and records names so pruned models stay interpretable.
"""

from __future__ import annotations

import numpy as np

FEATURE_NAMES_GROUP1 = (
    "m", "k", "n", "n_threads",
    "m*k", "m*n", "k*n", "m*k*n", "m*k+k*n+m*n",
)
FEATURE_NAMES_GROUP2 = (
    "m/p", "k/p", "n/p",
    "m*k/p", "m*n/p", "k*n/p", "m*k*n/p", "(m*k+k*n+m*n)/p",
)


#: Output columns of each group selection within the full 17-column
#: table (group 1 is columns 0-8, group 2 columns 9-16).
_GROUP_COLUMNS = {"both": slice(None), "group1": slice(0, 9),
                  "group2": slice(9, None), "raw": slice(0, 4)}


class FeatureBuilder:
    """Builds the Table II feature matrix from ``(m, k, n, p)`` arrays.

    Parameters
    ----------
    groups:
        Which feature groups to emit: "both" (paper default), "group1",
        "group2", or "raw" (just ``m, k, n, p`` — the ablation baseline).
    """

    def __init__(self, groups: str = "both"):
        if groups not in _GROUP_COLUMNS:
            raise ValueError(f"unknown feature group selection {groups!r}")
        self.groups = groups

    @property
    def names(self) -> tuple:
        return (FEATURE_NAMES_GROUP1 + FEATURE_NAMES_GROUP2)[
            _GROUP_COLUMNS[self.groups]]

    @property
    def n_features(self) -> int:
        return len(self.names)

    def _assemble(self, dims: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The kernel behind every builder: ``(S * P, n_features)`` rows.

        ``dims`` is an ``(S, 3)`` float64 array of shapes and ``p`` an
        ``(S, P)`` or ``(1, P)`` float64 array of thread counts; rows
        are shape-major.  The eight shape terms are computed once per
        shape, and group 2 is one broadcast divide of them by ``p``.
        """
        if (dims < 1).any():
            raise ValueError("GEMM dimensions must be >= 1")
        if (p < 1).any():
            raise ValueError("thread counts must be >= 1")
        # m, k, n, m*k, m*n, k*n, m*k*n, m*k + k*n + m*n
        terms = np.empty((dims.shape[0], 8))
        terms[:, :3] = dims
        np.multiply(dims[:, :1], dims[:, 1:], out=terms[:, 3:5])
        np.multiply(dims[:, 1], dims[:, 2], out=terms[:, 5])
        np.multiply(terms[:, 3], dims[:, 2], out=terms[:, 6])
        np.add(terms[:, 3], terms[:, 5], out=terms[:, 7])
        terms[:, 7] += terms[:, 4]
        out = np.empty((dims.shape[0], p.shape[1], 17))
        out[:, :, :3] = terms[:, None, :3]
        out[:, :, 3] = p
        out[:, :, 4:9] = terms[:, None, 3:]
        np.divide(terms[:, None, :], p[:, :, None], out=out[:, :, 9:])
        out = out.reshape(-1, 17)
        if self.groups == "both":
            return out
        return np.ascontiguousarray(out[:, _GROUP_COLUMNS[self.groups]])

    def build(self, m, k, n, p) -> np.ndarray:
        """Feature matrix of shape ``(len(m), n_features)``.

        Inputs broadcast against each other, so a single shape with a
        vector of candidate thread counts works directly.
        """
        m, k, n, p = np.broadcast_arrays(
            np.asarray(m, dtype=np.float64), np.asarray(k, dtype=np.float64),
            np.asarray(n, dtype=np.float64), np.asarray(p, dtype=np.float64))
        dims = np.stack([m.ravel(), k.ravel(), n.ravel()], axis=1)
        return self._assemble(dims, p.reshape(-1, 1))

    def build_for_grid(self, m: int, k: int, n: int, thread_grid) -> np.ndarray:
        """Features for one shape across every candidate thread count
        (the runtime predictor's hot path)."""
        p = np.asarray(thread_grid, dtype=np.float64)
        if p.size == 0:
            raise ValueError("thread_grid must be non-empty")
        dims = np.asarray([[m, k, n]], dtype=np.float64)
        return self._assemble(dims, p.reshape(1, -1))

    def build_for_batch(self, shapes, thread_grid) -> np.ndarray:
        """Features for many shapes across the grid in one matrix.

        Rows are shape-major: the first ``|grid|`` rows belong to
        ``shapes[0]`` in grid order (identical to ``build_for_grid``),
        the next ``|grid|`` to ``shapes[1]``, and so on — the vectorised
        prediction path reshapes the model output to
        ``(len(shapes), |grid|)`` on this contract.
        """
        p = np.asarray(thread_grid, dtype=np.float64)
        if p.size == 0:
            raise ValueError("thread_grid must be non-empty")
        dims = np.asarray(list(shapes), dtype=np.float64)
        if dims.ndim != 2 or dims.shape[1] != 3:
            raise ValueError("shapes must be a sequence of (m, k, n) triples")
        if dims.shape[0] == 0:
            raise ValueError("shapes must be non-empty")
        return self._assemble(dims, p.reshape(1, -1))

    def config(self) -> dict:
        return {"groups": self.groups}

    @classmethod
    def from_config(cls, cfg: dict) -> "FeatureBuilder":
        return cls(groups=cfg.get("groups", "both"))
