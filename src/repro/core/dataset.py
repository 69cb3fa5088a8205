"""Timing dataset container.

One record per (GEMM shape, thread count) pair with the reduced runtime
of the repetition loop.  The container is column-oriented numpy so
feature building, filtering by memory bucket, and optimal-thread
queries (for the paper's histograms/heatmaps) are all vectorised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.gemm.counts import gemm_memory_bytes
from repro.gemm.interface import GemmSpec


@dataclass(frozen=True)
class TimingRecord:
    """One timing measurement.

    ``routine`` tags which BLAS routine the measurement timed; the
    ``(m, k, n)`` triple is always stored in the GEMM feature
    convention (a GEMV problem appears as ``(m, n, 1)``), so feature
    building never branches on the routine.
    """

    m: int
    k: int
    n: int
    n_threads: int
    runtime: float
    routine: str = "gemm"

    @property
    def spec(self):
        """The routine problem this record timed (registry-built)."""
        if self.routine == "gemm":
            return GemmSpec(self.m, self.k, self.n)
        from repro.core.routines import get_routine

        return get_routine(self.routine).from_feature_dims(
            (self.m, self.k, self.n))


class TimingDataset:
    """Column-oriented collection of timing records.

    Attributes (all numpy arrays of equal length):
    ``m, k, n, threads, runtime``.  ``routine`` tags the whole
    campaign — timing datasets are homogeneous per routine by
    construction (one installation gathers one routine), so the tag is
    a column-free scalar.
    """

    def __init__(self, m, k, n, threads, runtime, dtype: str = "float32",
                 routine: str = "gemm"):
        self.m = np.asarray(m, dtype=np.int64)
        self.k = np.asarray(k, dtype=np.int64)
        self.n = np.asarray(n, dtype=np.int64)
        self.threads = np.asarray(threads, dtype=np.int64)
        self.runtime = np.asarray(runtime, dtype=np.float64)
        self.dtype = dtype
        self.routine = str(routine)
        lengths = {a.shape[0] for a in (self.m, self.k, self.n, self.threads, self.runtime)}
        if len(lengths) != 1:
            raise ValueError(f"column length mismatch: {lengths}")
        if (self.runtime <= 0).any():
            raise ValueError("runtimes must be positive")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.m.shape[0]

    @classmethod
    def from_records(cls, records, dtype: str = "float32") -> "TimingDataset":
        records = list(records)
        if not records:
            raise ValueError("no records")
        routines = {getattr(r, "routine", "gemm") for r in records}
        if len(routines) != 1:
            raise ValueError(
                f"mixed-routine timing records {sorted(routines)}: one "
                f"dataset holds one routine's campaign")
        return cls(
            m=[r.m for r in records], k=[r.k for r in records],
            n=[r.n for r in records], threads=[r.n_threads for r in records],
            runtime=[r.runtime for r in records], dtype=dtype,
            routine=routines.pop())

    def records(self):
        return [TimingRecord(int(self.m[i]), int(self.k[i]), int(self.n[i]),
                             int(self.threads[i]), float(self.runtime[i]),
                             routine=self.routine)
                for i in range(len(self))]

    # -- derived columns -------------------------------------------------
    @property
    def memory_bytes(self) -> np.ndarray:
        itemsize = 4 if self.dtype == "float32" else 8
        return itemsize * (self.m * self.k + self.k * self.n + self.m * self.n)

    @property
    def memory_mb(self) -> np.ndarray:
        return self.memory_bytes / (1024.0 * 1024.0)

    # -- filters ---------------------------------------------------------
    def select(self, mask) -> "TimingDataset":
        mask = np.asarray(mask, dtype=bool)
        return TimingDataset(self.m[mask], self.k[mask], self.n[mask],
                             self.threads[mask], self.runtime[mask],
                             self.dtype, routine=self.routine)

    def within_memory(self, cap_bytes: int) -> "TimingDataset":
        return self.select(self.memory_bytes <= cap_bytes)

    def min_dim_below(self, limit: int) -> "TimingDataset":
        """Shapes with at least one dimension below ``limit`` (Fig. 8)."""
        min_dim = np.minimum(np.minimum(self.m, self.k), self.n)
        return self.select(min_dim < limit)

    # -- per-shape aggregation --------------------------------------------
    def unique_shapes(self):
        """Sorted unique (m, k, n) triples present in the dataset."""
        keys = np.stack([self.m, self.k, self.n], axis=1)
        return np.unique(keys, axis=0)

    def optimal_threads(self):
        """Per unique shape, the thread count with the lowest runtime.

        Returns ``(shapes, best_threads, best_runtime, max_thread_runtime)``
        where ``max_thread_runtime`` is the measured runtime at the
        largest thread count present for that shape (the paper's
        "traditional GEMM" baseline).
        """
        shapes = self.unique_shapes()
        best_t = np.empty(shapes.shape[0], dtype=np.int64)
        best_rt = np.empty(shapes.shape[0])
        max_rt = np.empty(shapes.shape[0])
        for i, (m, k, n) in enumerate(shapes):
            mask = (self.m == m) & (self.k == k) & (self.n == n)
            threads = self.threads[mask]
            runtime = self.runtime[mask]
            j = int(np.argmin(runtime))
            best_t[i] = threads[j]
            best_rt[i] = runtime[j]
            max_rt[i] = runtime[np.argmax(threads)]
        return shapes, best_t, best_rt, max_rt

    # -- persistence -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "dtype": self.dtype,
            "routine": self.routine,
            "m": self.m.tolist(), "k": self.k.tolist(), "n": self.n.tolist(),
            "threads": self.threads.tolist(), "runtime": self.runtime.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "TimingDataset":
        payload = json.loads(text)
        return cls(payload["m"], payload["k"], payload["n"],
                   payload["threads"], payload["runtime"],
                   dtype=payload.get("dtype", "float32"),
                   routine=payload.get("routine", "gemm"))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "TimingDataset":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def merge(self, other: "TimingDataset") -> "TimingDataset":
        if other.dtype != self.dtype:
            raise ValueError("cannot merge datasets of different dtypes")
        if getattr(other, "routine", "gemm") != self.routine:
            raise ValueError(
                f"cannot merge a {other.routine!r} campaign into a "
                f"{self.routine!r} one: per-routine models train on "
                f"per-routine timings")
        return TimingDataset(
            np.concatenate([self.m, other.m]),
            np.concatenate([self.k, other.k]),
            np.concatenate([self.n, other.n]),
            np.concatenate([self.threads, other.threads]),
            np.concatenate([self.runtime, other.runtime]),
            self.dtype, routine=self.routine)
