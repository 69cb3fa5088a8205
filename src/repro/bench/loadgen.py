"""Deterministic synthetic load: CPU-bound backends and drill models.

The machine simulators answer ``timed_run`` from a closed-form cost
model in microseconds of *wall* time, so a single Python process can
"serve" tens of thousands of requests per second and a multi-process
fleet has nothing to win — inter-process framing would dominate the
measurement.  Real deployments spend real CPU per request.
:class:`CpuBoundBackend` stands in for that: a fixed pure-Python spin
(GIL-holding by construction, so one process serialises no matter how
many executor threads it owns), optionally a blocking ``sleep_s``
kernel-occupancy window (a real BLAS call keeps its worker busy for
the kernel's wall time, and separate workers' kernels overlap even
when the *host* driving the benchmark has a single core, where spin
work cannot), followed by a *returned* runtime that is a pure function
of the spec.  Fleet-vs-single comparisons then measure process
parallelism against identical work, and thread selections stay
deterministic because prediction never touches the backend.

Everything here is importable by dotted path from spawned fleet
workers (:class:`repro.fleet.WorkerSpec` carries factory paths, not
objects), which is also why :class:`ThreadBiasModel` lives in product
code rather than a test file: rollout drills publish bundles carrying
it, and a published bundle must unpickle inside any worker process.
"""

from __future__ import annotations

import time

import numpy as np


class CpuBoundBackend:
    """Execution backend burning a deterministic pure-Python spin.

    Parameters
    ----------
    thread_grid:
        Candidate grid exposed to :func:`~repro.engine.backend.as_backend`
        (serving normally clamps it to the bundle's own grid anyway).
    iters:
        Spin iterations per call — pure Python, so the GIL is held for
        the whole spin.  Calibrate against the request volume: ~20k
        iterations is a few hundred microseconds of real CPU on a
        typical container.
    sleep_s:
        Blocking kernel-occupancy per call: after the spin, the backend
        holds its process for this much wall time the way a synchronous
        BLAS kernel would.  Unlike the spin, this component parallelises
        across worker *processes* regardless of how many cores the host
        granting the benchmark has — the right knob when measuring fleet
        scaling inside a CPU-quota'd container.
    """

    def __init__(self, thread_grid=(1, 2, 4, 8, 12, 16),
                 iters: int = 20000, sleep_s: float = 0.0,
                 name: str = "cpu_bound"):
        self.thread_grid = np.asarray(
            sorted(set(int(t) for t in thread_grid)), dtype=np.int64)
        if self.thread_grid.size == 0 or (self.thread_grid < 1).any():
            raise ValueError("thread_grid must be non-empty positive ints")
        self.iters = int(iters)
        self.sleep_s = float(sleep_s)
        if self.sleep_s < 0:
            raise ValueError("sleep_s must be >= 0")
        self.name = str(name)
        self.n_calls = 0

    def timed_run(self, spec, n_threads: int, repeats: int = 1) -> float:
        acc = 1.0
        for _ in range(self.iters):
            acc = acc * 1.0000001 + 1e-9  # GIL-holding busy work
        if self.sleep_s:
            time.sleep(self.sleep_s)
        self.n_calls += 1
        # The *reported* runtime is a pure function of the spec — the
        # spin above costs wall time but never leaks measurement noise
        # into records, so replays compare bitwise across processes.
        flops = getattr(spec, "flops", None)
        if flops is None:
            flops = float(np.prod([float(d) for d in spec.dims]))
        return float(flops) / (float(n_threads) * 1e12) + acc * 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CpuBoundBackend(iters={self.iters}, "
                f"sleep_s={self.sleep_s}, "
                f"grid={self.thread_grid.tolist()})")


def cpu_bound_backend(iters: int = 20000, sleep_s: float = 0.0,
                      thread_grid=(1, 2, 4, 8, 12, 16)) -> CpuBoundBackend:
    """Factory for :class:`CpuBoundBackend` (fleet ``WorkerSpec.backend``
    target: ``"repro.bench.loadgen:cpu_bound_backend"``)."""
    return CpuBoundBackend(thread_grid=thread_grid, iters=iters,
                           sleep_s=sleep_s)


class ThreadBiasModel:
    """Synthetic model scoring ``|n_threads - target|`` from raw features.

    Used with ``pipeline=None`` and feature groups carrying the raw
    ``n_threads`` column (``"both"``/``"group1"``: column 3): argmin
    selection then deterministically picks the grid point closest to
    ``target``.  Publishing a bundle with a *different* target is the
    canonical way to mint a registry version whose selections diverge
    from the incumbent — exactly what a canary rollout must detect and
    roll back.
    """

    def __init__(self, target: int = 1, column: int = 3):
        self.target = float(target)
        self.column = int(column)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.abs(X[:, self.column] - self.target)


def bias_bundle(bundle, target: int = 1):
    """A publishable variant of ``bundle`` selecting threads near ``target``.

    Swaps the model for a :class:`ThreadBiasModel`, drops the pipeline
    (the bias model reads raw features) and the decision table (built
    for the old model).  The config and report are shared with the
    source bundle — version provenance in the registry stays
    meaningful.
    """
    from dataclasses import replace

    return replace(bundle, model=ThreadBiasModel(target=target),
                   pipeline=None, table=None)
