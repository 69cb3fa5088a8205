"""The replay execution backend.

:class:`ReplayBackend` stands in for the gadi
:class:`~repro.machine.simulator.MachineSimulator` during measured runs.
It answers ``timed_run(spec, n_threads)`` with the exact float the
simulator returned for that pair when the inputs were prepared, so
records, selections and speedups stay bit-identical to serving on the
simulator, while the simulator's own Python cost (hundreds of
microseconds per call) stays out of the numbers.

A shape the table does not hold raises ``KeyError``: the benchmark then
counts the request as failed instead of inventing a runtime.
"""

from __future__ import annotations

import numpy as np


class ReplayBackend:
    """``ExecutionBackend`` over a precomputed ``timed_run`` table.

    Parameters
    ----------
    dims:
        ``(n_shapes, 3)`` array of ``(m, k, n)``.
    grid:
        Thread counts, one per column of ``times``.
    times:
        ``(n_shapes, len(grid))`` simulator times in seconds.
    """

    name = "replay-gadi"

    def __init__(self, dims, grid, times):
        self.thread_grid = np.asarray(grid, dtype=np.int64)
        self._column = {int(t): j for j, t in enumerate(self.thread_grid)}
        self._times = dict(zip(map(tuple, np.asarray(dims).tolist()),
                               map(tuple, np.asarray(times).tolist())))

    @classmethod
    def load(cls, path: str) -> "ReplayBackend":
        with np.load(path) as data:
            return cls(data["dims"], data["grid"], data["times"])

    def timed_run(self, spec, n_threads: int, repeats: int = 1) -> float:
        return self._times[spec.dims][self._column[n_threads]]


def worker_backend(path: str, trace_path: str = None) -> ReplayBackend:
    """``WorkerSpec.backend`` factory: the replay table inside a fleet worker.

    With ``trace_path`` set, the worker also records per-layer spans and
    writes their totals to that path when the worker process exits.
    """
    backend = ReplayBackend.load(path)
    if trace_path:
        from perfbench.trace import trace_worker

        trace_worker(path, trace_path)
    return backend
