"""Execution on the real host machine (not simulated).

The paper's library ultimately times and runs GEMM on actual hardware.
:class:`HostMachine` provides that path here: it executes GEMM through
the real threaded executor (:class:`repro.gemm.parallel.ParallelGemm`,
whose numpy inner kernels release the GIL) and exposes the same
``timed_run`` protocol as :class:`repro.machine.simulator.MachineSimulator`,
so the whole ADSALA stack — gathering, training, the runtime library —
can run against genuine wall-clock measurements on whatever machine
hosts this process.  The executor/operand caching lives in
:class:`repro.gemm.parallel.ExecutorPool`.

Expect meaningful results only on multi-core hosts and with campaign
sizes appropriate to real timing costs; the simulator remains the tool
for paper-scale experiments.
"""

from __future__ import annotations

import os

import numpy as np

from repro.gemm.blocked import BlockSizes
from repro.gemm.interface import GemmSpec
from repro.gemm.parallel import ExecutorPool
from repro.machine.affinity import AffinityPolicy
from repro.machine.clock import SimClock


class HostMachine:
    """Real-execution backend with the simulator's timing interface.

    Parameters
    ----------
    max_threads:
        Thread-count ceiling (default: ``os.cpu_count()``).
    blocks:
        Cache blocking for the executor.
    operand_cache:
        Keep allocated operands per shape between timing calls.  Real
        BLAS benchmarking allocates once and loops (paper Section V-B3);
        this mirrors that and avoids measuring allocation.

    The machine declares itself ``blocking`` (see
    :class:`~repro.engine.backend.ExecutionBackend`): its ``timed_run``
    waits on a real thread team with the GIL released, so a server
    runs its batches in the event loop's executor, off the loop.
    """

    blocking = True

    def __init__(self, max_threads: int = None, blocks: BlockSizes = None,
                 operand_cache: bool = True, seed: int = 0):
        self._max_threads = int(max_threads or os.cpu_count() or 1)
        if self._max_threads < 1:
            raise ValueError("max_threads must be >= 1")
        self.pool = ExecutorPool(blocks=blocks, operand_cache=operand_cache,
                                 seed=seed)
        self.seed = seed
        self.clock = SimClock()
        self.hyperthreading = True  # informational; host threads are host threads
        self.affinity = AffinityPolicy.CORES

    @property
    def name(self) -> str:
        return "host"

    @property
    def blocks(self) -> BlockSizes:
        return self.pool.blocks

    @property
    def operand_cache(self) -> bool:
        return self.pool.operand_cache

    def max_threads(self, hyperthreading: bool = None) -> int:
        return self._max_threads

    # -- pre-engine accessors (the pool now owns these caches) ----------
    @property
    def _operands(self) -> dict:
        return self.pool._operands

    def _operands_for(self, spec: GemmSpec):
        return self.pool.operands(spec)

    # ------------------------------------------------------------------
    def run(self, spec: GemmSpec, n_threads: int, iteration: int = 0, **_):
        """One timed execution; returns elapsed seconds."""
        if not 1 <= n_threads <= self._max_threads:
            raise ValueError(f"n_threads={n_threads} outside [1, {self._max_threads}]")
        elapsed = self.pool.run(spec, n_threads)
        self.clock.advance(elapsed, category="gemm")
        return elapsed

    def timed_run(self, spec: GemmSpec, n_threads: int, repeats: int = 10,
                  reduce: str = "median", **_) -> float:
        """The paper's loop-timing protocol on real hardware."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        times = [self.run(spec, n_threads, iteration=i) for i in range(repeats)]
        if reduce == "median":
            return float(np.median(times))
        if reduce == "min":
            return float(np.min(times))
        if reduce == "mean":
            return float(np.mean(times))
        raise ValueError(f"unknown reduction {reduce!r}")

    def optimal_threads(self, spec: GemmSpec, thread_grid, repeats: int = 5) -> int:
        """Exhaustively measured best thread count (ground truth)."""
        grid = [t for t in thread_grid if t <= self._max_threads]
        if not grid:
            raise ValueError("no feasible thread counts")
        return min(grid, key=lambda p: self.timed_run(spec, p, repeats=repeats))

    def release_operands(self) -> None:
        """Free cached operand arrays."""
        self.pool.release()
