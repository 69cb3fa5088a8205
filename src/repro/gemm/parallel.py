"""Multi-threaded blocked GEMM with per-phase instrumentation.

The executor mirrors the structure the paper profiles on real BLAS
(Table VII): worker threads synchronise at a barrier, pack their operand
panels into private workspaces (data copy), then run blocked kernels on
their partition cell (kernel calls).  numpy's matmul releases the GIL,
so on multi-core hosts this achieves genuine parallel speedup; on any
host it produces the same schedule and copy volumes the machine
simulator models analytically, which is what the tests cross-check.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.gemm.blocked import BlockSizes, gemm_blocked
from repro.gemm.interface import GemmSpec
from repro.gemm.packing import PackingBuffer
from repro.gemm.partition import Partition2D


@dataclass
class GemmTimings:
    """Wall-time breakdown of one parallel GEMM call.

    Matches the three components of the paper's profiler analysis:
    ``sync`` (barrier waits), ``copy`` (panel packing), ``kernel``
    (the arithmetic).  All values are seconds, summed across threads for
    copy/kernel and maximum-over-threads for sync/total, mirroring how
    VTune attributes wall time.
    """

    total: float = 0.0
    sync: float = 0.0
    copy: float = 0.0
    kernel: float = 0.0
    threads: int = 1
    copied_elements: int = 0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "sync": self.sync,
            "copy": self.copy,
            "kernel": self.kernel,
            "threads": self.threads,
            "copied_elements": self.copied_elements,
        }


class ParallelGemm:
    """Thread-pool GEMM executor with a fixed thread count.

    The thread count is fixed at construction, matching the paper's data
    gathering protocol: "we avoid changing the number of threads at
    runtime by separating experiments with different numbers of threads
    to different program execution" (Section III-B).

    Instances are callable with the standard backend signature
    ``(spec, a, b, c) -> c`` so they can be passed to
    :func:`repro.gemm.interface.gemm` and to the ADSALA runtime library.
    """

    def __init__(self, n_threads: int, blocks: BlockSizes = None,
                 workspace_elements: int = 1 << 20):
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.n_threads = int(n_threads)
        self.blocks = blocks or BlockSizes()
        self.workspace_elements = int(workspace_elements)
        self.last_timings: GemmTimings = GemmTimings(threads=self.n_threads)

    def __call__(self, spec: GemmSpec, a, b, c):
        return self.run(spec, a, b, c)

    def run(self, spec: GemmSpec, a, b, c):
        """Execute the GEMM, populating :attr:`last_timings`."""
        part = Partition2D.for_threads(spec.m, spec.k, spec.n, self.n_threads)
        cells = part.thread_blocks()
        t_start = time.perf_counter()

        if self.n_threads == 1:
            ws = PackingBuffer(self.workspace_elements, dtype=spec.dtype)
            t0 = time.perf_counter()
            gemm_blocked(spec, a, b, c, blocks=self.blocks, workspace=ws)
            elapsed = time.perf_counter() - t0
            self.last_timings = GemmTimings(
                total=elapsed, sync=0.0, copy=0.0, kernel=elapsed,
                threads=1, copied_elements=ws.copied_elements)
            return c

        barrier = threading.Barrier(self.n_threads)
        sync_times = [0.0] * self.n_threads
        kernel_times = [0.0] * self.n_threads
        copied = [0] * self.n_threads
        errors = []

        def worker(tid: int, cell):
            try:
                ws = PackingBuffer(self.workspace_elements, dtype=spec.dtype)
                t_sync = time.perf_counter()
                barrier.wait()
                sync_times[tid] += time.perf_counter() - t_sync
                rows, cols = cell
                t_k = time.perf_counter()
                if rows[1] > rows[0] and cols[1] > cols[0]:
                    gemm_blocked(spec, a, b, c, blocks=self.blocks,
                                 row_range=rows, col_range=cols, workspace=ws)
                kernel_times[tid] += time.perf_counter() - t_k
                t_sync = time.perf_counter()
                barrier.wait()
                sync_times[tid] += time.perf_counter() - t_sync
                copied[tid] = ws.copied_elements
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
                # Release peers stuck on the barrier.
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(tid, cell), daemon=True)
                   for tid, cell in enumerate(cells)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

        total = time.perf_counter() - t_start
        self.last_timings = GemmTimings(
            total=total,
            sync=max(sync_times),
            copy=0.0,  # copy time is folded into kernel wall-time; volume below
            kernel=max(kernel_times),
            threads=self.n_threads,
            copied_elements=int(sum(copied)),
        )
        return c

    def timed_run(self, spec: GemmSpec, a, b, c, repeats: int = 3) -> float:
        """Best-of-``repeats`` wall time (seconds), the paper's timing protocol.

        The paper runs ten iterations of the same-size GEMM in a loop; the
        repeat count is a parameter here because unit tests need it small.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.run(spec, a, b, c)
            best = min(best, time.perf_counter() - t0)
        return best


class WorkerPool:
    """Ordered fan-out of independent Python tasks over a thread pool.

    The deterministic sibling of :class:`ExecutorPool`: where that class
    owns GEMM executors per team size, this one owns a reusable pool of
    generic workers and guarantees that :meth:`map` returns results in
    *submission order* regardless of completion order, so any
    reduction over the results is schedule-independent.  ``n_workers=1``
    degenerates to an inline loop (no threads), which is what makes
    "parallel with one worker" bitwise-identical to serial code paths.

    The training pipeline fans (candidate, configuration, fold) tuning
    work items through this; anything CPU-bound and GIL-holding should
    use :func:`process_map` instead.
    """

    def __init__(self, n_workers: int = 1):
        if int(n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self._executor = None

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, fanned across the pool."""
        items = list(items)
        if self.n_workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        return list(self._executor.map(fn, items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _noop_child() -> None:  # pragma: no cover - runs in the probe child
    pass


_FORK_USABLE = None  # cached once per process


def _fork_usable() -> bool:
    """Can this process fork workers?  Probed once, cached.

    Non-POSIX platforms have no fork context (and spawned workers would
    not inherit the module state :mod:`repro.train.tuning` shares with
    them); sandboxed hosts may refuse the fork syscall itself.
    """
    global _FORK_USABLE
    if _FORK_USABLE is None:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
            probe = context.Process(target=_noop_child)
            probe.start()
            probe.join()
            _FORK_USABLE = True
        except (ValueError, OSError, PermissionError):  # pragma: no cover
            _FORK_USABLE = False
    return _FORK_USABLE


def process_map(fn, items, n_workers: int) -> list:
    """:meth:`WorkerPool.map` semantics over worker *processes*.

    For GIL-bound tasks (pure-Python model fitting) threads cannot
    scale; ``fn`` and every item must be picklable.  Falls back to an
    inline loop when ``n_workers == 1`` or the platform cannot fork —
    but an exception raised by ``fn`` itself always propagates, never
    triggering a silent serial re-run of work that may already have had
    effects.
    """
    items = list(items)
    if int(n_workers) < 1:
        raise ValueError("n_workers must be >= 1")
    if n_workers == 1 or len(items) <= 1 or not _fork_usable():
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))


class ExecutorPool:
    """Executors per thread count + operands per shape, behind ``timed_run``.

    Real-execution timing needs two caches to measure the GEMM and not
    the setup: a :class:`ParallelGemm` instance per team size (threads
    are fixed at construction, per the paper's gathering protocol) and
    allocated operands per spec (real BLAS benchmarking allocates once
    and loops, Section V-B3).  The pool owns both;
    :class:`repro.machine.host.HostMachine` times its runs.
    """

    def __init__(self, blocks: BlockSizes = None,
                 workspace_elements: int = 1 << 20,
                 operand_cache: bool = True, seed: int = 0):
        self.blocks = blocks or BlockSizes()
        self.workspace_elements = int(workspace_elements)
        self.operand_cache = operand_cache
        self.seed = seed
        self._executors: dict = {}
        self._operands: dict = {}

    def executor(self, n_threads: int) -> ParallelGemm:
        if n_threads not in self._executors:
            self._executors[n_threads] = ParallelGemm(
                n_threads, blocks=self.blocks,
                workspace_elements=self.workspace_elements)
        return self._executors[n_threads]

    def operands(self, spec: GemmSpec):
        key = spec.key()
        if not self.operand_cache:
            return spec.random_operands(rng=self.seed)
        if key not in self._operands:
            self._operands[key] = spec.random_operands(rng=self.seed)
        return self._operands[key]

    def run(self, spec: GemmSpec, n_threads: int) -> float:
        """One timed execution; returns elapsed seconds."""
        a, b, c = self.operands(spec)
        executor = self.executor(n_threads)
        t0 = time.perf_counter()
        executor.run(spec, a, b, c)
        return time.perf_counter() - t0

    def release(self) -> None:
        """Free cached operand arrays and executors."""
        self._operands.clear()
        self._executors.clear()
