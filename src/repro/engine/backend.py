"""Execution backends: one protocol, many ways to run a routine.

The runtime stack historically grew three bespoke couplings: the ADSALA
library called a :class:`~repro.machine.simulator.MachineSimulator`
directly, real execution went through
:class:`~repro.machine.host.HostMachine`, and the BLAS extension bolted
its :class:`~repro.blas.adapter.RoutineSimulator` on with the same-but-
not-quite ``timed_run`` shape.  The engine collapses all three behind
:class:`ExecutionBackend`:

    timed_run(spec, n_threads, repeats) -> seconds      +      thread_grid

Anything satisfying that serves through the same
:class:`~repro.engine.service.GemmService`, and the
:class:`BackendDispatcher` routes mixed spec streams (GEMM, GEMV, SYRK,
TRSM) to the backend registered for each spec type.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class ExecutionBackend(Protocol):
    """Structural protocol every engine backend satisfies.

    ``spec`` is opaque to the engine: any object with a ``dims`` triple
    (for feature building) that the backend knows how to execute.

    A backend may also carry a boolean ``blocking`` attribute, which is
    not a protocol member, so backends without it still conform.  Set
    it to ``True`` when ``timed_run`` waits outside the interpreter with
    the GIL released: a real GEMM thread team, a BLAS call, a sleep.
    A missing attribute means ``False``: ``timed_run`` computes its
    runtime in Python (simulators, routine oracles, replay tables).
    The serving scheduler reads it per batch: it runs a non-blocking
    shard's :meth:`~repro.engine.service.GemmService.run_batch` on its
    event loop, and a blocking one's in the loop's default executor so
    that the wait leaves the loop free.  A backend that blocks but does
    not declare it stalls the loop, and every other shard and
    admission on it, for the whole of each batch it runs.
    """

    name: str
    thread_grid: np.ndarray

    def timed_run(self, spec, n_threads: int, repeats: int = 1) -> float:
        """Measured wall seconds for ``spec`` on a team of ``n_threads``."""
        ...  # pragma: no cover - protocol stub


def _normalise_grid(thread_grid) -> np.ndarray:
    grid = np.asarray(sorted(set(int(t) for t in thread_grid)), dtype=np.int64)
    if grid.size == 0:
        raise ValueError("thread_grid must be non-empty")
    if (grid < 1).any():
        raise ValueError("thread counts must be >= 1")
    return grid


def _default_grid(machine) -> np.ndarray:
    """Derive a candidate grid from the machine's core count."""
    from repro.gemm.partition import choose_thread_grid

    max_threads = getattr(machine, "max_threads", None)
    if not callable(max_threads):
        raise TypeError(
            f"cannot derive a thread grid from {type(machine).__name__}; "
            "pass thread_grid explicitly")
    return _normalise_grid(choose_thread_grid(max_threads()))


class TimedRunBackend:
    """Generic adapter over anything exposing ``timed_run``.

    This is what makes the engine backward compatible: every historical
    "machine" object (simulator, host, routine oracle) already answers
    ``timed_run(spec, n_threads, repeats=...)``, so wrapping it with a
    thread grid yields a conforming :class:`ExecutionBackend`.
    """

    def __init__(self, machine, thread_grid=None, name: str = None):
        self.machine = machine
        self.thread_grid = (_normalise_grid(thread_grid)
                            if thread_grid is not None
                            else _default_grid(machine))
        self.name = name or getattr(machine, "name", type(machine).__name__)

    @property
    def blocking(self) -> bool:
        """Whether the wrapped machine declares that it blocks."""
        return bool(getattr(self.machine, "blocking", False))

    def timed_run(self, spec, n_threads: int, repeats: int = 1, **kw) -> float:
        return self.machine.timed_run(spec, n_threads, repeats=repeats, **kw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, grid={self.thread_grid.tolist()})"


class SimulatorBackend(TimedRunBackend):
    """Adapter for :class:`~repro.machine.simulator.MachineSimulator`.

    Adds the simulator's noise-free oracle passthrough, which the
    benchmark harnesses use for ground-truth comparisons.
    """

    def true_time(self, spec, n_threads: int) -> float:
        return self.machine.true_time(spec, n_threads)

    def optimal_threads(self, spec) -> int:
        return self.machine.optimal_threads(spec, self.thread_grid.tolist())


class RoutineBackend(TimedRunBackend):
    """Adapter for :class:`~repro.blas.adapter.RoutineSimulator`.

    Accepts routine specs (GEMV/SYRK/TRSM — anything with
    ``equivalent_gemm()``/``work_fraction``/``dims``) and serves them
    through the engine exactly like GEMM.
    """

    def true_time(self, spec, n_threads: int) -> float:
        return self.machine.true_time(spec, n_threads)


class ParallelExecutionBackend:
    """Real execution through :class:`~repro.gemm.parallel.ParallelGemm`.

    Runs genuine thread teams on the host (numpy's matmul releases the
    GIL), caching executors per thread count and operands per shape so
    repeated timings measure the GEMM, not allocation.  It declares
    itself ``blocking``: its ``timed_run`` waits on those teams.
    """

    blocking = True

    def __init__(self, thread_grid=None, max_threads: int = None,
                 blocks=None, seed: int = 0):
        from repro.gemm.parallel import ExecutorPool

        self._max_threads = int(max_threads or os.cpu_count() or 1)
        if thread_grid is not None:
            self.thread_grid = _normalise_grid(thread_grid)
        else:
            from repro.gemm.partition import choose_thread_grid

            self.thread_grid = _normalise_grid(
                choose_thread_grid(self._max_threads))
        self.pool = ExecutorPool(blocks=blocks, seed=seed)
        self.name = "parallel-host"

    def timed_run(self, spec, n_threads: int, repeats: int = 1, **kw) -> float:
        if not 1 <= n_threads <= self._max_threads:
            raise ValueError(
                f"n_threads={n_threads} outside [1, {self._max_threads}]")
        return self.pool.timed_run(spec, n_threads, repeats=repeats)

    def release(self) -> None:
        """Free cached operands and executors."""
        self.pool.release()


def as_backend(machine, thread_grid=None) -> ExecutionBackend:
    """Coerce a machine-like object into an :class:`ExecutionBackend`.

    Objects already carrying both ``timed_run`` and a ``thread_grid``
    pass through untouched (unless a different grid is requested);
    anything with just ``timed_run`` is wrapped in the adapter matching
    its role, falling back to the generic :class:`TimedRunBackend`.
    """
    if (thread_grid is None and hasattr(machine, "timed_run")
            and getattr(machine, "thread_grid", None) is not None):
        return machine
    if not hasattr(machine, "timed_run"):
        raise TypeError(
            f"{type(machine).__name__} has no timed_run; cannot serve as an "
            "execution backend")
    # Role-specific adapters, picked by duck-typed capability rather than
    # isinstance so user subclasses and test doubles route correctly.
    if hasattr(machine, "cost_model"):
        return SimulatorBackend(machine, thread_grid)
    if hasattr(machine, "simulator"):
        return RoutineBackend(machine, thread_grid)
    return TimedRunBackend(machine, thread_grid)


class BackendDispatcher:
    """Routes specs to backends by spec type (one engine, many routines).

    Parameters
    ----------
    default:
        Backend used when no registered type matches (typically the GEMM
        backend).  Lookup walks the spec's MRO so registering a base
        class covers its subclasses.
    """

    def __init__(self, default: ExecutionBackend = None):
        self.default = default
        self._routes: dict = {}
        self._routine_routes: dict = {}

    @classmethod
    def for_backend(cls, backend: ExecutionBackend) -> "BackendDispatcher":
        return cls(default=backend)

    def register(self, spec_type: type, backend: ExecutionBackend) -> "BackendDispatcher":
        """Route ``spec_type`` instances to ``backend``; returns self."""
        if not isinstance(spec_type, type):
            raise TypeError("spec_type must be a class")
        self._routes[spec_type] = backend
        return self

    def register_routine(self, routine: str, backend: ExecutionBackend) -> "BackendDispatcher":
        """Route specs whose ``routine`` attribute is ``routine``.

        Name-keyed registration needs no spec class import, which is
        what lets registry-driven layers (CLI, serving) wire execution
        per routine without touching the spec modules.  Type routes
        (:meth:`register`) take precedence — they are the more specific
        claim.
        """
        if not isinstance(routine, str):
            raise TypeError("routine must be a string name")
        self._routine_routes[routine] = backend
        return self

    def has_routine_route(self, routine: str) -> bool:
        """Whether ``routine`` already has a name-keyed backend."""
        return routine in self._routine_routes

    def backend_for(self, spec) -> ExecutionBackend:
        for klass in type(spec).__mro__:
            if klass in self._routes:
                return self._routes[klass]
        routine = getattr(spec, "routine", None)
        if routine is not None and routine in self._routine_routes:
            return self._routine_routes[routine]
        if self.default is not None:
            return self.default
        raise TypeError(
            f"no backend registered for spec type {type(spec).__name__}")

    def timed_run(self, spec, n_threads: int, repeats: int = 1) -> float:
        return self.backend_for(spec).timed_run(spec, n_threads, repeats=repeats)

    @property
    def blocking(self) -> bool:
        """Whether any registered backend declares that it blocks.

        Read per batch, so a blocking backend registered while a server
        runs takes effect from the next batch on.
        """
        return any(getattr(backend, "blocking", False)
                   for backend in self.backends)

    @property
    def backends(self) -> list:
        """All distinct registered backends (default included)."""
        seen = []
        for backend in ([self.default] if self.default is not None else []) \
                + list(self._routes.values()) \
                + list(self._routine_routes.values()):
            if all(backend is not b for b in seen):
                seen.append(backend)
        return seen
