"""Execution backends: one protocol, many ways to run a routine.

The ADSALA library calls a :class:`~repro.machine.simulator.MachineSimulator`,
real execution goes through :class:`~repro.machine.host.HostMachine`,
and the BLAS extension's :class:`~repro.blas.adapter.RoutineSimulator`
times GEMV/SYRK/TRSM.  All of them answer the same call:

    timed_run(spec, n_threads, repeats) -> seconds

Anything with that method is an :class:`ExecutionBackend`, and a
:class:`~repro.engine.service.GemmService` calls it directly.  The
service gives a non-GEMM routine on a machine simulator a
:class:`~repro.blas.adapter.RoutineSimulator` over that simulator;
every other call goes to the backend itself.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


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
    The service reads it once, when it is built; the serving scheduler
    runs a non-blocking shard's
    :meth:`~repro.engine.service.GemmService.run_batch` on its event
    loop, and a blocking one's in the loop's default executor so that
    the wait leaves the loop free.  A backend that blocks but does not
    declare it stalls the loop, and every other shard and admission on
    it, for the whole of each batch it runs.
    """

    def timed_run(self, spec, n_threads: int, repeats: int = 1) -> float:
        """Measured wall seconds for ``spec`` on a team of ``n_threads``."""
        ...  # pragma: no cover - protocol stub


def as_backend(machine, thread_grid=None) -> ExecutionBackend:
    """Check that ``machine`` can serve as an :class:`ExecutionBackend`
    and return it unchanged.

    ``thread_grid`` is ignored: the candidate thread counts belong to
    the predictor, not to the backend.
    """
    if not hasattr(machine, "timed_run"):
        raise TypeError(
            f"{type(machine).__name__} has no timed_run; cannot serve as an "
            "execution backend")
    return machine
