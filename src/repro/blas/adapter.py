"""Generalising the ADSALA workflow to non-GEMM BLAS routines.

The key insight of the extension: ADSALA never looks *inside* the
routine — it needs (a) a dimension triple to build features from, (b) a
``timed_run(spec, n_threads)`` oracle, and (c) a thread grid.  Any
routine that can provide those reuses the entire installation and
runtime machinery.

:class:`RoutineSimulator` provides the timing oracle by mapping a
routine spec onto its GEMM equivalent on the underlying machine
simulator and applying routine-specific corrections:

- **work fraction** — SYRK performs roughly half the FLOPs of its
  equivalent product, so the kernel component is scaled;
- **bandwidth binding** — GEMV's equivalent GEMM (n = 1) already sits on
  the cost model's bandwidth roofline, so no correction is needed; the
  model naturally predicts early thread saturation.

:func:`install_for_routine` then runs the unchanged
:class:`~repro.core.training.InstallationWorkflow` against the adapted
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import TimingDataset, TimingRecord
from repro.core.training import InstallationWorkflow
from repro.machine.simulator import MachineSimulator


class RoutineSimulator:
    """Timing oracle for a non-GEMM routine on a simulated machine.

    Wraps a :class:`MachineSimulator`; accepts routine specs (anything
    with ``equivalent_gemm()``, ``work_fraction`` and ``dims``) and
    exposes the subset of the simulator API that ADSALA's gatherer,
    selector and runtime library consume.
    """

    def __init__(self, simulator: MachineSimulator):
        self.simulator = simulator

    # -- passthrough ----------------------------------------------------
    @property
    def name(self) -> str:
        return self.simulator.name

    @property
    def hyperthreading(self) -> bool:
        return self.simulator.hyperthreading

    @property
    def affinity(self):
        return self.simulator.affinity

    @property
    def clock(self):
        return self.simulator.clock

    def max_threads(self, hyperthreading: bool = None) -> int:
        return self.simulator.max_threads(hyperthreading)

    # -- timing oracle ----------------------------------------------------
    def _scale(self, spec) -> float:
        return float(spec.work_fraction)

    def true_time(self, spec, n_threads: int, **kw) -> float:
        gemm = spec.equivalent_gemm()
        bd = self.simulator.cost_model.breakdown(
            gemm, n_threads, self.simulator.affinity,
            self.simulator.hyperthreading)
        # Only the arithmetic scales with the work fraction; packing and
        # synchronisation follow the full schedule.
        return bd.sync + bd.copy + bd.kernel * self._scale(spec)

    def run(self, spec, n_threads: int, iteration: int = 0, **kw):
        gemm = spec.equivalent_gemm()
        result = self.simulator.run(gemm, n_threads, iteration=iteration, **kw)
        scale = (self.true_time(spec, n_threads)
                 / max(result.breakdown.total, 1e-300))
        return result.time * scale

    def timed_run(self, spec, n_threads: int, repeats: int = 10,
                  reduce: str = "median", **kw) -> float:
        times = [self.run(spec, n_threads, iteration=i, **kw)
                 for i in range(repeats)]
        if reduce == "median":
            return float(np.median(times))
        if reduce == "min":
            return float(np.min(times))
        return float(np.mean(times))

    def optimal_threads(self, spec, thread_grid) -> int:
        return min(thread_grid, key=lambda p: self.true_time(spec, p))


class _RoutineGatherer:
    """Times routine specs over the thread grid into a TimingDataset.

    Feature building reuses the GEMM convention: the routine's ``dims``
    triple plays the role of (m, k, n).
    """

    def __init__(self, oracle: RoutineSimulator, thread_grid, repeats: int = 10):
        self.oracle = oracle
        self.thread_grid = list(thread_grid)
        self.repeats = repeats

    def gather_for_specs(self, specs) -> TimingDataset:
        records = []
        for spec in specs:
            m, k, n = spec.dims
            routine = getattr(spec, "routine", "gemm")
            for p in self.thread_grid:
                runtime = self.oracle.timed_run(spec, p, repeats=self.repeats)
                records.append(TimingRecord(m, k, n, p, runtime,
                                            routine=routine))
        return TimingDataset.from_records(records, dtype=specs[0].dtype)


def install_for_routine(simulator: MachineSimulator, specs, thread_grid,
                        repeats: int = 10, **workflow_kwargs):
    """Run the full ADSALA installation for a non-GEMM routine.

    Parameters
    ----------
    simulator:
        The target machine.
    specs:
        Routine problem instances to benchmark (e.g. a list of
        :class:`~repro.blas.syrk.SyrkSpec`).
    thread_grid:
        Candidate thread counts.
    workflow_kwargs:
        Forwarded to :class:`InstallationWorkflow` (candidates,
        label_transform, tuning effort, ...).

    Returns ``(bundle, oracle)`` — the trained artefacts and the timing
    oracle to execute against at runtime.
    """
    oracle = RoutineSimulator(simulator)
    gatherer = _RoutineGatherer(oracle, thread_grid, repeats=repeats)
    data = gatherer.gather_for_specs(list(specs))
    cap = max(int(s.memory_bytes) for s in specs)
    workflow = InstallationWorkflow(
        oracle, memory_cap_bytes=cap, n_shapes=len(list(specs)),
        thread_grid=thread_grid, repeats=repeats, **workflow_kwargs)
    bundle = workflow.run(data)
    return bundle, oracle
