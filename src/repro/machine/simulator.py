"""The machine simulator: deterministic, seedable GEMM timing oracle.

:class:`MachineSimulator` combines a :class:`~repro.machine.costmodel.CostModel`
with a :class:`~repro.machine.noise.NoiseModel` and plays the role the
physical node + vendor BLAS played in the paper: given a GEMM problem and
a thread count it returns a (noisy) wall time and a white-box component
breakdown.

Determinism contract: two simulators built with the same preset and seed
return identical timings for the same sequence of calls *and* for the
same ``(spec, n_threads, iteration)`` triple regardless of call order —
the per-measurement RNG is derived by hashing the call coordinates with
the base seed.  Every experiment in ``benchmarks/`` leans on this to be
exactly regenerable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.gemm.interface import GemmSpec
from repro.machine.affinity import AffinityPolicy, place_threads
from repro.machine.clock import SimClock
from repro.machine.costmodel import CostBreakdown, CostModel
from repro.machine.noise import NoiseModel
from repro.machine.numa import NumaMode, NumaPolicy


@dataclass(frozen=True)
class SimResult:
    """One simulated timing measurement."""

    spec: GemmSpec
    n_threads: int
    time: float
    breakdown: CostBreakdown
    affinity: AffinityPolicy
    hyperthreading: bool

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s of this run."""
        return self.spec.flops / self.time / 1e9


class MachineSimulator:
    """Simulated node executing multi-threaded GEMM.

    Parameters
    ----------
    cost_model:
        Analytical model (usually from :mod:`repro.machine.presets`).
    noise:
        Measurement noise model; pass :data:`repro.machine.noise.QUIET`
        for deterministic noise-free timings.
    seed:
        Base seed for the measurement-noise stream.
    affinity / hyperthreading:
        Default execution environment, overridable per call.
    """

    def __init__(self, cost_model: CostModel, noise: NoiseModel = None,
                 seed: int = 0, affinity=AffinityPolicy.CORES,
                 hyperthreading: bool = True, numa="interleave"):
        self.cost_model = cost_model
        self.noise = noise if noise is not None else NoiseModel()
        self.seed = int(seed)
        self.affinity = AffinityPolicy.parse(affinity)
        self.hyperthreading = bool(hyperthreading)
        self.numa = NumaPolicy(mode=NumaMode.parse(numa))
        self.clock = SimClock()

    # ------------------------------------------------------------------
    @property
    def topology(self):
        return self.cost_model.topology

    @property
    def name(self) -> str:
        return self.topology.name

    def max_threads(self, hyperthreading: bool = None) -> int:
        ht = self.hyperthreading if hyperthreading is None else hyperthreading
        return self.topology.max_threads(ht)

    # ------------------------------------------------------------------
    def _rng_for(self, spec: GemmSpec, n_threads: int, iteration: int) -> np.random.Generator:
        """Stable per-measurement RNG derived from the call coordinates.

        Uses a cryptographic digest rather than Python's salted ``hash``
        so the stream is identical across processes and sessions.
        """
        key = (f"{self.seed}|{spec.m}|{spec.k}|{spec.n}|{spec.dtype}|{n_threads}"
               f"|{iteration}|{self.affinity.value}|{int(self.hyperthreading)}")
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        entropy = int.from_bytes(digest, "little")
        return np.random.default_rng(np.random.SeedSequence([self.seed, entropy]))

    def _apply_numa(self, breakdown: CostBreakdown, spec: GemmSpec,
                    n_threads: int, affinity, ht: bool) -> CostBreakdown:
        """Rescale the bandwidth-sensitive components for the NUMA policy.

        The cost-model presets are calibrated under the paper's
        interleave policy; other policies change the effective bandwidth
        a team sees.  Copy time is fully bandwidth-bound; the kernel is
        taken as ~half sensitive (the roofline's compute side is
        unaffected) — an approximation documented in docs/cost_model.md.
        """
        if self.numa.mode is NumaMode.INTERLEAVE:
            return breakdown
        placement = place_threads(self.cost_model.topology, n_threads,
                                  affinity, ht)
        ref = NumaPolicy().bandwidth_factor(self.cost_model.topology,
                                            placement.sockets_used)
        now = self.numa.bandwidth_factor(self.cost_model.topology,
                                         placement.sockets_used)
        rel = max(now / ref, 1e-3)
        return CostBreakdown(
            sync=breakdown.sync,
            copy=breakdown.copy / rel,
            kernel=breakdown.kernel / (0.5 + 0.5 * rel),
        )

    def run(self, spec: GemmSpec, n_threads: int, iteration: int = 0,
            affinity=None, hyperthreading=None) -> SimResult:
        """Simulate one GEMM call, returning a noisy measurement."""
        affinity = self.affinity if affinity is None else AffinityPolicy.parse(affinity)
        ht = self.hyperthreading if hyperthreading is None else bool(hyperthreading)
        breakdown = self.cost_model.breakdown(spec, n_threads, affinity, ht)
        breakdown = self._apply_numa(breakdown, spec, n_threads, affinity, ht)
        rng = self._rng_for(spec, n_threads, iteration)
        noisy = self.noise.apply(breakdown.total, rng)
        jitter = self.numa.jitter_multiplier()
        if jitter != 1.0:
            # The placement lottery: extra multiplicative spread.
            noisy *= float(np.exp(rng.normal(0.0, 0.03 * (jitter - 1.0))))
        self.clock.advance(noisy, category="gemm")
        return SimResult(spec=spec, n_threads=n_threads, time=noisy,
                         breakdown=breakdown, affinity=affinity, hyperthreading=ht)

    def timed_run(self, spec: GemmSpec, n_threads: int, repeats: int = 10,
                  reduce: str = "median", affinity=None, hyperthreading=None) -> float:
        """The paper's timing protocol: loop the same GEMM and reduce.

        Section V-B3 runs ten iterations of the same-size GEMM; we support
        ``median`` (robust to the spike noise, our default), ``min`` and
        ``mean`` reductions.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        times = [self.run(spec, n_threads, iteration=i, affinity=affinity,
                          hyperthreading=hyperthreading).time
                 for i in range(repeats)]
        if reduce == "median":
            return float(np.median(times))
        if reduce == "min":
            return float(np.min(times))
        if reduce == "mean":
            return float(np.mean(times))
        raise ValueError(f"unknown reduction {reduce!r}; expected median/min/mean")

    def true_time(self, spec: GemmSpec, n_threads: int,
                  affinity=None, hyperthreading=None) -> float:
        """Noise-free model time (the quantity the ML model tries to learn)."""
        affinity = self.affinity if affinity is None else AffinityPolicy.parse(affinity)
        ht = self.hyperthreading if hyperthreading is None else bool(hyperthreading)
        breakdown = self.cost_model.breakdown(spec, n_threads, affinity, ht)
        return self._apply_numa(breakdown, spec, n_threads, affinity, ht).total

    def optimal_threads(self, spec: GemmSpec, thread_grid, noisy: bool = False,
                        repeats: int = 10) -> int:
        """Ground-truth best thread count over ``thread_grid``.

        With ``noisy=True`` the choice uses the measured (median-of-
        repeats) timings, replicating what an exhaustive benchmark would
        conclude; otherwise the noise-free model decides.
        """
        best_t, best_time = None, float("inf")
        for t in thread_grid:
            elapsed = (self.timed_run(spec, t, repeats=repeats) if noisy
                       else self.true_time(spec, t))
            if elapsed < best_time:
                best_t, best_time = t, elapsed
        if best_t is None:
            raise ValueError("thread_grid must be non-empty")
        return best_t
