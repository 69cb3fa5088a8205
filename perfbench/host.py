"""The pinned CPU's speed, sampled while a workload runs.

The benchmark pins itself to one CPU of a virtual machine, and on a
shared host that CPU does not run at one speed: while neighbours load
the same physical core or the memory system, plain Python runs 1.5 to
2.5 times slower, in phases that last from a fraction of a second to
minutes.  Wall-clock throughput and latency then move with the
neighbours, not with the program.

So every measuring loop calls :meth:`Speedometer.poll` between
requests, and every :data:`PROBE_EVERY_S` the speedometer times
:func:`probe`, a fixed unit of Python and numpy work that never touches
the program, in thread CPU time (other threads of the process cannot
inflate it).  Between two probes the CPU's speed is taken as
``REFERENCE_S`` over the mean of their costs, times the share of the
interval the process ran: thread CPU time leaves out the time the
hypervisor stole the vCPU, which on a shared 2-vCPU KVM guest came in
bursts adding up to a twentieth of a run.  (The fleet's relay probe,
below, is timed in wall time and sees stolen time itself.)  Every
request's start and end and every phase's bounds are mapped through the
resulting *reference clock*, the time on a CPU that runs the probe in
exactly :data:`REFERENCE_S` and is never stolen from.  The benchmark's
timing metrics are reported in reference time.  Each run's record also
keeps the probe's raw spread and the share of the CPU the hypervisor
stole, so a drifting host shows.

Not every workload slows down as much as the probe.  A workload's
*elasticity* is the exponent of the conversion: wall time scales by
``(reference / cost) ** elasticity``.  :data:`ELASTICITY` holds the
values measured on a 2-vCPU Sapphire Rapids KVM guest, as the exponent
that made runs of each workload spread over the host's fast and slow
phases agree best.  ``serve`` slows down as much as the probe;
``library``, one interpreter-bound call after another, a little more.
The fleet, whose bursts cross three processes, tracks this probe
poorly; it is probed instead with :class:`perfbench.relay.Relay`, a
fixed round of slabs through two helper processes, against
:data:`RELAY_REFERENCE_S`.  A cold start is converted with
:func:`probe`, by its median cost just before the process starts and
just after its first answer.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from array import array

import numpy as np

#: Seconds between probes while a workload runs.
PROBE_EVERY_S = 0.025
#: Workload -> exponent of the wall-to-reference conversion.  The fleet's
#: is against the relay probe: three sets of fleet runs converted at 1.3
#: (relay cost 0.9-2.5 ms) spread up to 0.19 in median burst latency (IQR
#: over median), 0.035-0.040 once re-scaled to 1.0; two further ten-run
#: sets at 1.0 spread 0.042 and 0.028.
ELASTICITY = {"library": 1.2, "serve": 1.0, "fleet": 1.0}
#: The same for a cold start, whose time is largely loading files and
#: spawning processes: over 100 cold starts its log-log slope against
#: the probe measured 0.42-0.44.
SETUP_ELASTICITY = 0.5
#: The probe's cost on the reference CPU: about its cost, between
#: requests, on an uncontended vCPU of a Sapphire Rapids KVM guest, so
#: reference time there reads close to wall time.
REFERENCE_S = 40e-6
#: The relay probe's cost between fleet bursts on the same uncontended
#: vCPU (its caches refilled after each burst).
RELAY_REFERENCE_S = 1.2e-3

_MATRIX = np.arange(13 * 9, dtype=np.float64).reshape(13, 9)
_KEYS = [(i, i * 7 % 13) for i in range(256)]
_TABLE = dict.fromkeys(_KEYS, 1)


def _work() -> int:
    total = 0
    for key in _KEYS:
        total += _TABLE[key] + key[1]
    for _ in range(4):
        total += int(np.argmin((_MATRIX * 1.5 + 2.0).sum(axis=1)))
    return total


def probe() -> float:
    """Thread CPU seconds of one fixed unit of work (tens of us).

    Tuple-keyed dict lookups and small-array numpy calls, the two kinds
    of work the serving path is made of.  The work runs once untimed
    first, so what is timed runs from warm caches whatever the program
    did before, and with the collector off, so the program's heap
    cannot add a collection to it; it allocates no container objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.thread_time()
        _work()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def probe_median(count: int = 25) -> float:
    """Median probe cost over ``count`` back-to-back probes."""
    return statistics.median(probe() for _ in range(count))


def setup_scale(before_s: float, after_s: float) -> float:
    """Wall-to-reference factor of a cold start between two probe
    medians."""
    return (2 * REFERENCE_S / (before_s + after_s)) ** SETUP_ELASTICITY


class Speedometer:
    """Probe costs at known times over one measured phase.

    ``probe`` returns the cost of one fixed unit of work; on the
    reference CPU it costs ``reference_cost``.  With ``cpu_clock`` (the
    process's CPU seconds) each interval's speed is also scaled by the
    share of the interval the process ran.  A process that always has
    work runs all of it, unless the hypervisor steals the vCPU, which a
    probe timed in thread CPU time does not see.
    """

    def __init__(self, elasticity: float = 1.0, probe=probe,
                 reference_cost: float = REFERENCE_S, cpu_clock=None):
        self.elasticity = elasticity
        self.probe = probe
        self.reference_cost = reference_cost
        self.cpu_clock = cpu_clock
        self.at = array("d")    # perf_counter() when each probe ended
        self.cost = array("d")  # its cost
        self.cpu = array("d")   # and cpu_clock() then
        self._next = 0.0

    def poll(self, now: float) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last."""
        if now >= self._next:
            self.cost.append(self.probe())
            now = time.perf_counter()
            self.at.append(now)
            if self.cpu_clock is not None:
                self.cpu.append(self.cpu_clock())
            self._next = now + PROBE_EVERY_S

    def _speed(self) -> np.ndarray:
        """Reference seconds per wall second between probe ``i`` and
        ``i + 1``; the last entry covers the time after the last probe."""
        cost = np.asarray(self.cost)
        mean = (cost + np.append(cost[1:], cost[-1])) / 2
        speed = (self.reference_cost / mean) ** self.elasticity
        if len(self.cpu) > 1:
            share = np.diff(self.cpu) / np.diff(self.at)
            speed *= np.clip(np.append(share, share[-1]), 0.0, 1.0)
        return speed

    def clock(self, times) -> np.ndarray:
        """Reference seconds from the first probe to each wall time.

        Before the first probe the first interval's speed applies.  A
        request's reference latency is ``clock(end) - clock(start)``.
        """
        at = np.asarray(self.at)
        speed = self._speed()
        elapsed = np.concatenate(([0.0], np.cumsum(np.diff(at) * speed[:-1])))
        times = np.asarray(times, dtype=np.float64)
        k = np.clip(np.searchsorted(at, times, side="right") - 1, 0,
                    len(at) - 1)
        return elapsed[k] + (times - at[k]) * speed[k]

    def reference_s(self, begin: float, end: float) -> float:
        """Reference seconds in the wall interval ``[begin, end]``."""
        return float(self.clock(end) - self.clock(begin))

    def summary(self) -> dict:
        """The probe's raw spread, in microseconds."""
        q = np.percentile(np.asarray(self.cost) * 1e6, [10, 50, 90])
        return {"probes": len(self.cost), "probe_p10_us": float(q[0]),
                "probe_p50_us": float(q[1]), "probe_p90_us": float(q[2])}


def steal_ticks(cpu: int) -> int:
    """Clock ticks the hypervisor stole from ``cpu`` since boot."""
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8])
    return 0


def steal_share(cpu: int, ticks_before: int, wall_s: float) -> float:
    """Share of ``wall_s`` stolen from ``cpu`` since ``ticks_before``."""
    stolen = (steal_ticks(cpu) - ticks_before) / os.sysconf("SC_CLK_TCK")
    return stolen / wall_s if wall_s > 0 else 0.0
