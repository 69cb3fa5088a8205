"""OpenMP-style thread placement policies.

The paper compares ``OMP_PLACES=cores`` against ``OMP_PLACES=threads``
(Fig. 7) and adopts core-based affinity because it is faster whenever the
thread count is below roughly half the logical CPU count.  The mechanism:
with *thread*-based places, consecutive OpenMP threads land on SMT
siblings of the same physical core, so at ``p <= physical_cores`` the job
runs on only ``ceil(p/2)`` cores; with *core*-based places each thread
owns a full core until the cores run out.

``place_threads`` reproduces both policies on the simulated topology and
returns a :class:`Placement` summarising the locality facts the cost
model consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.machine.topology import NodeTopology


class AffinityPolicy(enum.Enum):
    """Thread binding policy, mirroring OMP_PLACES values."""

    CORES = "cores"
    THREADS = "threads"

    @classmethod
    def parse(cls, value) -> "AffinityPolicy":
        if isinstance(value, AffinityPolicy):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise ValueError(f"unknown affinity policy {value!r}") from exc


@dataclass(frozen=True)
class Placement:
    """Summary of where a team of threads landed on the node.

    Attributes
    ----------
    n_threads:
        Team size requested.
    cores_used:
        Distinct physical cores occupied.
    modules_used:
        Distinct L3 modules occupied.
    sockets_used:
        Distinct sockets occupied.
    max_threads_per_core:
        Worst-case SMT sharing (1 = every thread owns a core).
    cpu_ids:
        The logical CPUs assigned, in thread order.
    """

    n_threads: int
    cores_used: int
    modules_used: int
    sockets_used: int
    max_threads_per_core: int
    cpu_ids: tuple


def place_threads(topology: NodeTopology, n_threads: int,
                  policy=AffinityPolicy.CORES,
                  hyperthreading: bool = True) -> Placement:
    """Assign ``n_threads`` to logical CPUs under ``policy``.

    Core-based placement walks physical cores first (socket-major order,
    matching ``OMP_PROC_BIND=close`` over core places) and only starts
    doubling up on SMT siblings once every physical core is busy.
    Thread-based placement walks logical CPUs in sibling-adjacent order
    (core 0 thread 0, core 0 thread 1, core 1 thread 0, ...), which is
    how Linux enumerates places when ``OMP_PLACES=threads`` with a close
    binding.

    With ``hyperthreading=False`` only the first SMT thread of each core
    is eligible and ``n_threads`` may not exceed the physical core count.
    """
    policy = AffinityPolicy.parse(policy)
    limit = topology.max_threads(hyperthreading)
    if not 1 <= n_threads <= limit:
        raise ValueError(
            f"n_threads={n_threads} outside [1, {limit}] for {topology.name} "
            f"(hyperthreading={'on' if hyperthreading else 'off'})")

    if policy is AffinityPolicy.CORES:
        # All first-SMT CPUs (ids 0..cores-1), then the siblings.
        order = list(range(topology.physical_cores))
        if hyperthreading:
            order += list(range(topology.physical_cores, topology.logical_cpus))
    else:
        # Sibling-adjacent: core c contributes cpu c then cpu c+cores.
        order = []
        for core in range(topology.physical_cores):
            order.append(core)
            if hyperthreading:
                order.append(core + topology.physical_cores)

    cpu_ids = tuple(order[:n_threads])
    cpus = [topology.cpu(i) for i in cpu_ids]
    cores = {c.core for c in cpus}
    per_core = {}
    for c in cpus:
        per_core[c.core] = per_core.get(c.core, 0) + 1
    return Placement(
        n_threads=n_threads,
        cores_used=len(cores),
        modules_used=len({c.module for c in cpus}),
        sockets_used=len({c.socket for c in cpus}),
        max_threads_per_core=max(per_core.values()),
        cpu_ids=cpu_ids,
    )
