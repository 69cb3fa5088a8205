"""Node topology: sockets, cache-sharing modules, cores, SMT and NUMA.

A modern two-socket node is a tree: sockets contain modules (AMD calls
them CCDs/CCXs — groups of cores sharing an L3 slice; on monolithic Intel
parts the "module" is the whole socket), modules contain physical cores,
and each core exposes one or more SMT hardware threads ("logical CPUs").
Memory is split into NUMA domains, several per socket on Milan.

The topology object answers the placement and locality questions the
cost model needs: which logical CPU lives on which core/module/socket,
how much L3 a group of threads shares, and how much memory bandwidth a
set of sockets can deliver.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LogicalCpu:
    """One schedulable hardware thread."""

    cpu_id: int
    core: int
    module: int
    socket: int
    smt_rank: int  # 0 for the first thread on a core, 1 for its SMT sibling


@dataclass(frozen=True)
class NodeTopology:
    """A two-level-cache, multi-socket shared-memory node.

    Parameters
    ----------
    name:
        Human-readable node name ("setonix", "gadi", ...).
    sockets:
        Number of CPU sockets.
    modules_per_socket:
        L3-sharing core groups per socket (8 CCDs on Milan, 1 on CLX).
    cores_per_module:
        Physical cores per module.
    smt:
        Hardware threads per core (2 when hyper-threading is on).
    freq_ghz:
        Nominal core clock.
    flops_per_cycle_sp:
        Peak single-precision FLOPs per cycle per core (FMA width).
    l2_kb:
        Private L2 per core.
    l3_mb_per_module:
        Shared L3 per module.
    numa_domains_per_socket:
        NUMA memory domains per socket (4 on Milan with NPS4, 2 on CLX).
    mem_bw_gbs_per_socket:
        Aggregate DRAM bandwidth per socket in GB/s.
    mem_gb:
        Total node memory.
    """

    name: str
    sockets: int
    modules_per_socket: int
    cores_per_module: int
    smt: int
    freq_ghz: float
    flops_per_cycle_sp: int
    l2_kb: int
    l3_mb_per_module: float
    numa_domains_per_socket: int
    mem_bw_gbs_per_socket: float
    mem_gb: int

    def __post_init__(self):
        for name in ("sockets", "modules_per_socket", "cores_per_module", "smt",
                      "flops_per_cycle_sp", "l2_kb", "numa_domains_per_socket", "mem_gb"):
            if getattr(self, name) < 1:
                raise ValueError(f"topology field {name} must be >= 1")
        if self.freq_ghz <= 0 or self.l3_mb_per_module <= 0 or self.mem_bw_gbs_per_socket <= 0:
            raise ValueError("frequencies, cache sizes and bandwidths must be positive")

    # -- derived counts ------------------------------------------------
    @property
    def cores_per_socket(self) -> int:
        return self.modules_per_socket * self.cores_per_module

    @property
    def physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def logical_cpus(self) -> int:
        return self.physical_cores * self.smt

    @property
    def total_modules(self) -> int:
        return self.sockets * self.modules_per_socket

    @property
    def numa_domains(self) -> int:
        return self.sockets * self.numa_domains_per_socket

    def max_threads(self, hyperthreading: bool = True) -> int:
        """Maximum usable threads with or without SMT."""
        return self.logical_cpus if hyperthreading else self.physical_cores

    # -- peak rates ----------------------------------------------------
    def peak_gflops_core(self, dtype: str = "float32") -> float:
        """Peak GFLOP/s of one physical core running a single thread."""
        per_cycle = self.flops_per_cycle_sp if dtype == "float32" else self.flops_per_cycle_sp // 2
        return self.freq_ghz * per_cycle

    def peak_gflops_node(self, dtype: str = "float32") -> float:
        return self.peak_gflops_core(dtype) * self.physical_cores

    # -- CPU enumeration -----------------------------------------------
    def cpu(self, cpu_id: int) -> LogicalCpu:
        """Resolve a logical CPU id to its position in the tree.

        Numbering follows the Linux convention on these systems: CPUs
        ``0 .. physical_cores-1`` are the first SMT thread of each core
        (cores enumerated socket-major, module-major), and CPUs
        ``physical_cores .. 2*physical_cores-1`` are the SMT siblings.
        """
        if not 0 <= cpu_id < self.logical_cpus:
            raise ValueError(f"cpu_id {cpu_id} out of range [0, {self.logical_cpus})")
        smt_rank, core = divmod(cpu_id, self.physical_cores)
        socket, within = divmod(core, self.cores_per_socket)
        module = socket * self.modules_per_socket + within // self.cores_per_module
        return LogicalCpu(cpu_id=cpu_id, core=core, module=module,
                          socket=socket, smt_rank=smt_rank)

    def l3_bytes_for_modules(self, n_modules: int) -> float:
        """Aggregate L3 available to threads spread over ``n_modules``."""
        n = max(1, min(n_modules, self.total_modules))
        return n * self.l3_mb_per_module * 1024 * 1024

    def describe(self) -> str:
        """One-line summary, e.g. for benchmark report headers."""
        return (f"{self.name}: {self.sockets}x{self.cores_per_socket}c "
                f"@{self.freq_ghz}GHz, SMT{self.smt}, "
                f"{self.total_modules}xL3 {self.l3_mb_per_module}MB, "
                f"{self.numa_domains} NUMA domains, {self.mem_gb}GB")
