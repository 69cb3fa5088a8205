"""Spawn-safe worker construction: everything a worker is, as plain data.

A fleet worker process is built entirely from a :class:`WorkerSpec` —
a frozen dataclass of strings, numbers and tuples, picklable by
construction.  Nothing live crosses the spawn boundary: no service
objects (they hold fitted models and lambdas), no machine instances,
no backend closures.  The worker rebuilds all of them inside its own
interpreter from the spec:

* the execution machine from its preset *name* and seed,
* the :class:`~repro.engine.service.GemmService` from the registry
  *root path* (every requested routine's ``latest`` — or a pinned
  version — loaded, checksum-verified),
* an optional backend override from a dotted ``"module:attr"`` factory
  path plus plain keyword arguments.

A worker therefore starts on the registry's state at spawn, not a
snapshot pickled into the parent — the registry stays the single
control plane.
"""

from __future__ import annotations

import importlib
import pickle
import sys
from dataclasses import asdict, dataclass


def resolve_factory(path: str):
    """Import ``"module:attr"`` (attr may dot into the module)."""
    module_name, sep, attr = str(path).partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"expected a 'module:attr' factory path, got {path!r}")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class WorkerSpec:
    """Plain-data recipe for one fleet worker.

    Parameters
    ----------
    name:
        Worker identity — shard name in routing, label on telemetry.
    registry_root:
        Filesystem path of the :class:`~repro.train.registry.ModelRegistry`
        the worker loads from and watches.
    machine:
        Machine preset name (``"tiny"``, ``"gadi"``, ...) or ``"host"``;
        doubles as the registry cell's machine name.
    routines:
        Routine names to serve (empty: every routine published for the
        machine).
    version:
        Registry version to load (``"latest"`` or an int), applied to
        every routine.
    backend:
        Optional ``"module:attr"`` factory path; called with
        ``dict(backend_args)`` to build an execution-backend override.
    backend_args:
        Factory keyword arguments as a ``((key, value), ...)`` tuple of
        plain values.
    watch_interval_s:
        When set, the worker polls the registry's ``latest`` refs this
        often and hot-reloads changed cells on its own.
    max_batch_cost:
        Optional predicted-FLOPs budget per micro-batch inside the
        worker's server (cost-aware batch formation); the front chops
        slabs on the same budget so frames arrive pre-balanced.
    """

    name: str
    registry_root: str
    machine: str
    routines: tuple = ()
    version: object = "latest"
    seed: int = 0
    repeats: int = 1
    cache_size: int = 256
    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_queue: int = 256
    backend: str = None
    backend_args: tuple = ()
    watch_interval_s: float = None
    max_batch_cost: float = None

    def __post_init__(self):
        object.__setattr__(self, "routines",
                           tuple(str(r) for r in self.routines))
        object.__setattr__(self, "backend_args",
                           tuple((str(k), v) for k, v in self.backend_args))

    # -- plain-dict round trip ------------------------------------------
    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerSpec":
        data = dict(data)
        data["routines"] = tuple(data.get("routines") or ())
        data["backend_args"] = tuple(
            tuple(pair) for pair in data.get("backend_args") or ())
        return cls(**data)

    def validate(self) -> "WorkerSpec":
        """Fail fast on anything spawn would choke on.

        ``multiprocessing`` spawn pickles the spec into the child;
        surfacing an unpicklable field here — in the parent, with a
        clear message — beats a cryptic traceback out of the spawn
        machinery.
        """
        try:
            pickle.dumps(self)
        except Exception as exc:
            raise ValueError(
                f"WorkerSpec {self.name!r} is not picklable (spawn-safe "
                f"specs hold only plain data): {exc}") from exc
        if self.backend is not None:
            resolve_factory(self.backend)  # raises on a bad path
        return self

    # -- worker-side construction ---------------------------------------
    def build_machine(self):
        from repro.machine.host import HostMachine
        from repro.machine.presets import by_name
        from repro.machine.simulator import MachineSimulator

        if self.machine == "host":
            return HostMachine(seed=self.seed)
        return MachineSimulator(by_name(self.machine), seed=self.seed)

    def build_backend(self):
        if self.backend is None:
            return None
        return resolve_factory(self.backend)(**dict(self.backend_args))

    def build_service(self):
        """(service, loaded versions) — runs inside the worker process."""
        from repro.engine.service import GemmService
        from repro.train.registry import ModelRegistry

        registry = ModelRegistry(self.registry_root)
        service = GemmService.from_registry(
            registry, self.build_machine(), machine_name=self.machine,
            routines=list(self.routines) or None, repeats=self.repeats,
            cache_size=self.cache_size, version=self.version,
            backend=self.build_backend())
        versions = {routine: registry.resolve(routine, self.machine,
                                              self.version).version
                    for routine in service.routine_info}
        return service, versions

    def build_server(self, service):
        """The worker's :class:`~repro.serve.server.GemmServer`."""
        from repro.serve.server import GemmServer

        # The front owns admission: its max_pending bounds the requests
        # in every worker, so the worker keeps no pending cap of its own
        # (one could refuse a burst the front admitted).  The queue's
        # max_queue backpressure stays.
        return GemmServer(service, max_batch=self.max_batch,
                          max_wait_ms=self.max_wait_ms,
                          max_batch_cost=self.max_batch_cost,
                          max_queue=self.max_queue, max_pending=sys.maxsize)
