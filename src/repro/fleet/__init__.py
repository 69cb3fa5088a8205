"""Multi-process serving fleet: worker pool behind a front router.

One :class:`FleetServer` process owns admission and routing; each
worker process (built from a spawn-safe :class:`WorkerSpec`) runs a
full micro-batching :class:`~repro.serve.server.GemmServer` over its
own registry-loaded :class:`~repro.engine.service.GemmService`.
Requests cross worker sockets as slab-framed messages; the registry's
``latest`` refs are the rollout control plane (workers built with
``watch_interval_s`` hot-reload on publish).
"""

from repro.fleet.server import FleetServer, WorkerFailed
from repro.fleet.spec import WorkerSpec, resolve_factory
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.transport import (ErrorFrame, ReadyFrame, ReloadedFrame,
                                   ResultFrame, SlabFrame, StatsFrame,
                                   StatsReply, StopFrame, StoppedFrame,
                                   chunk_slots)
from repro.fleet.worker import worker_main

__all__ = [
    "FleetServer", "WorkerFailed", "WorkerSpec", "FleetTelemetry",
    "resolve_factory", "worker_main", "chunk_slots",
    "SlabFrame", "StatsFrame", "StopFrame",
    "ReadyFrame", "ResultFrame", "ErrorFrame", "ReloadedFrame",
    "StatsReply", "StoppedFrame",
]
