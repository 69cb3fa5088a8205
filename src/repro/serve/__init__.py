"""repro.serve — async request serving over the execution engine.

PR 1 made the engine *able* to answer batches
(:meth:`~repro.engine.service.GemmService.run_batch`); this package
makes the system *form* those batches itself from an asynchronous
request stream:

    clients --await submit()--> GemmServer --route--> shard queues
                                   |                     |
                          admission control        MicroBatcher
                       (backpressure, hard        (max_batch OR
                        limit, fair share)         max_wait_ms window)
                                                         |
                                              GemmService.run_batch
                                              (one vectorised pass)

* :class:`GemmServer` — asyncio front door: admission control with
  backpressure, :class:`ServerOverloaded` rejection and per-client
  fair-share caps; multi-tenant shard routing; telemetry.
* :class:`~repro.serve.front.Front` — the route → admit → slab →
  gather path :class:`GemmServer` and the fleet's
  :class:`~repro.fleet.server.FleetServer` share; ``submit`` is its
  one-slot case.
* :class:`~repro.serve.scheduler.MicroBatcher` /
  :class:`~repro.serve.scheduler.BatchPolicy` — dynamic micro-batching:
  a batch closes when it reaches ``max_batch`` or ``max_wait_ms`` after
  its first request.
* routers, each one ``route_batch`` over the
  :class:`~repro.serve.router.ShardRouter` base —
  :class:`~repro.serve.router.SingleShardRouter` (one shard),
  :class:`~repro.serve.router.ConsistentHashRouter` (replicas, stable
  under membership changes; the multi-shard default),
  :class:`~repro.serve.router.LeastLoadedRouter` /
  :class:`~repro.serve.router.CostAwareLeastLoadedRouter` (live
  in-flight slots / outstanding predicted FLOPs),
  :class:`~repro.serve.router.CanaryRouter` (deterministic
  traffic-fraction split for rollouts),
  :class:`~repro.serve.router.RoutineRouter` (per routine family),
  :class:`~repro.serve.router.TenantRouter` (per client).
* :mod:`~repro.serve.trace` — Poisson load generation and the replay
  harness shared by the CLI, the serve benchmark and the examples.

Thread choices are bitwise identical to synchronous
``GemmService.run`` whatever batches the scheduler forms, because the
engine's batch prediction is exact.
"""

from repro.serve.front import chunk_slots
from repro.serve.request import ReloadCommand, ServerClosed, ServerOverloaded
from repro.serve.router import (CanaryRouter, ConsistentHashRouter,
                                CostAwareLeastLoadedRouter,
                                LeastLoadedRouter, RoutineRouter,
                                ShardRouter, SingleShardRouter,
                                TenantRouter, default_router)
from repro.serve.scheduler import BatchPolicy, MicroBatcher
from repro.serve.server import GemmServer
from repro.serve.telemetry import ServeTelemetry
from repro.serve.trace import (ReplayOutcome, TimedRequest, poisson_trace,
                               replay_trace, replay_trace_async)

__all__ = [
    "BatchPolicy",
    "CanaryRouter",
    "ConsistentHashRouter",
    "CostAwareLeastLoadedRouter",
    "GemmServer",
    "LeastLoadedRouter",
    "MicroBatcher",
    "ReloadCommand",
    "ReplayOutcome",
    "RoutineRouter",
    "ServeTelemetry",
    "ServerClosed",
    "ServerOverloaded",
    "ShardRouter",
    "SingleShardRouter",
    "TenantRouter",
    "TimedRequest",
    "chunk_slots",
    "default_router",
    "poisson_trace",
    "replay_trace",
    "replay_trace_async",
]
