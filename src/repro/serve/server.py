"""`GemmServer`: the asyncio front door of the serving subsystem.

Many concurrent clients ``await server.submit(spec)``; the server admits
(or rejects) each request, routes it to a shard — one
:class:`~repro.engine.service.GemmService` per machine profile, routine
family or replica — and a per-shard
:class:`~repro.serve.scheduler.MicroBatcher` forms dynamic batches that
are fulfilled with one vectorised engine pass each.  Routing, admission,
slab chopping and gathering are the shared
:class:`~repro.serve.front.Front` path; this module supplies the shard
side: a bounded queue per shard, its batcher and tracing.

Admission control is two-tiered:

* a bounded per-shard queue (``max_queue``) applies **backpressure** —
  ``submit`` awaits until a slot frees;
* a global hard limit (``max_pending`` admitted-but-unfinished requests,
  whichever clients hold them) **rejects** with
  :class:`~repro.serve.request.ServerOverloaded`.

Thread choices are bitwise identical to synchronous
:meth:`GemmService.run <repro.engine.service.GemmService.run>` calls on
the same service, whatever batches the scheduler happens to form.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Optional

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import RequestTrace, SpanCollector, new_trace_id
from repro.serve.front import Front
from repro.serve.request import ReloadCommand, SlabRequest
from repro.serve.router import ShardRouter, default_router
from repro.serve.scheduler import SHUTDOWN, BatchPolicy, MicroBatcher
from repro.serve.telemetry import ServeTelemetry


class GemmServer(Front):
    """Async request server over one or more ``GemmService`` shards.

    Parameters
    ----------
    shards:
        A single :class:`~repro.engine.service.GemmService` or a dict
        mapping shard names to services (multi-tenant mode).  The server
        does not own the services; closing it leaves them open.
    router:
        A :class:`~repro.serve.router.ShardRouter`; defaults to direct
        routing for one shard and a
        :class:`~repro.serve.router.ConsistentHashRouter` for many.
    max_batch / max_wait_ms:
        The :class:`~repro.serve.scheduler.BatchPolicy` thresholds.
    max_batch_cost:
        Optional predicted-FLOPs budget per micro-batch (cost-aware
        batch formation; see :func:`~repro.serve.cost.cost_of`).
        Batches close when *either* the slot count or the predicted
        cost budget trips; slab chopping in :meth:`submit_many` honours
        the same budget.  Thread selections stay bitwise identical to
        count-only serving — only batch boundaries move.
    max_queue:
        Per-shard queue capacity; a full queue blocks ``submit`` until a
        batch drains (backpressure, never loss).
    max_pending:
        Hard global cap on admitted-but-unfinished requests; beyond it
        ``submit`` raises :class:`ServerOverloaded` immediately.  One
        client may fill it.  Defaults to ``2 * max_queue * n_shards``.
    tracing:
        Enable per-request span tracing: every served request's journey
        (admission → queue wait → batch formation → predict-tier
        resolution → execution) is recorded into ``collector`` (a
        bounded :class:`~repro.obs.tracing.SpanCollector`).  Off by
        default; when off, no trace state is allocated anywhere on the
        hot path.  Thread choices are bitwise identical either way and
        tracing adds zero model passes.
    trace_capacity:
        Ring-buffer bound on retained traces when ``tracing`` is on.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` the server's
        telemetry publishes into (default: the process-wide one).
    """

    def __init__(self, shards, router: Optional[ShardRouter] = None, *,
                 max_batch: int = 16, max_wait_ms: float = 2.0,
                 max_batch_cost: Optional[float] = None,
                 max_queue: int = 64, max_pending: Optional[int] = None,
                 tracing: bool = False, trace_capacity: int = 4096,
                 registry: Optional[MetricsRegistry] = None):
        if hasattr(shards, "run_batch"):  # a bare GemmService
            shards = {"default": shards}
        if not shards:
            raise ValueError("server needs at least one shard")
        self.shards = dict(shards)
        self.policy = BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms,
                                  max_batch_cost=max_batch_cost)
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = int(max_queue)
        self.registry = registry if registry is not None \
            else default_registry()
        super().__init__(
            router if router is not None else default_router(self.shards),
            max_pending=(int(max_pending) if max_pending is not None
                         else 2 * self.max_queue * len(self.shards)),
            telemetry=ServeTelemetry(registry=self.registry),
            price_bursts=max_batch_cost is not None)
        self.collector = SpanCollector(trace_capacity) if tracing else None
        self._queues: dict = {}
        self._tasks: list = []

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "GemmServer":
        """Create the shard queues and batcher tasks on the running loop."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for name, service in self.shards.items():
            queue: asyncio.Queue = asyncio.Queue(maxsize=self.max_queue)
            batcher = MicroBatcher(service, self.policy, self.telemetry,
                                   release=self._release, shard=name,
                                   collector=self.collector)
            self._queues[name] = queue
            self._tasks.append(asyncio.ensure_future(batcher.run(queue)))
        return self

    async def close(self) -> None:
        """Stop admission, drain every queue, join the batcher tasks.

        Requests admitted before ``close`` resolve normally: the
        shutdown sentinel is FIFO-ordered behind them.
        """
        if self._closing:
            return
        self._closing = True
        if not self._started:
            return
        for queue in self._queues.values():
            await queue.put(SHUTDOWN)
        await asyncio.gather(*self._tasks)

    async def __aenter__(self) -> "GemmServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- shards ----------------------------------------------------------
    def _shard(self, name: str):
        queue = self._queues.get(name)
        if queue is None:
            raise KeyError(f"unknown shard {name!r} "
                           f"(have {sorted(self._queues)})")
        return queue

    def _limits(self, queue) -> tuple:
        return self.policy.max_batch, self.policy.max_batch_cost

    def _deliver(self, queue, name, specs, routines, cost, client, future,
                 trace_id):
        """Enqueue one slab; a full queue returns the put to await
        (backpressure).  The slab's requests count as submitted once it
        is on the queue, so a caller cancelled while it waits leaves
        none behind."""
        depth = queue.qsize()
        t_submit = future.get_loop().time()
        traces = None
        if self.collector is not None:
            traces = [RequestTrace(
                trace_id if trace_id is not None else new_trace_id(),
                client, routine, name, depth, t_submit)
                for routine in routines]
        slab = SlabRequest(specs, client, future, t_submit, name, traces)
        try:
            queue.put_nowait(slab)
        except asyncio.QueueFull:
            return self._enqueue(queue, slab, depth, routines)
        self._count_admission(client, depth, routines)
        return None

    async def _enqueue(self, queue, slab, depth, routines) -> None:
        await queue.put(slab)
        self._count_admission(slab.client, depth, routines)

    def _count_admission(self, client, depth, routines) -> None:
        first = routines[0]
        if routines.count(first) == len(routines):  # one routine, as usual
            self.telemetry.record_admission(client, depth, first,
                                            len(routines))
        else:
            for routine, count in Counter(routines).items():
                self.telemetry.record_admission(client, queue_depth=depth,
                                                routine=routine, n=count)

    # -- serving ---------------------------------------------------------
    async def submit(self, spec, client: str = "default",
                     shard: Optional[str] = None,
                     trace_id: Optional[str] = None):
        """Admit, route, enqueue and await one request.

        Returns the :class:`~repro.engine.service.GemmCallRecord` the
        shard produced.  The request travels as a one-slot slab.
        ``shard`` overrides the router (explicit tenant targeting);
        backpressure is an ``await``, overload an exception.
        ``trace_id`` names the request's span chain when tracing is
        enabled (one is generated otherwise) and is ignored on an
        untraced server.
        """
        return (await self._serve([spec], client, shard, trace_id))[0]

    async def submit_many(self, specs, client: str = "default") -> list:
        """Submit a burst as slabs; records come back in input order.

        The whole burst is routed in one ``route_batch`` call, admitted
        all-or-nothing, and enqueued as
        :class:`~repro.serve.request.SlabRequest` entries — one queue
        put and **one future per micro-batch** (each shard's slots are
        chopped into ``max_batch``-sized slabs, or smaller under a
        ``max_batch_cost`` budget), not one per request.  The returned
        list is exactly what per-request :meth:`submit` calls would
        have produced.
        """
        return await self._serve(list(specs), client)

    # -- control plane ---------------------------------------------------
    async def reload(self, bundle, shard: Optional[str] = None,
                     **kwargs) -> dict:
        """Zero-downtime hot-swap of a new model bundle.

        Enqueues a :class:`~repro.serve.request.ReloadCommand` behind
        every already-admitted request on the target shard(s) (all
        shards by default), so in-flight and already-queued requests
        finish on the bundle they were admitted under and the first
        batch formed after the swap uses the new one — no request is
        dropped, rejected or split across bundles.  Blocks until every
        target shard has applied the swap; returns the per-shard
        :meth:`~repro.engine.service.GemmService.reload` summaries.
        A shard whose reload raises keeps serving its old bundle and
        the exception propagates.

        ``kwargs`` forward to the shard's reload: in particular
        ``routine=`` swaps a single routine's predictor inside a
        multi-routine shard (the default is the bundle's own
        ``config.routine`` tag), leaving every other routine serving
        untouched.
        """
        self._check_open()
        targets = list(self._queues) if shard is None else [shard]
        for name in targets:
            self._shard(name)
        loop = asyncio.get_running_loop()
        commands = {name: ReloadCommand(bundle=bundle,
                                        future=loop.create_future(),
                                        kwargs=kwargs)
                    for name in targets}
        for name, command in commands.items():
            await self._queues[name].put(command)
        return {name: await command.future
                for name, command in commands.items()}

    # -- stats -----------------------------------------------------------
    def stats(self) -> dict:
        """Telemetry plus per-shard engine statistics.

        The engines own the prediction, reload and decision-table
        counts: ``evaluations``, ``model_passes`` (what the serve
        benchmark compares against per-request serving), ``reloads``
        and the ``table_*`` keys (in total and per routine, present
        once a table has answered or fallen back) sum the distinct
        shard engines, so a service shared by two shards counts once
        and calls made on an engine directly count too.
        """
        shard_stats = {name: service.stats()
                       for name, service in self.shards.items()}
        engines = {id(service): service for service in self.shards.values()}
        engine_stats = {id(service): shard_stats[name]
                        for name, service in self.shards.items()}
        out = self.telemetry.stats()
        out["reloads"] = sum(service.bundle_generation
                             for service in engines.values())
        tables = dict.fromkeys(("table_hits", "table_fallbacks",
                                "table_interpolated"), 0)
        routines = out["routines"]
        for service in engines.values():
            for key, value in service.table_counters().items():
                tables[key] += value
            for routine, counts in service.routine_table_counters().items():
                row = routines.setdefault(routine, {
                    "submitted": 0, "served": 0, "failed": 0, "rejected": 0})
                for key, value in counts.items():
                    row[key] = row.get(key, 0) + value
        if tables["table_hits"] or tables["table_fallbacks"]:
            out["table_hits"] = tables["table_hits"]
            out["table_fallbacks"] = tables["table_fallbacks"]
            if tables["table_interpolated"]:
                out["table_interpolated"] = tables["table_interpolated"]
        out.update({
            "pending": self._pending,
            "max_pending": self.max_pending,
            "max_queue": self.max_queue,
            "max_batch": self.policy.max_batch,
            "max_wait_ms": self.policy.max_wait_ms,
            "evaluations": sum(s["evaluations"]
                               for s in engine_stats.values()),
            "model_passes": sum(s["model_passes"]
                                for s in engine_stats.values()),
            "shards": shard_stats,
        })
        # Observability keys appear only when the features are on, so
        # the default stats dict stays exactly its historic shape.
        if self.policy.max_batch_cost is not None:
            out["max_batch_cost"] = self.policy.max_batch_cost
        if self.collector is not None:
            out["trace"] = self.collector.stats()
        return out
