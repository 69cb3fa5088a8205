"""The fleet front: admission, routing and rollout over worker processes.

:class:`FleetServer` owns N spawned worker processes (each a full
:class:`~repro.serve.server.GemmServer` over its own
:class:`~repro.engine.service.GemmService`, rebuilt from a
:class:`~repro.fleet.spec.WorkerSpec`) and presents the *same* awaitable
surface as a single server: ``async with``, ``submit``, ``submit_many``,
``reload``, ``stats`` — so :func:`~repro.serve.trace.replay_trace`
drives a fleet unchanged.

Request flow is the shared :class:`~repro.serve.front.Front` path: a
burst routes over the alive workers (least-loaded by live in-flight
counts, or consistent-hash for cache affinity), is admitted
all-or-nothing against ``max_pending``, then crosses each worker's pipe
as ``max_batch``-sized :class:`~repro.fleet.transport.SlabFrame`
messages — one reply future per slab, not per request.  Each worker has
one writer task draining its outbox into the pipe in the default
executor (ordered per worker, concurrent across workers, never blocking
the loop) and one reader task resolving futures as frames come back.

A worker death fans :class:`WorkerFailed` out to exactly the requests
that were on that worker, removes it from the routing ring, and leaves
the rest of the fleet serving; :meth:`FleetServer.respawn` rebuilds it
from its spec, which rejoins with the registry's *current* ``latest``.

Rollout is registry-driven: workers built with ``watch_interval_s``
hot-reload on publish by themselves, and :meth:`FleetServer.rollout`
is the managed path — reload one canary, divert a deterministic
traffic fraction to it, probe canary against a reference worker, then
promote the version fleet-wide or roll the canary back.  Either way
the swap rides each worker's FIFO
:class:`~repro.serve.request.ReloadCommand` queue: in-flight requests
finish on the old bundle and nothing is dropped.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp

from repro.fleet.spec import WorkerSpec
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.transport import (ErrorFrame, ReadyFrame, ReloadedFrame,
                                   ReloadFrame, ResultFrame, SlabFrame,
                                   StatsFrame, StatsReply, StopFrame,
                                   StoppedFrame)
from repro.fleet.worker import worker_main
from repro.serve.front import Front
from repro.serve.request import ServerOverloaded
from repro.serve.router import (CanaryRouter, ConsistentHashRouter,
                                CostAwareLeastLoadedRouter,
                                LeastLoadedRouter)


class WorkerFailed(RuntimeError):
    """A fleet worker process died (or was dead when needed)."""


class _Worker:
    """Front-side handle for one worker process."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.reset()

    def reset(self) -> None:
        """Forget the previous incarnation before a (re)spawn."""
        self.process = None
        self.conn = None
        self.pid = None
        self.alive = False
        self.dead_handled = False   # _on_death ran for this incarnation
        # msg_id -> (future, n_slots, t0, cost, client)
        self.pending: dict = {}
        self.in_flight = 0
        self.cost_in_flight = 0.0   # outstanding predicted FLOPs
        self.versions: dict = {}
        self.final_stats = None
        self.reader = None
        self.writer = None
        self.outbox = None          # asyncio.Queue, created at spawn time


class FleetServer(Front):
    """Front router over a pool of spawned ``GemmServer`` processes.

    Admission is fleet-wide and all-or-nothing, with no per-client fair
    share (each worker's own server runs without one too).

    Parameters
    ----------
    specs:
        One :class:`~repro.fleet.spec.WorkerSpec` per worker; names
        must be unique.  Each is validated (picklable, resolvable
        backend factory) before anything spawns.
    router:
        ``"least_loaded"`` (default; live in-flight counts),
        ``"cost_least_loaded"`` (live outstanding predicted FLOPs —
        a worker holding two huge requests finally looks heavier than
        one holding three tiny ones),
        ``"hash"``/``"consistent_hash"`` (stable shape→worker affinity
        on a hash ring), or any
        :class:`~repro.serve.router.ShardRouter` instance whose shard
        names are worker names.
    max_pending:
        Fleet-wide admission cap; defaults to twice the summed worker
        queue capacity (the front should reject before workers do).
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` for fleet
        telemetry (defaults to the process-wide registry).
    """

    def __init__(self, specs, router="least_loaded", max_pending: int = None,
                 registry=None, spawn_timeout_s: float = 60.0,
                 stats_timeout_s: float = 10.0):
        specs = [s.validate() for s in specs]
        if not specs:
            raise ValueError("a fleet needs at least one worker spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate worker names in {names}")
        self._workers = {s.name: _Worker(s) for s in specs}
        super().__init__(
            self._build_router(router),
            max_pending=(int(max_pending) if max_pending is not None
                         else 2 * sum(s.max_queue for s in specs)),
            fair_share=None,
            telemetry=FleetTelemetry(names, registry=registry),
            price_bursts=True)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.stats_timeout_s = float(stats_timeout_s)
        self._msg_id = 0
        self._closed = False

    @classmethod
    def from_registry(cls, registry_root, machine: str, workers: int = 2,
                      routines=(), router="least_loaded",
                      version="latest", backend: str = None,
                      backend_args=(), watch_interval_s: float = None,
                      registry=None, name_prefix: str = "worker",
                      **worker_kwargs) -> "FleetServer":
        """A homogeneous fleet: ``workers`` identical specs over one cell set.

        ``worker_kwargs`` forward to every
        :class:`~repro.fleet.spec.WorkerSpec` (``max_batch``,
        ``max_queue``, ``seed``, ...).
        """
        if int(workers) < 1:
            raise ValueError("workers must be >= 1")
        specs = [WorkerSpec(name=f"{name_prefix}-{i}",
                            registry_root=str(registry_root),
                            machine=str(machine), routines=tuple(routines),
                            version=version, backend=backend,
                            backend_args=tuple(backend_args),
                            watch_interval_s=watch_interval_s,
                            **worker_kwargs)
                 for i in range(int(workers))]
        return cls(specs, router=router, registry=registry)

    # -- plumbing ---------------------------------------------------------
    def _build_router(self, choice):
        names = list(self._workers)
        if choice in ("least_loaded", "least-loaded"):
            return LeastLoadedRouter(names, loads=self._live_loads)
        if choice in ("cost_least_loaded", "cost-least-loaded",
                      "cost_aware"):
            return CostAwareLeastLoadedRouter(names, loads=self._live_costs)
        if choice in ("hash", "consistent_hash", "consistent-hash"):
            return ConsistentHashRouter(names)
        if isinstance(choice, str):
            raise ValueError(f"unknown router {choice!r} (expected "
                             f"'least_loaded', 'cost_least_loaded', 'hash', "
                             f"or a router instance)")
        return choice

    def _live_loads(self) -> dict:
        return {name: worker.in_flight
                for name, worker in self._workers.items() if worker.alive}

    def _live_costs(self) -> dict:
        return {name: worker.cost_in_flight
                for name, worker in self._workers.items() if worker.alive}

    def _alive(self) -> list:
        return [w for w in self._workers.values() if w.alive]

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        try:
            await asyncio.gather(*(self._spawn(worker)
                                   for worker in self._workers.values()))
        except BaseException:
            await self.close()
            raise

    async def _spawn(self, worker: _Worker) -> None:
        """Spawn one worker and wait for its :class:`ReadyFrame`."""
        loop = asyncio.get_running_loop()
        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=worker_main,
                              args=(worker.spec, child_conn),
                              name=f"fleet-{worker.spec.name}", daemon=True)
        process.start()
        child_conn.close()  # child end lives in the child now
        try:
            ready = await asyncio.wait_for(
                loop.run_in_executor(None, parent_conn.recv),
                timeout=self.spawn_timeout_s)
        except (EOFError, OSError, asyncio.TimeoutError) as exc:
            process.terminate()
            parent_conn.close()
            raise WorkerFailed(
                f"worker {worker.spec.name!r} died during startup "
                f"(exitcode {process.exitcode}): {exc!r}") from exc
        if not isinstance(ready, ReadyFrame):
            process.terminate()
            parent_conn.close()
            raise WorkerFailed(f"worker {worker.spec.name!r} sent "
                               f"{type(ready).__name__} instead of ready")
        worker.reset()
        worker.process, worker.conn = process, parent_conn
        worker.pid = ready.pid
        worker.versions = dict(ready.versions)
        worker.alive = True
        worker.outbox = asyncio.Queue()
        worker.reader = asyncio.ensure_future(self._read_loop(worker))
        worker.writer = asyncio.ensure_future(self._write_loop(worker))

    async def _read_loop(self, worker: _Worker) -> None:
        loop = asyncio.get_running_loop()
        conn = worker.conn
        try:
            while True:
                try:
                    frame = await loop.run_in_executor(None, conn.recv)
                except (EOFError, OSError):
                    break
                self._dispatch(worker, frame)
        finally:
            self._on_death(worker)

    async def _write_loop(self, worker: _Worker) -> None:
        """Send the worker's outbox down its pipe, in order.

        Sends run in the default executor, so the loop never blocks and
        different workers' sends overlap.  A frame on the outbox always
        reaches the pipe — no caller's cancellation can stop it halfway
        — or fails with the worker.
        """
        loop = asyncio.get_running_loop()
        while True:
            frame = await worker.outbox.get()
            try:
                await loop.run_in_executor(None, worker.conn.send, frame)
            except (OSError, ValueError):  # the pipe is gone
                self._on_death(worker)
                return
            except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable spec
                entry = self._settle(worker, getattr(frame, "msg_id", None))
                if entry is not None:
                    self._fail(worker, entry, exc)

    def _dispatch(self, worker: _Worker, frame) -> None:
        if isinstance(frame, ResultFrame):
            entry = self._settle(worker, frame.msg_id)
            if entry is None:
                return
            future, n_slots, t0 = entry[:3]
            self.telemetry.record_completed(
                worker.spec.name, n_slots,
                asyncio.get_running_loop().time() - t0)
            if not future.done():
                future.set_result(list(frame.records))
        elif isinstance(frame, ErrorFrame):
            if frame.msg_id is None:
                self.telemetry.registry.event(
                    "fleet_worker_error", worker=worker.spec.name,
                    kind=frame.kind, message=frame.message)
                return
            entry = self._settle(worker, frame.msg_id)
            if entry is not None:
                self._fail(worker, entry, self._rebuild_error(worker, frame))
        elif isinstance(frame, ReloadedFrame):
            worker.versions[frame.routine] = frame.version
            self.telemetry.record_reload(worker.spec.name)
            if frame.msg_id is not None:
                entry = self._settle(worker, frame.msg_id)
                if entry is not None and not entry[0].done():
                    entry[0].set_result(frame)
        elif isinstance(frame, StatsReply):
            entry = self._settle(worker, frame.msg_id)
            if entry is not None and not entry[0].done():
                entry[0].set_result(frame.stats)
        elif isinstance(frame, StoppedFrame):
            worker.final_stats = frame.stats
            worker.versions = dict(frame.stats.get("versions",
                                                   worker.versions))

    @staticmethod
    def _rebuild_error(worker: _Worker, frame: ErrorFrame):
        """Give worker-side rejections back their admission type."""
        if frame.kind == "ServerOverloaded":
            return ServerOverloaded(frame.message)
        return WorkerFailed(f"worker {worker.spec.name!r} {frame.kind}: "
                            f"{frame.message}")

    def _on_death(self, worker: _Worker) -> None:
        """Bookkeeping when a worker's pipe goes quiet (crash or stop)."""
        if worker.dead_handled:
            return
        worker.dead_handled = True
        crashed = worker.final_stats is None and not self._closing
        worker.alive = False
        n_pending = len(worker.pending)
        for msg_id in list(worker.pending):
            self._fail(worker, self._settle(worker, msg_id), WorkerFailed(
                f"worker {worker.spec.name!r} died with the request "
                f"in flight"))
        if worker.writer is not None:
            worker.writer.cancel()
        remove = getattr(self.router, "remove", None)
        if remove is not None:
            try:
                remove(worker.spec.name)
            except ValueError:
                pass  # last shard on the ring; routing will fail loudly
        if crashed:
            self.telemetry.registry.event("fleet_worker_death",
                                          worker=worker.spec.name,
                                          pid=worker.pid,
                                          n_pending=n_pending)

    async def respawn(self, name: str) -> int:
        """Rebuild a dead worker from its spec; returns the new pid.

        The respawned process loads from the registry afresh, so it
        rejoins with the *current* ``latest`` — even if the fleet
        rolled versions while it was down.
        """
        self._check_open()
        worker = self._workers[name]
        if worker.alive:
            raise WorkerFailed(f"worker {name!r} is still alive")
        await self._spawn(worker)
        add = getattr(self.router, "add", None)
        if add is not None:
            add(name)
        self.telemetry.record_respawn(name)
        return worker.pid

    async def close(self) -> None:
        if not self._started or self._closed:
            self._closed = True
            return
        self._closing = True
        loop = asyncio.get_running_loop()
        for worker in self._alive():
            worker.outbox.put_nowait(StopFrame())
        readers = [w.reader for w in self._workers.values()
                   if w.reader is not None]
        if readers:
            done, pending = await asyncio.wait(
                readers, timeout=self.spawn_timeout_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for worker in self._workers.values():
            process = worker.process
            if process is not None:
                await loop.run_in_executor(None, process.join, 5.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    await loop.run_in_executor(None, process.join, 5.0)
            if worker.conn is not None:
                worker.conn.close()
            worker.alive = False
        self._closed = True

    async def __aenter__(self) -> "FleetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- shards -----------------------------------------------------------
    def _shard(self, name: str) -> _Worker:
        worker = self._workers.get(name)
        if worker is None:
            raise KeyError(f"unknown worker {name!r} "
                           f"(have {sorted(self._workers)})")
        if not worker.alive:
            raise WorkerFailed(f"worker {name!r} is not alive")
        return worker

    def _limits(self, worker: _Worker) -> tuple:
        return worker.spec.max_batch, worker.spec.max_batch_cost

    def _deliver(self, worker, name, specs, routines, cost, client, future,
                 trace_id) -> None:
        """Register the slab's msg_id and queue its frame for the pipe."""
        msg_id = self._register(worker, future, len(specs), cost, client)
        self.telemetry.record_dispatch(name, len(specs))
        worker.outbox.put_nowait(SlabFrame(msg_id, tuple(specs),
                                           client=client))

    def _register(self, worker: _Worker, future, n_slots: int = 0,
                  cost: float = 0.0, client: str = None) -> int:
        """Allocate a msg_id for ``future``; account slots and cost."""
        self._msg_id += 1
        msg_id = self._msg_id
        worker.pending[msg_id] = (future, n_slots, future.get_loop().time(),
                                  cost, client)
        worker.in_flight += n_slots
        worker.cost_in_flight += cost
        if cost:
            self.telemetry.record_outstanding(worker.spec.name,
                                              worker.cost_in_flight)
        return msg_id

    def _settle(self, worker: _Worker, msg_id):
        """Pop one pending entry and reverse its accounting, releasing
        its admission slots; ``None`` if it already settled."""
        entry = worker.pending.pop(msg_id, None)
        if entry is None:
            return None
        _, n_slots, _, cost, client = entry
        worker.in_flight -= n_slots
        if n_slots:
            self._release(client, n_slots)
        if cost:
            worker.cost_in_flight = max(0.0, worker.cost_in_flight - cost)
            self.telemetry.record_outstanding(worker.spec.name,
                                              worker.cost_in_flight)
        return entry

    def _fail(self, worker: _Worker, entry, error) -> None:
        """Fail a settled entry's future, counting its slots as failed."""
        future, n_slots = entry[:2]
        if n_slots:
            self.telemetry.record_failure(worker.spec.name, n_slots)
        if not future.done():
            future.set_exception(error)

    # -- serving ----------------------------------------------------------
    async def submit(self, spec, client: str = "default",
                     trace_id: str = None, worker: str = None):
        """Serve one request; returns its ``GemmCallRecord``.

        ``worker`` pins the request to a named worker (rollout probes);
        otherwise the router decides.  ``trace_id`` is accepted for
        :func:`~repro.serve.trace.replay_trace` compatibility (the
        worker's own server assigns trace ids when tracing is on).
        """
        return (await self._serve([spec], client, worker))[0]

    async def submit_many(self, specs, client: str = "default",
                          worker: str = None) -> list:
        """Serve a burst; returns records aligned with ``specs``.

        Routing is one ``route_batch`` call over the alive workers;
        admission is all-or-nothing against ``max_pending``; each
        worker's share crosses the pipe as ``max_batch``-sized slab
        frames.  If any slab fails (worker death, worker-side error)
        the first failure is raised after every slab has settled.
        """
        return await self._serve(list(specs), client, worker)

    # -- control plane ----------------------------------------------------
    async def reload(self, routine: str, version="latest",
                     workers=None) -> dict:
        """Hot-swap one routine's bundle on ``workers`` (default: all alive).

        Each worker loads the version from *its own* registry handle and
        applies it through its server's FIFO reload path — in-flight
        requests finish on the old bundle.  Returns
        ``{worker: {"routine", "version", "generation"}}``.
        """
        self._check_open()
        targets = [w for w in self._alive()
                   if workers is None or w.spec.name in set(workers)]
        if not targets:
            raise WorkerFailed("no alive workers to reload")
        loop = asyncio.get_running_loop()
        acks = {}
        for target in targets:
            future = loop.create_future()
            msg_id = self._register(target, future)
            target.outbox.put_nowait(ReloadFrame(msg_id, str(routine),
                                                 version))
            acks[target.spec.name] = future
        out = {}
        for name, future in acks.items():
            frame = await asyncio.wait_for(future, self.spawn_timeout_s)
            out[name] = {"routine": frame.routine, "version": frame.version,
                         "generation": frame.generation}
        return out

    async def rollout(self, routine: str, version="latest",
                      canary: str = None, fraction: float = 0.25,
                      probes=(), max_divergence: float = 0.0,
                      client: str = "rollout-probe") -> dict:
        """Canary-then-promote a registry version across the fleet.

        One worker (``canary``, default the first alive) reloads to
        ``version``; a :class:`~repro.serve.router.CanaryRouter` then
        diverts a deterministic ``fraction`` of live traffic to it while
        every ``probes`` spec is served by both the canary and a
        reference worker.  If the fraction of probes whose thread
        selection diverges exceeds ``max_divergence`` the canary rolls
        back to its prior version; otherwise the version is promoted to
        the rest of the fleet.  Returns the decision report.
        """
        self._check_open()
        alive = [w.spec.name for w in self._alive()]
        if len(alive) < 2:
            raise WorkerFailed(f"rollout needs >= 2 alive workers, "
                               f"have {len(alive)}")
        canary = str(canary) if canary is not None else alive[0]
        if canary not in alive:
            raise KeyError(f"canary {canary!r} is not an alive worker "
                           f"(have {alive})")
        reference = next(name for name in alive if name != canary)
        probes = list(probes)  # read once: a generator yields only once
        old_version = self._workers[canary].versions.get(str(routine))
        ack = await self.reload(routine, version=version, workers=[canary])
        report = {"routine": str(routine), "canary": canary,
                  "reference": reference, "fraction": float(fraction),
                  "old_version": old_version,
                  "version": ack[canary]["version"],
                  "n_probes": len(probes)}
        base_router = self.router
        self.router = CanaryRouter(base_router, canary, fraction=fraction)
        try:
            divergence = None
            if probes:
                canary_records = await self.submit_many(
                    probes, client=client, worker=canary)
                reference_records = await self.submit_many(
                    probes, client=client, worker=reference)
                diverged = sum(
                    1 for a, b in zip(canary_records, reference_records)
                    if a.n_threads != b.n_threads)
                divergence = diverged / len(probes)
            report["divergence"] = divergence
        finally:
            self.router = base_router
        promote = divergence is None or divergence <= float(max_divergence)
        if promote:
            rest = [name for name in alive if name != canary]
            if rest:
                await self.reload(routine, version=version, workers=rest)
            report["action"] = "promoted"
        else:
            if old_version is not None:
                await self.reload(routine, version=old_version,
                                  workers=[canary])
            report["action"] = "rolled_back"
        self.telemetry.registry.event(
            "fleet_rollout", routine=report["routine"], canary=canary,
            version=report["version"], action=report["action"],
            divergence=report["divergence"])
        return report

    # -- stats ------------------------------------------------------------
    async def worker_stats(self) -> dict:
        """Live per-worker serving statistics (asks each worker)."""
        self._check_open()
        loop = asyncio.get_running_loop()
        futures = {}
        for target in self._alive():
            future = loop.create_future()
            target.outbox.put_nowait(StatsFrame(self._register(target,
                                                               future)))
            futures[target.spec.name] = future
        return {name: await asyncio.wait_for(future, self.stats_timeout_s)
                for name, future in futures.items()}

    def stats(self) -> dict:
        """Front-side fleet statistics (synchronous, no worker round trip).

        Includes the telemetry totals, per-worker state, and — when
        workers have stopped and reported final statistics — a roll-up
        of their server counters under the same top-level keys a single
        :meth:`~repro.serve.server.GemmServer.stats` uses
        (``batches``, ``mean_batch_size``, ``model_passes``), so
        :class:`~repro.serve.trace.ReplayOutcome` reports a fleet
        replay without special-casing.
        """
        fleet = self.telemetry.stats()
        counters = fleet.pop("workers", {})
        workers = {}
        for name, worker in self._workers.items():
            entry = {"alive": worker.alive, "pid": worker.pid,
                     "in_flight": worker.in_flight,
                     "cost_in_flight": worker.cost_in_flight,
                     "versions": dict(worker.versions),
                     "reloads": counters[name]["reloads"],
                     "counters": counters[name]}
            if worker.final_stats is not None:
                entry["final"] = worker.final_stats
            workers[name] = entry
        out = {
            **fleet,
            "pending": self._pending,
            "max_pending": self.max_pending,
            "n_workers": len(self._workers),
            "n_alive": len(self._alive()),
            "router": type(self.router).__name__,
            "workers": workers,
        }
        finals = [w.final_stats["server"] for w in self._workers.values()
                  if w.final_stats and "server" in w.final_stats]
        if finals:
            batches = sum(f.get("batches", 0) for f in finals)
            slots = sum(f.get("batches", 0) * f.get("mean_batch_size", 0.0)
                        for f in finals)
            out["served"] = sum(f.get("served", 0) for f in finals)
            out["batches"] = batches
            out["mean_batch_size"] = (round(slots / batches, 3)
                                      if batches else 0.0)
            out["model_passes"] = sum(f.get("model_passes", 0)
                                      for f in finals)
            out["evaluations"] = sum(f.get("evaluations", 0)
                                     for f in finals)
        merged = self.telemetry.latency_ms()
        if merged.count:
            summary = merged.summary()
            out["latency_ms"] = {
                "count": summary["count"],
                "mean_ms": round(summary["mean"], 3),
                "p50_ms": round(summary["p50"], 3),
                "p95_ms": round(summary["p95"], 3),
                "p99_ms": round(summary["p99"], 3),
            }
        return out
