"""The fleet front: admission and routing over worker processes.

:class:`FleetServer` owns N spawned worker processes (each a full
:class:`~repro.serve.server.GemmServer` over its own
:class:`~repro.engine.service.GemmService`, rebuilt from a
:class:`~repro.fleet.spec.WorkerSpec`) and presents the *same* awaitable
surface as a single server: ``async with``, ``submit``, ``submit_many``,
``stats`` — so :func:`~repro.serve.trace.replay_trace` drives a fleet
unchanged.

Request flow is the shared :class:`~repro.serve.front.Front` path: a
burst routes over the alive workers (least-loaded by live in-flight
counts, or consistent-hash for cache affinity), is admitted
all-or-nothing against ``max_pending``, then crosses each worker's
socket as ``max_batch``-sized :class:`~repro.fleet.transport.SlabFrame`
messages — one reply future per slab, not per request.  Each worker's
end of the socket pair runs on the front's event loop: every frame is
written synchronously, in call order, when it is handed over (the
transport buffers what the socket cannot take yet, and ``max_pending``
bounds that), and one reader task resolves futures as frames come back.
No frame crosses a thread.

A worker death fans :class:`WorkerFailed` out to exactly the requests
that were on that worker, removes it from routing, and leaves the rest
of the fleet serving.

Rollout is registry-driven: workers built with ``watch_interval_s``
hot-reload on publish by themselves, each swap riding the worker's FIFO
:class:`~repro.serve.request.ReloadCommand` queue, so in-flight
requests finish on the old bundle and nothing is dropped.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import socket

from repro.fleet.spec import WorkerSpec
from repro.fleet.telemetry import FleetTelemetry
from repro.fleet.transport import (ErrorFrame, ReadyFrame, ReloadedFrame,
                                   ResultFrame, SlabFrame, StatsFrame,
                                   StatsReply, StopFrame, StoppedFrame,
                                   encode, read_frame)
from repro.fleet.worker import worker_main
from repro.serve.front import Front
from repro.serve.router import (ConsistentHashRouter,
                                CostAwareLeastLoadedRouter,
                                LeastLoadedRouter)


class WorkerFailed(RuntimeError):
    """A fleet worker process died (or was dead when needed)."""


class _Worker:
    """Front-side handle for one worker process."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.process = None
        self.writer = None          # asyncio.StreamWriter to the worker
        self.pid = None
        self.alive = False
        self.dead_handled = False   # _on_death ran
        # msg_id -> (future, n_slots, t0, cost)
        self.pending: dict = {}
        self.in_flight = 0
        self.cost_in_flight = 0.0   # outstanding predicted FLOPs
        self.versions: dict = {}
        self.final_stats = None
        self.reader = None          # the task reading the worker's frames


class FleetServer(Front):
    """Front router over a pool of spawned ``GemmServer`` processes.

    Admission is fleet-wide and all-or-nothing, by the same
    ``max_pending`` rule as a single :class:`~repro.serve.server.GemmServer`.

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
        queue capacity.  It is the fleet's only pending-count limit:
        workers keep none of their own, so a burst the front admits is
        never refused by a worker, whichever worker it lands on.
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
        ctx = mp.get_context("spawn")
        front_end, worker_end = socket.socketpair()
        process = ctx.Process(target=worker_main,
                              args=(worker.spec, worker_end),
                              name=f"fleet-{worker.spec.name}", daemon=True)
        try:
            process.start()
        except BaseException:
            front_end.close()
            raise
        finally:
            worker_end.close()  # the worker's end lives in the worker now
        reader, writer = await asyncio.open_connection(sock=front_end)
        try:
            ready = await asyncio.wait_for(read_frame(reader),
                                           timeout=self.spawn_timeout_s)
        except (EOFError, OSError, asyncio.TimeoutError) as exc:
            process.terminate()
            writer.close()
            raise WorkerFailed(
                f"worker {worker.spec.name!r} died during startup "
                f"(exitcode {process.exitcode}): {exc!r}") from exc
        if not isinstance(ready, ReadyFrame):
            process.terminate()
            writer.close()
            raise WorkerFailed(f"worker {worker.spec.name!r} sent "
                               f"{type(ready).__name__} instead of ready")
        worker.process, worker.writer = process, writer
        worker.pid = ready.pid
        worker.versions = dict(ready.versions)
        worker.alive = True
        worker.reader = asyncio.ensure_future(self._read_loop(worker,
                                                              reader))

    async def _read_loop(self, worker: _Worker, reader) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except (EOFError, OSError):
                    break
                self._dispatch(worker, frame)
        finally:
            self._on_death(worker)

    def _send(self, worker: _Worker, frame) -> None:
        """Write one frame to the worker's socket, now, in call order.

        The write never waits: the transport buffers whatever the socket
        cannot take yet, and admission (``max_pending``) bounds that.  So
        a handed-over frame has arrived, for the front's purposes; if the
        socket is gone, the reader sees it and :meth:`_on_death` fails
        every entry pending on the worker.  A frame that does not pickle
        fails its own entry only.
        """
        try:
            data = encode(frame)
        except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable spec
            entry = self._settle(worker, getattr(frame, "msg_id", None))
            if entry is not None:
                self._fail(worker, entry, exc)
            return
        worker.writer.write(data)

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
                self._fail(worker, entry, WorkerFailed(
                    f"worker {worker.spec.name!r} {frame.kind}: "
                    f"{frame.message}"))
        elif isinstance(frame, ReloadedFrame):
            worker.versions[frame.routine] = frame.version
            self.telemetry.record_reload(worker.spec.name)
        elif isinstance(frame, StatsReply):
            entry = self._settle(worker, frame.msg_id)
            if entry is not None and not entry[0].done():
                entry[0].set_result(frame.stats)
        elif isinstance(frame, StoppedFrame):
            worker.final_stats = frame.stats
            worker.versions = dict(frame.stats.get("versions",
                                                   worker.versions))

    def _on_death(self, worker: _Worker) -> None:
        """Bookkeeping when a worker's socket goes quiet (crash or stop)."""
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
        worker.writer.close()
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

    async def close(self) -> None:
        if not self._started or self._closed:
            self._closed = True
            return
        self._closing = True
        loop = asyncio.get_running_loop()
        for worker in self._alive():
            self._send(worker, StopFrame())
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
            if worker.writer is not None:
                worker.writer.close()
                try:
                    await worker.writer.wait_closed()
                except OSError:
                    pass  # the worker's end broke first; closed all the same
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
        """Register the slab's msg_id and write its frame to the worker."""
        msg_id = self._register(worker, future, len(specs), cost)
        self.telemetry.record_dispatch(name, len(specs))
        self._send(worker, SlabFrame(msg_id, tuple(specs), client=client))

    def _register(self, worker: _Worker, future, n_slots: int = 0,
                  cost: float = 0.0) -> int:
        """Allocate a msg_id for ``future``; account slots and cost."""
        self._msg_id += 1
        msg_id = self._msg_id
        worker.pending[msg_id] = (future, n_slots, future.get_loop().time(),
                                  cost)
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
        _, n_slots, _, cost = entry
        worker.in_flight -= n_slots
        self._release(n_slots)
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
                     trace_id: str = None):
        """Serve one request; returns its ``GemmCallRecord``.

        ``trace_id`` is accepted for :func:`~repro.serve.trace.replay_trace`
        compatibility (the worker's own server assigns trace ids when
        tracing is on).
        """
        return (await self._serve([spec], client))[0]

    async def submit_many(self, specs, client: str = "default") -> list:
        """Serve a burst; returns records aligned with ``specs``.

        Routing is one ``route_batch`` call over the alive workers;
        admission is all-or-nothing against ``max_pending``; each
        worker's share crosses its socket as ``max_batch``-sized slab
        frames.  If any slab fails (worker death, worker-side error)
        the first failure is raised after every slab has settled.
        """
        return await self._serve(list(specs), client)

    # -- stats ------------------------------------------------------------
    async def worker_stats(self) -> dict:
        """Live per-worker serving statistics (asks each worker)."""
        self._check_open()
        loop = asyncio.get_running_loop()
        futures = {}
        for target in self._alive():
            future = loop.create_future()
            self._send(target, StatsFrame(self._register(target, future)))
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
