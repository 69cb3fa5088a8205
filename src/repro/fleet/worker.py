"""Fleet worker process: a full ``GemmServer`` behind a duplex pipe.

``worker_main`` is the spawn target.  Inside its own interpreter the
worker rebuilds everything from its :class:`~repro.fleet.spec.WorkerSpec`
(service from the registry, micro-batching server over it), then loops
on the pipe: slab frames become ``submit_many`` bursts (each one
arriving pre-chunked to ``max_batch``, so it lands as exactly one
:class:`~repro.serve.request.SlabRequest` queue entry), reload frames
go through the server's FIFO :class:`~repro.serve.request.ReloadCommand`
path (zero-downtime by queue ordering), and stats frames snapshot the
server.  With ``watch_interval_s`` set, a background task polls the
registry's ``latest`` refs and hot-reloads changed cells on its own,
notifying the front with an unsolicited ``ReloadedFrame`` — publishing
to the registry *is* the rollout trigger.

Pipe reads run in the default executor (``Connection.recv`` blocks);
every ``send`` happens on the event-loop thread, so frames never
interleave.  On ``StopFrame`` (or pipe EOF) the worker drains its
in-flight slabs, closes the server — FIFO drain, nothing dropped —
and sends a final ``StoppedFrame`` carrying its lifetime statistics.
"""

from __future__ import annotations

import asyncio
import os

from repro.fleet.transport import (ErrorFrame, ReadyFrame, ReloadedFrame,
                                   ReloadFrame, ResultFrame, SlabFrame,
                                   StatsFrame, StatsReply, StopFrame,
                                   StoppedFrame)


def worker_main(spec, conn) -> None:
    """Process entry point: serve until stopped, then exit cleanly."""
    try:
        asyncio.run(_serve(spec, conn))
    except (EOFError, OSError, BrokenPipeError):
        pass  # front went away; nothing left to report to
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


async def _serve(spec, conn) -> None:
    from repro.train.registry import ModelRegistry

    service, versions = spec.build_service()
    server = spec.build_server(service)
    versions = dict(versions)   # routine -> version serving now
    registry = ModelRegistry(spec.registry_root)
    await server.start()
    conn.send(ReadyFrame(worker=spec.name, pid=os.getpid(),
                         versions=tuple(sorted(versions.items()))))
    loop = asyncio.get_running_loop()
    tasks: set = set()

    def _track(coro) -> None:
        task = asyncio.ensure_future(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    watcher_task = None
    if spec.watch_interval_s:
        watcher_task = asyncio.ensure_future(
            _watch_registry(spec, registry, server, versions, conn))
    try:
        while True:
            try:
                frame = await loop.run_in_executor(None, conn.recv)
            except (EOFError, OSError):
                break
            if isinstance(frame, StopFrame):
                break
            if isinstance(frame, SlabFrame):
                _track(_serve_slab(server, conn, frame))
            elif isinstance(frame, ReloadFrame):
                _track(_apply_reload(spec, registry, server, versions,
                                     conn, frame))
            elif isinstance(frame, StatsFrame):
                conn.send(StatsReply(frame.msg_id,
                                     _stats(spec, server, versions)))
            else:
                conn.send(ErrorFrame(None,
                                     f"unknown frame {type(frame).__name__}",
                                     kind="TypeError"))
    finally:
        if watcher_task is not None:
            watcher_task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await server.close()
    try:
        conn.send(StoppedFrame(stats=_stats(spec, server, versions)))
    except (OSError, BrokenPipeError):
        pass


async def _serve_slab(server, conn, frame) -> None:
    try:
        records = await server.submit_many(list(frame.specs),
                                           client=frame.client)
        conn.send(ResultFrame(frame.msg_id, tuple(records)))
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        conn.send(ErrorFrame(frame.msg_id, str(exc),
                             kind=type(exc).__name__))


async def _apply_reload(spec, registry, server, versions, conn,
                        frame) -> None:
    try:
        bundle = registry.load(frame.routine, spec.machine,
                               version=frame.version)
        summary = await server.reload(bundle, routine=frame.routine)
        version = registry.resolve(frame.routine, spec.machine,
                                   frame.version).version
        versions[frame.routine] = version
        generation = max(s.get("generation", 0) for s in summary.values())
        conn.send(ReloadedFrame(frame.msg_id, frame.routine, version,
                                generation=generation))
    except BaseException as exc:  # noqa: BLE001 - old bundle keeps serving
        conn.send(ErrorFrame(frame.msg_id, str(exc),
                             kind=type(exc).__name__))


async def _watch_registry(spec, registry, server, versions, conn) -> None:
    """Poll ``latest`` refs; hot-reload and notify on every change."""
    watcher = registry.watch(
        [(routine, spec.machine) for routine in versions],
        versions={(routine, spec.machine): version
                  for routine, version in versions.items()})
    loop = asyncio.get_running_loop()
    while True:
        await asyncio.sleep(spec.watch_interval_s)
        try:
            changed = await loop.run_in_executor(None, watcher.poll)
        except OSError:
            continue  # registry mid-write or briefly unavailable
        for record in changed:
            try:
                bundle = await loop.run_in_executor(
                    None, registry.load, record.routine, spec.machine,
                    record.version)
                summary = await server.reload(bundle, routine=record.routine)
            except asyncio.CancelledError:
                raise
            except Exception:
                continue  # keep serving the old bundle; retry next poll
            versions[record.routine] = record.version
            generation = max(s.get("generation", 0)
                             for s in summary.values())
            conn.send(ReloadedFrame(None, record.routine, record.version,
                                    generation=generation))


def _stats(spec, server, versions) -> dict:
    """The worker's stats frame; its server's engine counts the reloads."""
    stats = server.stats()
    return {"worker": spec.name, "pid": os.getpid(),
            "versions": dict(versions),
            "reloads": stats["reloads"],
            "server": stats}
