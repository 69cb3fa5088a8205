"""Fleet worker process: a full ``GemmServer`` behind a socket stream.

``worker_main`` is the spawn target.  Inside its own interpreter the
worker rebuilds everything from its :class:`~repro.fleet.spec.WorkerSpec`
(service from the registry, micro-batching server over it), then reads
frames off its end of the front's socket pair: slab frames become
``submit_many`` bursts (each one arriving pre-chunked to ``max_batch``,
so it lands as exactly one :class:`~repro.serve.request.SlabRequest`
queue entry), and stats frames snapshot the server.  With
``watch_interval_s`` set, a background task polls the registry's
``latest`` refs and hot-reloads changed cells through the server's FIFO
:class:`~repro.serve.request.ReloadCommand` path (zero-downtime by queue
ordering), notifying the front with a ``ReloadedFrame`` — publishing to
the registry *is* the rollout trigger.

The socket runs on the worker's event loop: frames are read with
:func:`~repro.fleet.transport.read_frame` and every reply is one
synchronous write of a whole encoded frame, so frames never interleave
and no thread touches the socket.  On ``StopFrame`` (or EOF) the worker
drains its in-flight slabs, closes the server — FIFO drain, nothing
dropped — and writes a final ``StoppedFrame`` carrying its lifetime
statistics, flushed before the process exits.
"""

from __future__ import annotations

import asyncio
import os

from repro.fleet.transport import (ErrorFrame, ReadyFrame, ReloadedFrame,
                                   ResultFrame, SlabFrame, StatsFrame,
                                   StatsReply, StopFrame, StoppedFrame,
                                   encode, read_frame)


def worker_main(spec, sock) -> None:
    """Process entry point: serve until stopped, then exit cleanly.

    ``sock`` is the worker's end of the front's ``socket.socketpair()``.
    """
    try:
        asyncio.run(_serve(spec, sock))
    except (EOFError, OSError):
        pass  # front went away; nothing left to report to
    finally:
        sock.close()


async def _serve(spec, sock) -> None:
    service, versions = spec.build_service()
    server = spec.build_server(service)
    versions = dict(versions)   # routine -> version serving now
    reader, writer = await asyncio.open_connection(sock=sock)

    def send(frame) -> None:
        writer.write(encode(frame))

    await server.start()
    send(ReadyFrame(worker=spec.name, pid=os.getpid(),
                    versions=tuple(sorted(versions.items()))))
    tasks: set = set()

    def _track(coro) -> None:
        task = asyncio.ensure_future(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    watcher_task = None
    if spec.watch_interval_s:
        watcher_task = asyncio.ensure_future(
            _watch_registry(spec, server, versions, send))
    try:
        while True:
            try:
                frame = await read_frame(reader)
            except (EOFError, OSError):
                break
            if isinstance(frame, StopFrame):
                break
            if isinstance(frame, SlabFrame):
                _track(_serve_slab(server, send, frame))
            elif isinstance(frame, StatsFrame):
                send(StatsReply(frame.msg_id,
                                _stats(spec, server, versions)))
            else:
                send(ErrorFrame(None,
                                f"unknown frame {type(frame).__name__}",
                                kind="TypeError"))
    finally:
        if watcher_task is not None:
            watcher_task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await server.close()
    send(StoppedFrame(stats=_stats(spec, server, versions)))
    writer.close()  # flushes what the transport still buffers
    await writer.wait_closed()


async def _serve_slab(server, send, frame) -> None:
    try:
        records = await server.submit_many(list(frame.specs),
                                           client=frame.client)
        send(ResultFrame(frame.msg_id, tuple(records)))
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        send(ErrorFrame(frame.msg_id, str(exc), kind=type(exc).__name__))


async def _watch_registry(spec, server, versions, send) -> None:
    """Poll ``latest`` refs; hot-reload and notify on every change."""
    from repro.train.registry import ModelRegistry

    registry = ModelRegistry(spec.registry_root)
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
                await server.reload(bundle, routine=record.routine)
            except asyncio.CancelledError:
                raise
            except Exception:
                continue  # keep serving the old bundle; retry next poll
            versions[record.routine] = record.version
            send(ReloadedFrame(record.routine, record.version))


def _stats(spec, server, versions) -> dict:
    """The worker's stats frame; its server's engine counts the reloads."""
    stats = server.stats()
    return {"worker": spec.name, "pid": os.getpid(),
            "versions": dict(versions),
            "reloads": stats["reloads"],
            "server": stats}
