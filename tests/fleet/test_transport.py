"""The fleet's wire format over a real ``socket.socketpair()``.

The front and every worker read and write frames with the same two
functions, :func:`~repro.fleet.transport.encode` and
:func:`~repro.fleet.transport.read_frame`, on their event loops.
"""

import asyncio
import random
import socket

import pytest

from repro.fleet.transport import (ResultFrame, SlabFrame, StatsReply,
                                   StoppedFrame, encode, read_frame)
from repro.gemm.interface import GemmSpec

#: asyncio's documented default ``StreamReader`` limit.
STREAM_LIMIT = 2 ** 16


async def connected():
    """Both ends of a socket pair as ``(reader, writer)`` streams."""
    left, right = socket.socketpair()
    return (await asyncio.open_connection(sock=left),
            await asyncio.open_connection(sock=right))


async def close(*writers):
    for writer in writers:
        writer.close()
        await writer.wait_closed()


def test_frames_arrive_whole_and_in_order():
    frames = [SlabFrame(1, (GemmSpec(64, 512, 64), GemmSpec(8, 8, 8))),
              ResultFrame(1, ("a", "b")), StoppedFrame(stats={"n": 3})]

    async def scenario():
        (_, out), (reader, back) = await connected()
        data = b"".join(encode(frame) for frame in frames)
        out.write(data[:5])  # a header split across two writes
        out.write(data[5:])
        got = [await read_frame(reader) for _ in frames]
        await close(out, back)
        return got

    assert asyncio.run(scenario()) == frames


def test_large_frame_crosses_while_the_loop_keeps_running():
    """A frame bigger than the socket buffers and the reader's limit
    arrives intact, in pieces, without stalling the event loop."""
    frame = StatsReply(7, {"blob": random.Random(0).randbytes(8 << 20)})

    async def scenario():
        (_, out), (reader, back) = await connected()
        sock = out.get_extra_info("socket")
        buffers = (sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                   + sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))
        ticks = 0

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        task = asyncio.ensure_future(ticker())
        data = encode(frame)
        out.write(data)
        start = ticks
        got = await read_frame(reader)
        during = ticks - start
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        await close(out, back)
        return got, len(data), buffers, during

    got, size, buffers, during = asyncio.run(scenario())
    assert size > buffers and size > STREAM_LIMIT
    assert got == frame
    assert during > 1  # the ticker ran while the frame was in flight


@pytest.mark.parametrize("cut", ["header", "body"])
def test_peer_closing_mid_frame_raises_eof(cut):
    async def scenario():
        (_, out), (reader, back) = await connected()
        data = encode(StatsReply(1, {"n": list(range(100))}))
        out.write(data[:2] if cut == "header" else data[:len(data) // 2])
        await close(out)
        with pytest.raises(EOFError):
            await read_frame(reader)
        await close(back)

    asyncio.run(scenario())
