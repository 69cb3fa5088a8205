"""Wire format between the fleet front and its worker processes.

Everything crossing a worker's socket is one of the small frame
dataclasses below, written as a 4-byte big-endian length followed by
the frame's pickle (:func:`encode`) and read back whole by
:func:`read_frame`.  Both ends run the stream on their event loop: the
front and the worker share these two functions and no thread touches
the socket.  Requests are **slab-framed**: the front chops each routed
burst with :func:`chunk_slots` into ``max_batch``-sized
:class:`SlabFrame` messages — the same chunk size the worker's own
:meth:`~repro.serve.server.GemmServer.submit_many` turns into one
:class:`~repro.serve.request.SlabRequest` queue entry — so a
256-request burst crosses the socket as ~16 messages with one reply
future each, not 256, and lands in the worker as ready-made
micro-batches.

Correlation is by ``msg_id``: the front allocates ids, workers echo
them on :class:`ResultFrame`, :class:`ErrorFrame` and
:class:`StatsReply`.  Frames a worker originates on its own (a
registry-watch :class:`ReloadedFrame`, the final :class:`StoppedFrame`)
carry no id.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Tuple

from repro.serve.front import chunk_slots  # noqa: F401 - frame sizing

_LENGTH = struct.Struct("!I")


def encode(frame) -> bytes:
    """``frame`` as it goes on the wire: its pickle's length, then the
    pickle.  Raises whatever pickling raises (an unpicklable spec)."""
    body = pickle.dumps(frame)
    return _LENGTH.pack(len(body)) + body


async def read_frame(reader):
    """Read the next whole frame from an ``asyncio.StreamReader``.

    Raises ``EOFError`` (``asyncio.IncompleteReadError``) once the peer
    has closed, also when it closed partway through a frame.
    """
    (size,) = _LENGTH.unpack(await reader.readexactly(_LENGTH.size))
    return pickle.loads(await reader.readexactly(size))


# -- front -> worker -----------------------------------------------------


@dataclass(frozen=True)
class SlabFrame:
    """One micro-batch worth of request specs."""

    msg_id: int
    specs: tuple
    client: str = "default"


@dataclass(frozen=True)
class StatsFrame:
    """Request the worker's full serving statistics."""

    msg_id: int


@dataclass(frozen=True)
class StopFrame:
    """Drain in-flight slabs, close the server, exit the process."""


# -- worker -> front -----------------------------------------------------


@dataclass(frozen=True)
class ReadyFrame:
    """First frame a worker sends: it is serving.

    ``versions`` records the registry versions actually loaded, as a
    sorted ``((routine, version), ...)`` tuple.
    """

    worker: str
    pid: int
    versions: Tuple = ()


@dataclass(frozen=True)
class ResultFrame:
    """Slot-aligned records answering one :class:`SlabFrame`."""

    msg_id: int
    records: tuple


@dataclass(frozen=True)
class ErrorFrame:
    """A slab failed inside the worker (``msg_id`` set), or the worker
    got a frame of a type it does not serve (``msg_id`` ``None``)."""

    msg_id: int
    message: str
    kind: str = "RuntimeError"


@dataclass(frozen=True)
class ReloadedFrame:
    """The worker's registry watcher swapped in a new bundle."""

    routine: str
    version: int


@dataclass(frozen=True)
class StatsReply:
    """Answer to a :class:`StatsFrame`."""

    msg_id: int
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StoppedFrame:
    """Last frame before exit: the worker's final statistics."""

    stats: dict = field(default_factory=dict)

