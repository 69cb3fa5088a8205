"""Queue entries and admission errors for the serving layer.

A :class:`SlabRequest` is what travels from the server front through a
shard queue to the micro-batcher: the specs themselves plus the client
identity (for per-client telemetry), the admission timestamp (for
latency telemetry) and the one future the caller is awaiting.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field


class ServerOverloaded(RuntimeError):
    """The server refused admission: the burst would take the admitted
    but unfinished requests past ``max_pending``.

    Attributes
    ----------
    client:
        The submitting client.
    reason:
        ``"overload"``, the label the refused requests are counted
        under in telemetry.
    """

    reason = "overload"

    def __init__(self, message: str, client: str = "default"):
        super().__init__(message)
        self.client = client


class ServerClosed(RuntimeError):
    """Submission after :meth:`GemmServer.close` began (or never started)."""


@dataclass
class SlabRequest:
    """One admitted run of requests sharing a single future.

    The server front chops each routed burst into slabs of at most
    ``max_batch`` slots (:meth:`GemmServer.submit` sends a one-slot
    slab): ``specs`` are the slots, ``future`` resolves exactly once
    with the slot-aligned list of
    :class:`~repro.engine.service.GemmCallRecord` results (or the
    batch's exception), and the front scatters them back to the
    caller's original order.  One future and one queue put per
    micro-batch instead of one per request.

    ``t_submit`` is event-loop time at admission; the scheduler stamps
    queue-wait and total latency against it when the batch resolves.
    ``traces`` is the slot-aligned list of per-request
    :class:`~repro.obs.tracing.RequestTrace` scratchpads when tracing
    is on, ``None`` otherwise, so the disabled path allocates no trace
    state.
    """

    specs: list
    client: str
    future: asyncio.Future
    t_submit: float
    shard: str = field(default="default")
    traces: list = field(default=None)

    @property
    def count(self) -> int:
        """How many request slots this entry occupies in a batch."""
        return len(self.specs)


@dataclass
class ReloadCommand:
    """Control-plane message: hot-swap a shard's model bundle.

    Travels the same FIFO shard queue as requests, so ordering gives
    zero-downtime semantics for free: every request admitted before the
    reload resolves on the old bundle, every request behind it on the
    new one, and the batch in flight when the command surfaces is never
    split across bundles.  ``future`` resolves with the shard's
    :meth:`~repro.engine.service.GemmService.reload` summary (or its
    exception, leaving the old bundle serving).
    """

    bundle: object
    future: asyncio.Future
    kwargs: dict = field(default_factory=dict)
