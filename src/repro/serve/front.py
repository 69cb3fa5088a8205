"""The serving front: one request path shared by every server.

A front accepts bursts of requests and hands them to named shards as
*slabs* — micro-batches of requests sharing a single future.
:class:`~repro.serve.server.GemmServer` (a shard is an asyncio queue
drained by a :class:`~repro.serve.scheduler.MicroBatcher`) and
:class:`~repro.fleet.server.FleetServer` (a shard is a worker process
behind a socket) are both fronts.  They differ only in how one slab
reaches a shard; :meth:`Front._serve` does every other step, once:

1. check that the front is open;
2. route the burst with one ``route_batch`` call and check that every
   target shard exists;
3. price and chop each shard's slots into slabs (:func:`chunk_slots`);
4. admit the burst all-or-nothing against ``max_pending``, counting
   rejections per client and routine;
5. hand each slab to its shard with one future, and release every
   admitted slot exactly once: the shard releases a slab when it
   finishes it, the front releases at once a slab that never reached
   its shard (a cancelled caller, say);
6. gather the results back into input order, raising the first error
   once every slab has settled.

``submit`` is the one-slot case of the same path: a single slab, with
no grouping, chopping or gathering to pay for.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Optional

from repro.core.routines import routine_of
from repro.serve.cost import cost_of, cost_of_one
from repro.serve.request import ServerClosed, ServerOverloaded


def chunk_slots(slots, max_batch: int, costs=None,
                max_cost: Optional[float] = None):
    """Yield runs of ``slots`` bounded by count and, optionally, cost.

    Every run holds at most ``max_batch`` slots.  With ``max_cost`` set,
    a run also holds at most that much summed cost, ``costs[i]`` pricing
    ``slots[i]``; a single slot over budget still gets a run of its own,
    because a request can shrink a batch but never be refused by one.
    Without ``max_cost`` the runs are plain ``max_batch`` slices and
    ``costs`` is not read.
    """
    if int(max_batch) < 1:
        raise ValueError("max_batch must be >= 1")
    if max_cost is None:
        for start in range(0, len(slots), max_batch):
            yield slots[start:start + max_batch]
        return
    if float(max_cost) <= 0:
        raise ValueError("max_cost must be > 0 (or None for count-only)")
    chunk: list = []
    chunk_cost = 0.0
    for slot, cost in zip(slots, costs):
        if chunk and (len(chunk) >= max_batch
                      or chunk_cost + cost > max_cost):
            yield chunk
            chunk, chunk_cost = [], 0.0
        chunk.append(slot)
        chunk_cost += cost
    if chunk:
        yield chunk


class Front:
    """Route, admit, slab and gather over named shards.

    Subclasses call ``Front.__init__`` and implement three hooks:

    * :meth:`_shard` — the handle of a routed shard name, raising if the
      shard is unknown or cannot take work;
    * :meth:`_limits` — ``(max_batch, max_batch_cost)`` for slabs bound
      for that shard;
    * :meth:`_deliver` — hand one slab to its shard, returning ``None``
      once it has, or an awaitable that completes when it has (queue
      backpressure).  Once the slab has arrived, the shard owns its
      slots and calls :meth:`_release` when it finishes the slab,
      whatever the outcome.  If the awaitable raises instead (a
      cancelled caller), the slab never arrived and the front releases
      it, with the burst's slabs not yet delivered.

    Parameters
    ----------
    router:
        Maps a burst to shard names (``route_batch(specs, client)``).
    max_pending:
        Hard cap on admitted-but-unfinished requests, whoever holds
        them.
    telemetry:
        Receives ``record_rejection(client, reason, routine=, n=)``.
    price_bursts:
        Price every burst (:func:`~repro.serve.cost.cost_of`).  Must be
        true whenever a shard has a cost budget (:meth:`_limits`); the
        fleet also prices to track each worker's outstanding cost.
    """

    def __init__(self, router, max_pending: int, telemetry,
                 price_bursts: bool = False):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.router = router
        self.max_pending = int(max_pending)
        self.telemetry = telemetry
        self._price_bursts = price_bursts
        self._pending = 0
        self._started = False
        self._closing = False

    # -- hooks -------------------------------------------------------------
    def _shard(self, name: str):
        raise NotImplementedError

    def _limits(self, shard) -> tuple:
        raise NotImplementedError

    def _deliver(self, shard, name: str, specs: list, routines: list,
                 cost: float, client: str, future, trace_id: Optional[str]):
        raise NotImplementedError

    # -- admission ---------------------------------------------------------
    @property
    def pending(self) -> int:
        """Admitted requests not yet resolved."""
        return self._pending

    def _check_open(self) -> None:
        if not self._started:
            raise ServerClosed(f"{type(self).__name__} not started "
                               f"(use 'async with' or start())")
        if self._closing:
            raise ServerClosed(f"{type(self).__name__} is shutting down")

    def _admit(self, client: str, routines: list) -> None:
        """All-or-nothing admission of ``len(routines)`` slots.

        A burst that does not fit under ``max_pending`` is rejected
        whole: admitting part of it would hand the caller a result list
        with holes.  Every refused slot is counted per client and
        routine.
        """
        n = len(routines)
        if self._pending + n <= self.max_pending:
            self._pending += n
            return
        for routine, count in Counter(routines).items():
            self.telemetry.record_rejection(client, "overload",
                                            routine=routine, n=count)
        raise ServerOverloaded(f"{self._pending} requests pending + {n} "
                               f"more exceeds limit {self.max_pending}",
                               client=client)

    def _release(self, n: int) -> None:
        """Return ``n`` admission slots."""
        self._pending -= n

    # -- the request path --------------------------------------------------
    async def _arrive(self, wait, unsent: int) -> None:
        """Await a slab's delivery (backpressure).  If it never arrives —
        the caller was cancelled — release the ``unsent`` slots, its own
        and those of the burst's slabs not yet delivered."""
        try:
            await wait
        except BaseException:
            self._release(unsent)
            raise

    async def _serve(self, specs: list, client: str,
                     target: Optional[str] = None,
                     trace_id: Optional[str] = None) -> list:
        """Serve ``specs``; records come back in input order.

        ``target`` pins every spec to one shard instead of routing;
        ``trace_id`` names a one-slot request's trace.
        """
        self._check_open()
        n = len(specs)
        if not n:
            return []
        loop = asyncio.get_running_loop()
        if n == 1:  # one slot, one slab: nothing to group, chop or gather
            name = (target if target is not None
                    else self.router.route_batch(specs, client)[0])
            shard = self._shard(name)
            routines = [routine_of(specs[0])]
            self._admit(client, routines)
            future = loop.create_future()
            wait = self._deliver(
                shard, name, specs, routines,
                cost_of_one(specs[0]) if self._price_bursts else 0.0,
                client, future, trace_id)
            if wait is not None:
                await self._arrive(wait, 1)
            return await future
        names = (self.router.route_batch(specs, client) if target is None
                 else [target] * n)
        groups: dict = {}  # shard name -> (shard, its slots in order)
        for slot, name in enumerate(names):
            group = groups.get(name)
            if group is None:
                group = groups[name] = (self._shard(name), [])
            group[1].append(slot)
        routines = list(map(routine_of, specs))
        costs = cost_of(specs) if self._price_bursts else None
        plan = []  # (shard, name, slab slots)
        for name, (shard, slots) in groups.items():
            max_batch, max_cost = self._limits(shard)
            slot_costs = ([costs[i] for i in slots]
                          if max_cost is not None else None)
            plan.extend((shard, name, chunk) for chunk in chunk_slots(
                slots, max_batch, slot_costs, max_cost))
        self._admit(client, routines)
        slabs = []  # (future, slab slots)
        sent = 0
        for shard, name, chunk in plan:
            future = loop.create_future()
            wait = self._deliver(
                shard, name, [specs[i] for i in chunk],
                [routines[i] for i in chunk],
                sum(costs[i] for i in chunk) if costs is not None else 0.0,
                client, future, None)
            if wait is not None:
                await self._arrive(wait, n - sent)
            sent += len(chunk)
            slabs.append((future, chunk))
        if len(slabs) == 1:  # its slots are every slot, in input order
            return await slabs[0][0]
        outcomes = await asyncio.gather(*(future for future, _ in slabs),
                                        return_exceptions=True)
        out = [None] * n
        error = None
        for (_, chunk), outcome in zip(slabs, outcomes):
            if isinstance(outcome, BaseException):
                error = error if error is not None else outcome
                continue
            for slot, record in zip(chunk, outcome):
                out[slot] = record
        if error is not None:
            raise error
        return out
