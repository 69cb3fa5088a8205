"""The micro-batching scheduler: window-or-size batch formation.

One :class:`MicroBatcher` task runs per shard.  Its queue carries
:class:`~repro.serve.request.SlabRequest` entries (a ``submit`` is a
one-slot slab).  It pulls the first slab off the shard queue, then
keeps collecting until either ``max_batch`` request slots are in hand or
``max_wait_ms`` has elapsed since the first one arrived — the
dynamic-batching idiom of production inference servers.  Slabs already
queued join the forming batch without yielding to the event loop; only
an empty queue is awaited, and never past the window.  The collected
batch is fulfilled with **one**
:meth:`~repro.engine.service.GemmService.run_batch` call, whose thread
choices are bitwise identical to per-request
:meth:`~repro.engine.service.GemmService.run` (the engine guarantees
batch == scalar prediction), and each slab's future is resolved with
its slot-aligned :class:`~repro.engine.service.GemmCallRecord` list.

The call runs on the event loop, with no thread-pool hop, unless the
shard's execution backend declares that it blocks (``blocking``, see
:class:`~repro.engine.backend.ExecutionBackend`): a blocking pass runs
in the loop's default executor, so its wait leaves the loop free.

Shutdown is a sentinel enqueued *behind* every already-admitted request
(the queue is FIFO and admission stops first), so closing the server
drains in-flight work instead of dropping it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.routines import routine_of
from repro.engine.cache import shape_key as _shape_key
from repro.serve.cost import cost_of
from repro.serve.request import ReloadCommand

#: Queue sentinel marking the end of the request stream for a shard.
SHUTDOWN = object()


@dataclass(frozen=True)
class BatchPolicy:
    """When to close a forming batch.

    Parameters
    ----------
    max_batch:
        Dispatch as soon as this many requests are collected.
    max_wait_ms:
        Dispatch at most this many milliseconds after the *first*
        request of the batch arrived, however few followed it — this is
        the straggler bound on added latency.
    max_batch_cost:
        Optional predicted-FLOPs budget (see
        :func:`~repro.serve.cost.cost_of`): the batch also closes
        when admitting the next entry would push its summed predicted
        cost past this.  Heavy requests form small batches, light ones
        fill large ones; a single over-budget request still gets a
        batch of its own.  ``None`` (the default) keeps batch formation
        count-only.
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_batch_cost: float = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_batch_cost is not None and self.max_batch_cost <= 0:
            raise ValueError("max_batch_cost must be > 0 (or None)")


class MicroBatcher:
    """Batch-forming consumer loop for one shard.

    Parameters
    ----------
    service:
        The shard's :class:`~repro.engine.service.GemmService`.
    policy:
        The :class:`BatchPolicy` window/size thresholds.
    telemetry:
        Shared :class:`~repro.serve.telemetry.ServeTelemetry`.
    release:
        ``release(n)``, invoked once per slab after its future resolves,
        whatever the outcome (the server returns the slab's ``n``
        admission slots here).
    shard:
        Shard name, for telemetry attribution.
    collector:
        Optional :class:`~repro.obs.tracing.SpanCollector`; when set,
        each executed request's :class:`~repro.obs.tracing.RequestTrace`
        is stamped (batch formation, execution window, the tier that
        answered its prediction) and finished into the collector.
        ``None`` keeps the hot path span-free.

    Entries are priced only when the policy carries a ``max_batch_cost``
    budget, so the count-only hot path stays cost-free.
    """

    def __init__(self, service, policy: BatchPolicy, telemetry, release,
                 shard: str = "default", collector=None):
        self.service = service
        self.policy = policy
        self.telemetry = telemetry
        self.release = release
        self.shard = shard
        self.collector = collector

    async def run(self, queue: asyncio.Queue) -> None:
        """Consume ``queue`` until the shutdown sentinel arrives.

        :class:`~repro.serve.request.ReloadCommand` items hot-swap the
        shard's bundle *between* batches: a command closes the batch
        being collected, the batch executes on the old bundle, and the
        swap applies before the next batch forms.
        """
        loop = asyncio.get_running_loop()
        closing = False
        carry = None
        while not closing:
            if carry is not None:
                first, carry = carry, None
            else:
                first = await queue.get()
            if first is SHUTDOWN:
                break
            if isinstance(first, ReloadCommand):
                self._swap_bundle(first)
                continue
            batch = [first]
            # Traced runs stamp when batch formation began (the pull of
            # the first request); untraced runs skip the clock read.
            t_form = loop.time() if self.collector is not None else None
            closing, pending_reload, carry = await self._collect(
                queue, batch, loop)
            await self._execute(batch, loop, t_form=t_form)
            first = batch = None  # served slabs' futures hold their records
            if pending_reload is not None:
                self._swap_bundle(pending_reload)

    async def _collect(self, queue, batch, loop):
        """Fill ``batch`` until size/cost/window/control closes it.

        Size counts request *slots*, not queue entries — a slab
        occupies ``count`` of them.  Returns
        ``(closing, pending_reload, carry)``: ``closing`` is True on
        shutdown; a :class:`ReloadCommand` stops collection so the
        in-flight batch stays on the bundle it was admitted under; an
        entry that would push the batch past ``max_batch`` — or, when
        the policy carries a ``max_batch_cost`` budget, past the
        predicted-cost budget — comes back as ``carry`` and seeds the
        next batch (the queue is FIFO, so it cannot be put back without
        reordering).  The first entry is always accepted, so a single
        over-budget request forms a batch of its own.  Each close
        records its reason (``size``/``cost``/``window``/``control``)
        into telemetry.  An entry already on the queue is taken with
        ``get_nowait``: ``wait_for`` would build a timer for it and,
        before Python 3.12, a Task that costs two loop turns.
        """
        size = len(batch[0].specs)
        budget = self.policy.max_batch_cost
        cost = sum(cost_of(batch[0].specs)) if budget is not None else 0.0
        deadline = loop.time() + self.policy.max_wait_ms / 1e3
        while size < self.policy.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.telemetry.record_close(self.shard, "window")
                return False, None, None
            if queue.empty():
                try:
                    item = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    self.telemetry.record_close(self.shard, "window")
                    return False, None, None
            else:
                item = queue.get_nowait()
            if item is SHUTDOWN:
                self.telemetry.record_close(self.shard, "control")
                return True, None, None
            if isinstance(item, ReloadCommand):
                self.telemetry.record_close(self.shard, "control")
                return False, item, None
            count = len(item.specs)
            if size + count > self.policy.max_batch:
                self.telemetry.record_close(self.shard, "size")
                return False, None, item
            if budget is not None:
                item_cost = sum(cost_of(item.specs))
                if cost + item_cost > budget:
                    self.telemetry.record_close(self.shard, "cost")
                    return False, None, item
                cost += item_cost
            batch.append(item)
            size += count
        self.telemetry.record_close(self.shard, "size")
        return False, None, None

    def _swap_bundle(self, command: ReloadCommand) -> None:
        """Swap the shard's bundle; resolve the command's future.

        The engine counts the reload (its ``bundle_generation``).
        """
        try:
            info = self.service.reload(command.bundle, **command.kwargs)
        except Exception as exc:
            if not command.future.done():
                command.future.set_exception(exc)
            return
        if not command.future.done():
            command.future.set_result(info)

    def _tiers_of(self, specs, records) -> list:
        """Which prediction tier answered each record's thread choice.

        ``memoised`` marks the cache (or an earlier duplicate in the
        same batch).  The rest are probed against their routine's
        tier-0 table with **one** vectorised
        :meth:`~repro.compile.table.DecisionTable.lookup_batch` call per
        predictor (the probe is a pure lattice lookup —
        side-effect-free, no counters, no model pass; per-request
        scalar probes would re-pay the numpy setup the serving path
        amortises over the batch).  Off-lattice shapes attribute to the
        compiled "plan" when one is installed, else the "object"
        pipeline path.
        """
        tiers = [None] * len(specs)
        predictor_for = getattr(self.service, "predictor_for", None)
        groups = {}  # id(predictor) -> (predictor, [row indices])
        for i, (spec, record) in enumerate(zip(specs, records)):
            if record.memoised:
                tiers[i] = "cache"
            elif predictor_for is None:  # duck-typed service
                tiers[i] = "object"
            else:
                predictor = predictor_for(spec)
                groups.setdefault(id(predictor), (predictor, []))[1].append(i)
        for predictor, rows in groups.values():
            fallthrough = "plan" if getattr(predictor, "plan", None) \
                is not None else "object"
            table = getattr(predictor, "table", None)
            if table is None:
                for i in rows:
                    tiers[i] = fallthrough
                continue
            _, resolved = table.lookup_batch(
                [_shape_key(specs[i]) for i in rows])
            for i, on_lattice in zip(rows, resolved):
                tiers[i] = "table" if on_lattice else fallthrough
        return tiers

    def _stamp_trace(self, trace, record, tier, batch_size, t_form,
                     t_start, t_done) -> None:
        """Fill one request's trace with the batch window and finish it."""
        trace.t_batch_form = t_form if t_form is not None else t_start
        trace.t_exec_start = t_start
        trace.t_exec_done = t_done
        trace.batch_size = batch_size
        trace.tier = tier
        trace.n_threads = record.n_threads
        trace.runtime_s = record.runtime
        self.collector.finish(trace)

    async def _execute(self, batch, loop, t_form: float = None) -> None:
        """One vectorised service pass; resolve every slab's future.

        The pass runs on the event loop when the shard's backend
        computes its runtimes, which is cheaper than a hand-off to a
        thread.  When the backend declares that it blocks (the
        service's ``blocking``, fixed when the service is built), the
        pass runs in the loop's default executor instead, so a long
        wait (a real ``HostMachine`` GEMM, say) never holds up other
        shards' windows or new admissions.  Either way this shard's
        batcher waits for the pass, so per-shard execution remains
        strictly sequential and choices stay deterministic.  An inline
        pass does not yield to the loop, and neither does taking an
        entry already queued, so a shard runs the batches its queue
        holds (at most ``max_queue`` entries) back to back before other
        tasks on the loop resume; their replies then go out together.

        Every slab contributes all its slots to the flattened spec list
        and gets its *single* future resolved with the slot-aligned
        slice of records; telemetry and tracing stay per request.
        """
        t_start = loop.time()
        specs = [spec for entry in batch for spec in entry.specs]
        # Per-batch predicted cost is recorded only under a budget, so
        # count-only serving pays no pricing work on the hot path.
        batch_cost = (sum(cost_of(specs))
                      if self.policy.max_batch_cost is not None else None)
        self.telemetry.record_batch(len(specs), cost=batch_cost)
        try:
            if self.service.blocking:
                records = list(await loop.run_in_executor(
                    None, self.service.run_batch, specs))
            else:
                records = list(self.service.run_batch(specs))
        except Exception as exc:
            for entry in batch:
                for spec in entry.specs:
                    self.telemetry.record_failure(
                        entry.client, routine=routine_of(spec))
                if self.collector is not None and entry.traces is not None:
                    for trace in entry.traces:
                        trace.status = "error"
                        self.collector.finish(trace)
                if not entry.future.done():
                    entry.future.set_exception(exc)
                self.release(entry.count)
            return
        t_done = loop.time()
        tiers = self._tiers_of(specs, records) \
            if self.collector is not None else None
        n_total = len(specs)
        offset = 0
        for entry in batch:
            n = len(entry.specs)
            slab_records = records[offset:offset + n]
            for spec in entry.specs:
                self.telemetry.record_done(
                    entry.client, latency=t_done - entry.t_submit,
                    wait=t_start - entry.t_submit, routine=routine_of(spec))
            if not entry.future.done():
                entry.future.set_result(slab_records)
            if self.collector is not None and entry.traces is not None:
                for j, (trace, record) in enumerate(
                        zip(entry.traces, slab_records)):
                    self._stamp_trace(trace, record, tiers[offset + j],
                                      n_total, t_form, t_start, t_done)
            self.release(n)
            offset += n
