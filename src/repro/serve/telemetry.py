"""Serving telemetry: admission, batch sizes, latency percentiles.

One :class:`ServeTelemetry` instance per server counts what only the
server sees: every admission decision, every executed batch and every
resolved request.  What the engine sees is counted by the engine — the
decision-table outcomes and reloads that
:meth:`~repro.serve.server.GemmServer.stats` reports are summed from
its shards' :class:`~repro.engine.service.GemmService` counters, not
copied here.

Latency aggregation goes through
:func:`repro.bench.stats.latency_summary`, the same helper the benchmark
reports use, so a p99 printed by ``server.stats()`` and a p99 printed by
``bench/report.py`` are computed identically.  Counters and latency
samples are additionally segmented by *routine* (the spec's ``routine``
tag), so a mixed GEMM/GEMV/TRSM/SYRK deployment can answer "which
routine's tail latency regressed?" without replaying the trace.

Only distributions that report percentiles keep samples: latency, queue
wait (globally and per routine) and, under a cost budget, predicted
batch cost.  They are held in bounded
:class:`~repro.obs.metrics.Reservoir` stores, so a long-lived server's
memory does not grow with traffic while counts, sums and extrema stay
exact.  Batch sizes are an exact histogram and queue depth a running
maximum.  Each instance also registers a weakly-referenced collector
with a :class:`~repro.obs.metrics.MetricsRegistry`, so exporters can
pull the live counters without the hot path ever touching the registry.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.bench.stats import latency_summary
from repro.obs.metrics import (DEFAULT_CAPACITY, MetricsRegistry, Reservoir,
                               default_registry, next_instance_id)


class ServeTelemetry:
    """Counters and samples for one server's lifetime.

    Parameters
    ----------
    capacity:
        Bound on every retained sample store (latencies and waits,
        globally and per routine, and batch costs).  Counts and
        aggregate statistics stay exact past it; only the percentile
        sample is subsampled.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` this instance's
        pull collector registers with (default: the process-wide one).
        The registry holds the collector weakly, so a discarded server
        disappears from snapshots automatically.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 registry: Optional[MetricsRegistry] = None):
        self._capacity = int(capacity)
        self.submitted: int = 0
        self.served: int = 0
        self.failed: int = 0
        self.max_queue_depth: int = 0        # deepest queue at admission
        self.rejected: Counter = Counter()   # reason -> count
        # Bounded sample stores (exact count/sum/min/max; the retained
        # sample is exact below `capacity` observations).
        self.batch_costs = Reservoir(capacity)   # predicted FLOPs per batch
        self.latencies = Reservoir(capacity)     # s, submit -> resolve
        self.waits = Reservoir(capacity)         # s, submit -> batch start
        self._batch_size_counts: Counter = Counter()  # size -> n (exact)
        self._batch_closes: Dict[str, Counter] = {}   # shard -> reason -> n
        self.per_client: Dict[str, dict] = {}    # client -> counters
        self.per_routine: Dict[str, dict] = {}   # routine -> counters+samples
        self.instance = next_instance_id("serve")
        (registry if registry is not None
         else default_registry()).register_collector(
            self.metrics, component="serve", instance=self.instance)

    # -- recording -------------------------------------------------------
    # Entries are built on a miss only: ``setdefault`` would construct
    # (and discard) two seeded reservoirs on every recorded request.
    def _client(self, client: str) -> dict:
        entry = self.per_client.get(client)
        if entry is None:
            entry = self.per_client[client] = {
                "submitted": 0, "served": 0, "failed": 0, "rejected": 0}
        return entry

    def _routine(self, routine: str) -> dict:
        entry = self.per_routine.get(routine)
        if entry is None:
            entry = self.per_routine[routine] = {
                "submitted": 0, "served": 0, "failed": 0, "rejected": 0,
                "latencies": Reservoir(self._capacity),
                "waits": Reservoir(self._capacity)}
        return entry

    def record_admission(self, client: str, queue_depth: int,
                         routine: Optional[str] = None, n: int = 1) -> None:
        """Record ``n`` admitted requests sharing one queue snapshot.

        The bulk-submit path admits a whole slab per call; the depth is
        observed once per call (one queue observation), while the
        counters advance by ``n``.
        """
        self.submitted += n
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = int(queue_depth)
        self._client(client)["submitted"] += n
        if routine is not None:
            self._routine(routine)["submitted"] += n

    def record_rejection(self, client: str, reason: str,
                         routine: Optional[str] = None, n: int = 1) -> None:
        self.rejected[reason] += n
        self._client(client)["rejected"] += n
        if routine is not None:
            self._routine(routine)["rejected"] += n

    def record_batch(self, size: int, cost: Optional[float] = None) -> None:
        """One executed batch; ``cost`` is its predicted-FLOPs total
        (recorded only when the scheduler runs under a cost budget)."""
        self._batch_size_counts[int(size)] += 1
        if cost is not None:
            self.batch_costs.append(float(cost))

    def record_close(self, shard: str, reason: str) -> None:
        """Why a forming batch stopped collecting: ``size`` (slot cap or
        slot-overflow carry), ``cost`` (predicted-FLOPs budget carry),
        ``window`` (straggler deadline) or ``control``
        (shutdown/reload)."""
        self._batch_closes.setdefault(shard, Counter())[reason] += 1

    def record_done(self, client: str, latency: float, wait: float,
                    routine: Optional[str] = None) -> None:
        self.served += 1
        self.latencies.append(float(latency))
        self.waits.append(float(wait))
        self._client(client)["served"] += 1
        if routine is not None:
            entry = self._routine(routine)
            entry["served"] += 1
            entry["latencies"].append(float(latency))
            entry["waits"].append(float(wait))

    def record_failure(self, client: str,
                       routine: Optional[str] = None) -> None:
        self.failed += 1
        self._client(client)["failed"] += 1
        if routine is not None:
            self._routine(routine)["failed"] += 1

    # -- reporting -------------------------------------------------------
    def batch_size_histogram(self) -> dict:
        """``{batch size: number of batches}`` in ascending size order,
        exact over the server's lifetime."""
        return dict(sorted(self._batch_size_counts.items()))

    def latency(self):
        """:class:`~repro.bench.stats.LatencySummary` of request latency."""
        return latency_summary(self.latencies)

    def wait(self):
        """:class:`~repro.bench.stats.LatencySummary` of queue-wait time."""
        return latency_summary(self.waits)

    def routine_latency(self, routine: str):
        """:class:`~repro.bench.stats.LatencySummary` for one routine."""
        return latency_summary(
            self.per_routine.get(routine, {}).get("latencies", []))

    def routine_wait(self, routine: str):
        """:class:`~repro.bench.stats.LatencySummary` of one routine's
        queue wait (submit -> batch execution start)."""
        return latency_summary(
            self.per_routine.get(routine, {}).get("waits", []))

    def routine_stats(self) -> dict:
        """Per-routine counters with latency percentiles (milliseconds)."""
        out = {}
        for routine, entry in self.per_routine.items():
            row = {k: v for k, v in entry.items()
                   if k not in ("latencies", "waits")}
            if entry["latencies"]:
                row["latency_ms"] = latency_summary(
                    entry["latencies"]).as_row()
            if entry["waits"]:
                row["queue_wait_ms"] = latency_summary(
                    entry["waits"]).as_row()
            out[routine] = row
        return out

    def metrics(self) -> Dict[str, float]:
        """Flat counter pull for a metrics-registry collector.

        Table outcomes and reloads are the engine's counts: each shard
        engine's own collector exports them (``engine_table_*``,
        ``engine_reloads``).
        """
        out = {
            "serve_submitted": self.submitted,
            "serve_served": self.served,
            "serve_failed": self.failed,
            "serve_rejected": sum(self.rejected.values()),
            "serve_batches": sum(self._batch_size_counts.values()),
        }
        if self.latencies.count:
            out["serve_latency_p99_s"] = self.latencies.percentile(99)
            out["serve_latency_mean_s"] = (self.latencies.total
                                           / self.latencies.count)
        cost_closed = sum(c.get("cost", 0)
                          for c in self._batch_closes.values())
        if cost_closed:
            out["serve_cost_closed_batches"] = cost_closed
        if self.batch_costs.count:
            out["serve_batch_cost_mean_flops"] = (self.batch_costs.total
                                                  / self.batch_costs.count)
        return out

    def stats(self) -> dict:
        """Snapshot dict (latency fields in milliseconds)."""
        n_batches = sum(self._batch_size_counts.values())
        slots = sum(size * n for size, n in self._batch_size_counts.items())
        out = {
            "submitted": self.submitted,
            "served": self.served,
            "failed": self.failed,
            "rejected": sum(self.rejected.values()),
            "rejected_by_reason": dict(self.rejected),
            "batches": n_batches,
            "mean_batch_size": (round(slots / n_batches, 3)
                                if n_batches else 0.0),
            "batch_size_histogram": self.batch_size_histogram(),
            "max_queue_depth": self.max_queue_depth,
            "clients": {c: dict(v) for c, v in self.per_client.items()},
            "routines": self.routine_stats(),
        }
        if self._batch_closes:
            totals: Counter = Counter()
            for counter in self._batch_closes.values():
                totals.update(counter)
            out["batch_close_reasons"] = dict(totals)
            out["batch_closes_by_shard"] = {
                shard: dict(counter)
                for shard, counter in self._batch_closes.items()}
        if self.batch_costs.count:
            out["batch_cost"] = self.batch_costs.summary()
        if self.latencies:
            out["latency_ms"] = self.latency().as_row()
            out["queue_wait_ms"] = self.wait().as_row()
        return out
