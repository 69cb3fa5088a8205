"""Front-side fleet telemetry: per-worker labelled counters and latency.

The fleet front counts per slab, not per call, so its counts live in
the :class:`~repro.obs.metrics.MetricsRegistry` and nowhere else: every
dispatch, completion, failure, reload and respawn increments an
instrument labelled ``component="fleet", instance=<fleet-N>,
worker=<name>``.  Exporters see per-worker series,
:meth:`~repro.obs.metrics.MetricsRegistry.total` /
:meth:`~repro.obs.metrics.MetricsRegistry.by_label` roll them up
fleet-wide without the fleet object in hand, and
:meth:`FleetTelemetry.stats` reads the same instruments back.  Each
worker's instruments are resolved in the registry once and held, so an
increment is an attribute update, not a registry lookup.
"""

from __future__ import annotations

from repro.obs.metrics import (MetricsRegistry, Reservoir, default_registry,
                               next_instance_id)


class FleetTelemetry:
    """Registry instruments for one fleet front, one set per worker."""

    COUNTERS = ("dispatched", "completed", "failed", "frames",
                "reloads", "respawns")

    def __init__(self, workers, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None \
            else default_registry()
        self.instance = next_instance_id("fleet")
        self._workers: dict = {}   # worker -> {instrument key: handle}
        for worker in workers:
            self._instruments(worker)

    def _instruments(self, worker: str) -> dict:
        """The worker's instruments, looked up in the registry once."""
        handles = self._workers.get(worker)
        if handles is None:
            labels = {"component": "fleet", "instance": self.instance,
                      "worker": worker}
            handles = {name: self.registry.counter(f"fleet_{name}", **labels)
                       for name in self.COUNTERS}
            handles["latency"] = self.registry.histogram("fleet_latency_ms",
                                                         **labels)
            self._workers[worker] = handles
        return handles

    # -- recording -------------------------------------------------------
    def record_dispatch(self, worker: str, n: int, frames: int = 1) -> None:
        handles = self._instruments(worker)
        handles["dispatched"].inc(n)
        handles["frames"].inc(frames)

    def record_completed(self, worker: str, n: int,
                         latency_s: float) -> None:
        handles = self._instruments(worker)
        handles["completed"].inc(n)
        handles["latency"].observe(latency_s * 1e3)

    def record_failure(self, worker: str, n: int = 1) -> None:
        self._instruments(worker)["failed"].inc(n)

    def record_rejection(self, client: str, reason: str,
                         routine: str = None, n: int = 1) -> None:
        """``n`` requests refused at admission, labelled by client,
        reason (``overload``) and routine."""
        self.registry.counter("fleet_rejected", component="fleet",
                              instance=self.instance, client=client,
                              reason=reason, routine=routine).inc(n)

    def record_outstanding(self, worker: str, cost: float) -> None:
        """Set one worker's outstanding predicted-cost gauge (FLOPs).

        Written by the front on every dispatch and completion, so the
        cost-aware router's balance decisions are observable live, in
        :meth:`stats` and in the Prometheus dump as
        ``fleet_outstanding_cost_flops``.
        """
        handles = self._instruments(worker)
        gauge = handles.get("outstanding")
        if gauge is None:
            gauge = handles["outstanding"] = self.registry.gauge(
                "fleet_outstanding_cost_flops", component="fleet",
                instance=self.instance, worker=worker)
        gauge.set(cost)

    def record_reload(self, worker: str) -> None:
        self._instruments(worker)["reloads"].inc()

    def record_respawn(self, worker: str) -> None:
        self._instruments(worker)["respawns"].inc()

    # -- reading ---------------------------------------------------------
    def latency_ms(self, worker: str = None) -> Reservoir:
        """One worker's slab-latency reservoir, or a merged fleet view."""
        if worker is not None:
            return self._instruments(worker)["latency"].reservoir
        return Reservoir.merge(handles["latency"].reservoir
                               for handles in self._workers.values())

    def stats(self) -> dict:
        workers = {}
        totals = dict.fromkeys(self.COUNTERS, 0)
        for name in sorted(self._workers):
            handles = self._workers[name]
            entry = {counter: int(handles[counter].value)
                     for counter in self.COUNTERS}
            for counter, value in entry.items():
                totals[counter] += value
            reservoir = handles["latency"].reservoir
            if reservoir.count:
                entry["latency_ms"] = reservoir.summary()
            if "outstanding" in handles:
                entry["outstanding_cost_flops"] = handles["outstanding"].value
            workers[name] = entry
        rejected = int(self.registry.total("fleet_rejected",
                                           instance=self.instance))
        return {**totals, "rejected": rejected, "workers": workers}
