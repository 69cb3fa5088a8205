"""Front-side fleet telemetry: per-worker labelled counters and latency.

Every dispatch, completion, failure, reload and respawn is counted
twice on purpose: in plain per-worker dicts (the exact, per-fleet
numbers :meth:`FleetTelemetry.stats` reports) and in the
:class:`~repro.obs.metrics.MetricsRegistry` as instruments labelled
``component="fleet", instance=<fleet-N>, worker=<name>`` — so
exporters see per-worker series and
:meth:`~repro.obs.metrics.MetricsRegistry.total` /
:meth:`~repro.obs.metrics.MetricsRegistry.by_label` roll them up
fleet-wide without the fleet object in hand.
"""

from __future__ import annotations

from repro.obs.metrics import (MetricsRegistry, Reservoir, default_registry,
                               next_instance_id)


class FleetTelemetry:
    """Counters and latency reservoirs for one fleet front."""

    COUNTERS = ("dispatched", "completed", "failed", "frames",
                "reloads", "respawns")

    def __init__(self, workers, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None \
            else default_registry()
        self.instance = next_instance_id("fleet")
        self._counts: dict = {}
        self._latency: dict = {}
        self._outstanding: dict = {}   # worker -> predicted FLOPs in flight
        self._rejected = 0
        for worker in workers:
            self._ensure_worker(worker)

    def _ensure_worker(self, worker: str) -> None:
        if worker in self._counts:
            return
        self._counts[worker] = {name: 0 for name in self.COUNTERS}
        self._latency[worker] = Reservoir()

    def _inc(self, worker: str, name: str, n: int = 1) -> None:
        self._ensure_worker(worker)
        self._counts[worker][name] += n
        self.registry.counter(f"fleet_{name}", component="fleet",
                              instance=self.instance, worker=worker).inc(n)

    # -- recording -------------------------------------------------------
    def record_dispatch(self, worker: str, n: int, frames: int = 1) -> None:
        self._inc(worker, "dispatched", n)
        self._inc(worker, "frames", frames)

    def record_completed(self, worker: str, n: int,
                         latency_s: float) -> None:
        self._inc(worker, "completed", n)
        self._ensure_worker(worker)
        self._latency[worker].append(latency_s * 1e3)
        self.registry.histogram("fleet_latency_ms", component="fleet",
                                instance=self.instance,
                                worker=worker).observe(latency_s * 1e3)

    def record_failure(self, worker: str, n: int = 1) -> None:
        self._inc(worker, "failed", n)

    def record_rejection(self, client: str, reason: str,
                         routine: str = None, n: int = 1) -> None:
        """``n`` requests refused at admission, labelled by client,
        reason (``overload``) and routine."""
        self.registry.counter("fleet_rejected", component="fleet",
                              instance=self.instance, client=client,
                              reason=reason, routine=routine).inc(n)
        self._rejected += n

    def record_outstanding(self, worker: str, cost: float) -> None:
        """Set one worker's outstanding predicted-cost gauge (FLOPs).

        Written by the front on every dispatch and completion, so the
        cost-aware router's balance decisions are observable live: the
        dict value feeds :meth:`stats`, the registry gauge feeds the
        Prometheus dump as ``fleet_outstanding_cost_flops``.
        """
        self._ensure_worker(worker)
        self._outstanding[worker] = float(cost)
        self.registry.gauge("fleet_outstanding_cost_flops",
                            component="fleet", instance=self.instance,
                            worker=worker).set(cost)

    def record_reload(self, worker: str) -> None:
        self._inc(worker, "reloads")

    def record_respawn(self, worker: str) -> None:
        self._inc(worker, "respawns")

    # -- reading ---------------------------------------------------------
    def latency_ms(self, worker: str = None) -> Reservoir:
        """One worker's latency reservoir, or a merged fleet view."""
        if worker is not None:
            self._ensure_worker(worker)
            return self._latency[worker]
        merged = Reservoir()
        for reservoir in self._latency.values():
            merged.extend(reservoir)
        return merged

    def worker_counts(self, worker: str) -> dict:
        self._ensure_worker(worker)
        return dict(self._counts[worker])

    def stats(self) -> dict:
        workers = {}
        for name in sorted(self._counts):
            entry = dict(self._counts[name])
            reservoir = self._latency[name]
            if reservoir.count:
                entry["latency_ms"] = reservoir.summary()
            if name in self._outstanding:
                entry["outstanding_cost_flops"] = self._outstanding[name]
            workers[name] = entry
        totals = {name: sum(c[name] for c in self._counts.values())
                  for name in self.COUNTERS}
        return {**totals, "rejected": self._rejected, "workers": workers}
