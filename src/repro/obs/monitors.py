"""Threshold drift monitors: the hook rollback/retrain loops subscribe to.

The ROADMAP's fleet items (canary-then-promote with automatic rollback;
closed-loop retraining on drift) both reduce to the same primitive:
*watch a statistic, fire a callback once when it crosses a threshold*.
:class:`DriftMonitor` is that primitive and :class:`MonitorSet` is the
collection a server evaluates after every executed batch.

Design points:

* **cheap extraction** — a monitor's ``extract(source)`` reads O(1)
  counters (table fallbacks, cache hits) or a bounded reservoir; the
  per-batch evaluation cost is a few comparisons.  ``every`` rate-limits
  genuinely heavier extractors (percentiles) to every N-th evaluation;
* **latching** — a monitor fires *exactly once* per arming.  Traffic
  that stays beyond the threshold does not re-fire every batch (the
  alert would be worthless noise); :meth:`DriftMonitor.reset` re-arms
  after the operator (or the future rollback loop) has acted;
* **minimum evidence** — ``min_count`` observations are required before
  a rate is trusted, so the first off-lattice request of a warm-up does
  not page anyone.

Fired events are delivered to per-monitor and per-set callbacks and
recorded as ``drift`` audit events in a metrics registry, which is how
exports and the CLI surface them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, default_registry


@dataclass(frozen=True)
class DriftEvent:
    """One threshold crossing."""

    monitor: str
    value: float
    threshold: float
    direction: str              # "above" or "below"
    count: int                  # observations backing the value

    def as_dict(self) -> dict:
        return {"monitor": self.monitor, "value": round(self.value, 6),
                "threshold": self.threshold, "direction": self.direction,
                "count": self.count}


class DriftMonitor:
    """Watch one statistic; latch and fire on the first crossing.

    Parameters
    ----------
    name:
        Event label ("table_fallback_rate", ...).
    extract:
        ``extract(source) -> (value, count) | None``.  ``source`` is
        whatever the caller evaluates against (a
        :class:`~repro.serve.server.GemmServer` for the built-ins).
        Return ``None`` when the statistic does not apply yet.
    above / below:
        Fire when ``value > above`` (resp. ``value < below``).  Exactly
        one must be set.
    min_count:
        Observations required before the value is trusted.
    every:
        Evaluate only every N-th call (rate-limits costly extractors).
    callback:
        Invoked with the :class:`DriftEvent` when the monitor fires.
    """

    def __init__(self, name: str,
                 extract: Callable[[object], Optional[tuple]], *,
                 above: float = None, below: float = None,
                 min_count: int = 1, every: int = 1,
                 callback: Callable[[DriftEvent], None] = None):
        if (above is None) == (below is None):
            raise ValueError("set exactly one of above/below")
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        if every < 1:
            raise ValueError("every must be >= 1")
        self.name = str(name)
        self.extract = extract
        self.above = above
        self.below = below
        self.min_count = int(min_count)
        self.every = int(every)
        self.callback = callback
        self.fired: Optional[DriftEvent] = None
        self.last_value: Optional[float] = None
        self._evaluations = 0

    @property
    def threshold(self) -> float:
        return self.above if self.above is not None else self.below

    @property
    def direction(self) -> str:
        return "above" if self.above is not None else "below"

    def reset(self) -> None:
        """Re-arm after a firing has been handled."""
        self.fired = None

    def evaluate(self, source) -> Optional[DriftEvent]:
        """One observation; returns the event on the firing call only.

        The callback runs after the monitor latches, and its error
        propagates.
        """
        event = self._check(source)
        if event is not None and self.callback is not None:
            self.callback(event)
        return event

    def _check(self, source) -> Optional[DriftEvent]:
        """:meth:`evaluate` without the callback."""
        self._evaluations += 1
        if self.fired is not None or (self._evaluations - 1) % self.every:
            return None
        extracted = self.extract(source)
        if extracted is None:
            return None
        value, count = extracted
        self.last_value = float(value)
        if count < self.min_count:
            return None
        crossed = (value > self.above) if self.above is not None \
            else (value < self.below)
        if not crossed:
            return None
        event = DriftEvent(monitor=self.name, value=float(value),
                           threshold=float(self.threshold),
                           direction=self.direction, count=int(count))
        self.fired = event           # latch before callbacks: fire once
        return event


class MonitorSet:
    """The monitors one server evaluates after every executed batch."""

    def __init__(self, monitors: List[DriftMonitor] = (), *,
                 on_fire: Callable[[DriftEvent], None] = None,
                 registry: MetricsRegistry = None):
        self.monitors = list(monitors)
        self.on_fire = on_fire
        self.registry = registry
        self.events: List[DriftEvent] = []

    def add(self, monitor: DriftMonitor) -> "MonitorSet":
        self.monitors.append(monitor)
        return self

    def evaluate(self, source) -> List[DriftEvent]:
        """Evaluate every monitor; deliver + record any firings.

        A monitor whose extractor or callback raises, or an ``on_fire``
        that raises, is recorded as a ``monitor_error`` registry event
        and evaluation goes on: the server evaluates its monitors after
        every batch, and a monitor must never stop a shard serving.  A
        firing whose callback raised still counts as fired.
        """
        fired = []
        for monitor in self.monitors:
            try:
                event = monitor._check(source)
            except Exception as exc:
                self._failed(monitor, "extract", exc)
                continue
            if event is None:
                continue
            self._deliver(monitor, "callback", monitor.callback, event)
            fired.append(event)
            self.events.append(event)
            self._registry().event("drift", **event.as_dict())
            self._deliver(monitor, "on_fire", self.on_fire, event)
        return fired

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None \
            else default_registry()

    def _deliver(self, monitor, stage, callback, event) -> None:
        if callback is None:
            return
        try:
            callback(event)
        except Exception as exc:
            self._failed(monitor, stage, exc)

    def _failed(self, monitor, stage, exc) -> None:
        self._registry().event("monitor_error", monitor=monitor.name,
                               stage=stage, error=type(exc).__name__,
                               message=str(exc))

    def reset(self) -> None:
        for monitor in self.monitors:
            monitor.reset()

    def stats(self) -> dict:
        return {"monitors": {m.name: {
            "threshold": m.threshold, "direction": m.direction,
            "last_value": m.last_value,
            "fired": m.fired.as_dict() if m.fired else None}
            for m in self.monitors},
            "events": [e.as_dict() for e in self.events]}

    def __len__(self) -> int:
        return len(self.monitors)


# -- built-in extractors (evaluate against a GemmServer) -----------------
def table_fallback_monitor(max_rate: float, min_lookups: int = 20,
                           callback=None) -> DriftMonitor:
    """Fire when the tier-0 fallback rate exceeds ``max_rate``.

    The fallback counter is *the* signal that traffic has left the
    compiled lattice (the decision table keeps answering only shapes it
    was built for) — exactly what should trigger lattice refinement or
    retraining on captured traffic.  It reads each distinct shard
    engine's :meth:`~repro.engine.service.GemmService.table_counters`,
    the O(predictors) table view, not the whole ``stats()`` dict with
    its cache and per-routine rows: the monitor runs after every batch.
    """

    def extract(server):
        hits = fallbacks = 0
        for service in {id(s): s for s in server.shards.values()}.values():
            counts = service.table_counters()
            hits += counts["table_hits"]
            fallbacks += counts["table_fallbacks"]
        lookups = hits + fallbacks
        if lookups == 0:
            return None
        return fallbacks / lookups, lookups

    return DriftMonitor("table_fallback_rate", extract, above=float(max_rate),
                        min_count=min_lookups, callback=callback)


def cache_hit_rate_monitor(min_rate: float, min_lookups: int = 20,
                           callback=None) -> DriftMonitor:
    """Fire when the prediction-cache hit rate drops below ``min_rate``."""

    def extract(server):
        hits = misses = 0
        for service in server.shards.values():
            predictors = getattr(service, "predictors", None)
            if not predictors:
                continue
            for cache in {id(p.cache): p.cache
                          for p in predictors.values()
                          if p is not None}.values():
                hits += cache.hits
                misses += cache.misses
        lookups = hits + misses
        if lookups == 0:
            return None
        return hits / lookups, lookups

    return DriftMonitor("cache_hit_rate", extract, below=float(min_rate),
                        min_count=min_lookups, callback=callback)


def p99_latency_monitor(baseline_p99_s: float, factor: float = 2.0,
                        min_samples: int = 20, every: int = 8,
                        callback=None) -> DriftMonitor:
    """Fire when served p99 exceeds ``factor`` x the recorded baseline.

    This is the regression gate the canary-then-promote loop needs: the
    baseline p99 comes from the previous bundle's benchmark artefact
    (``BENCH_serve.json``), and a firing is the rollback trigger.
    """
    if baseline_p99_s <= 0:
        raise ValueError("baseline_p99_s must be positive")

    def extract(server):
        latencies = server.telemetry.latencies
        if len(latencies) == 0:
            return None
        p99 = float(np.percentile(np.asarray(latencies, dtype=np.float64),
                                  99))
        return p99 / baseline_p99_s, latencies.count

    return DriftMonitor("p99_vs_baseline", extract, above=float(factor),
                        min_count=min_samples, every=every, callback=callback)


def refiner_drift_monitor(max_fraction: float, min_shapes: int = 5,
                          callback=None) -> DriftMonitor:
    """Fire when the online refiner disagrees with the model too often.

    Reads :meth:`repro.core.online.OnlineRefiner.drift_statistic` across
    every refining shard: the fraction of measured shapes whose
    locally-optimal choice differs from the model's prior.  A high
    fraction means the deployed model no longer matches the machine —
    the retrain trigger of ROADMAP item 2.
    """

    def extract(server):
        worst = None
        shapes = 0
        for service in server.shards.values():
            refiner = getattr(service, "refiner", None)
            if refiner is None:
                continue
            stat = refiner.drift_statistic()
            shapes += stat["shapes"]
            fraction = stat["drift_fraction"]
            if worst is None or fraction > worst:
                worst = fraction
        if worst is None or shapes == 0:
            return None
        return worst, shapes

    return DriftMonitor("refiner_drift", extract, above=float(max_fraction),
                        min_count=min_shapes, callback=callback)
