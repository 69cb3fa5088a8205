"""The unified metrics registry: counters, gauges, bounded histograms.

Before this module every subsystem kept its own ad-hoc dicts of
counters (``ServeTelemetry``, ``GemmService.stats()``,
``PredictionCache.stats()``) and its own *unbounded* sample lists — a
long-lived server grew memory without limit and there was no single
place an exporter could read.  :class:`MetricsRegistry` is that place:

* **instruments** — :class:`Counter` (monotonic), :class:`Gauge`
  (last-write-wins) and :class:`Histogram` (a bounded
  :class:`Reservoir` plus *exact* count/sum/min/max), each identified
  by ``(name, labels)`` so one registry serves many routines, shards
  and clients without collisions;
* **collectors** — pull-based callbacks registered with
  :meth:`MetricsRegistry.register_collector`.  Every count has one
  owner, the layer that observes the event.  Counts updated on every
  call (the prediction cache's hits and misses, the predictor's
  ``n_*`` counters, the engine's request counts) stay plain attributes
  of their owner, because an instrument would add a method call to a
  microsecond-scale path; the engine's and the serve telemetry's
  collectors pull them at snapshot time.  Counts updated once per
  slab (the fleet front's) are instruments themselves.  The registry
  holds collectors via *weak references*, so a garbage-collected
  server drops out of the snapshot automatically — no unregister
  bookkeeping, no cross-test leaks;
* **events** — a bounded audit ring (:meth:`MetricsRegistry.event`) for
  discrete occurrences that are not time series: registry publishes,
  training runs, fleet worker errors and deaths.

A process-wide instance is available via :func:`default_registry`; the
serving and training layers publish into it unless handed an explicit
registry.  Everything here is import-light (numpy only) so any layer
may depend on it without cycles.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
import time
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Default bounded-sample capacity.  Below this many observations a
#: Reservoir is *exact* (bitwise identical to the unbounded list it
#: replaces); past it, reservoir sampling keeps a uniform subsample.
DEFAULT_CAPACITY = 4096

_ids = itertools.count(1)


def _label_key(labels: Dict[str, str]) -> Tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def skip_ahead(rng: random.Random, capacity: int, log_w: float,
               position: int) -> Tuple[float, int]:
    """One step of Algorithm L (Li, 1994) for a full reservoir.

    Shrinks the running weight ``W`` (passed and returned as
    ``log_w``; start at ``0.0``) and draws which observation after
    number ``position`` replaces a retained one next.  Returns
    ``(log_w, next)``.  Two uniform draws per step: a sampler calls it
    once when it fills and once per replacement, so appends between
    replacements only compare a counter.
    """
    log_w += math.log(_uniform(rng)) / capacity
    # log(1 - W); expm1 keeps 1 - W accurate while W is near 1.
    log_keep = math.log(-math.expm1(log_w))
    return log_w, position + math.floor(
        math.log(_uniform(rng)) / log_keep) + 1


def _uniform(rng: random.Random) -> float:
    """A draw from the open interval (0, 1): ``log(0)`` is undefined."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


class Reservoir:
    """Bounded sample store: exact until ``capacity``, Algorithm L after.

    Drop-in replacement for the unbounded ``list`` samples the serve
    telemetry used to keep: supports ``append``/``extend``, iteration,
    indexing and ``len`` (of the *retained* sample), while ``count``,
    ``total``, ``minimum`` and ``maximum`` stay exact over every value
    ever observed.  The replacement RNG is seeded, so two processes
    replaying the same stream retain the same subsample.

    Past capacity the sample is kept uniform by Algorithm L (Li, 1994):
    the reservoir holds the count at which the next observation replaces
    a retained one, so an append that replaces nothing only compares a
    counter.  Only replacements draw (three numbers each), and there
    are about ``capacity * ln(count / capacity)`` of them.
    """

    __slots__ = ("capacity", "count", "total", "minimum", "maximum",
                 "_data", "_rng", "_log_w", "_next")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, seed: int = 0):
        if int(capacity) < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.count = 0          # total observed, not just retained
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._data: List[float] = []
        self._rng = random.Random(seed)
        # Algorithm L's running weight W (as log W) and the count of the
        # next replacing observation.  The draws need no data, so the
        # first replacement is scheduled here.
        self._log_w, self._next = skip_ahead(self._rng, self.capacity, 0.0,
                                             self.capacity)

    # -- recording -------------------------------------------------------
    def append(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._data) < self.capacity:
            self._data.append(value)
        elif self.count >= self._next:
            self._data[self._rng.randrange(self.capacity)] = value
            self._log_w, self._next = skip_ahead(
                self._rng, self.capacity, self._log_w, self.count)

    def extend(self, values: Iterable) -> None:
        for value in values:
            self.append(value)

    @classmethod
    def merge(cls, reservoirs: Iterable["Reservoir"]) -> "Reservoir":
        """One read-time view over several reservoirs: their retained
        samples side by side, with count, total and extrema exact over
        everything they observed."""
        reservoirs = list(reservoirs)
        merged = cls(max(1, sum(len(r) for r in reservoirs)))
        observed = [r for r in reservoirs if r.count]
        for r in observed:
            merged._data.extend(r._data)
            merged.count += r.count
            merged.total += r.total
        if observed:
            merged.minimum = min(r.minimum for r in observed)
            merged.maximum = max(r.maximum for r in observed)
        return merged

    # -- sequence protocol (what latency_summary / tests consume) --------
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        return self._data[index]

    def __iter__(self):
        return iter(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    @property
    def saturated(self) -> bool:
        """Whether observations have exceeded the retained capacity."""
        return self.count > self.capacity

    def percentile(self, q) -> float:
        if not self._data:
            raise ValueError("empty reservoir")
        return float(np.percentile(np.asarray(self._data, dtype=np.float64),
                                   q))

    def summary(self) -> dict:
        """Exact count/sum/min/max plus reservoir-estimated percentiles."""
        out = {"count": self.count, "sum": round(self.total, 9),
               "min": self.minimum, "max": self.maximum}
        if self._data:
            s = np.asarray(self._data, dtype=np.float64)
            out.update({"mean": float(self.total / self.count),
                        "p50": float(np.percentile(s, 50)),
                        "p95": float(np.percentile(s, 95)),
                        "p99": float(np.percentile(s, 99))})
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Reservoir({len(self._data)}/{self.capacity} retained, "
                f"{self.count} observed)")


class _Instrument:
    """Shared identity: ``(name, labels)`` plus the owning registry."""

    kind = "instrument"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = str(name)
        self.labels = dict(labels)

    def describe(self) -> dict:
        return {"name": self.name, "type": self.kind, "labels": self.labels}


class Counter(_Instrument):
    """Monotonically increasing value (requests, hits, publishes)."""

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up (use a Gauge)")
        self.value += amount

    def describe(self) -> dict:
        return {**super().describe(), "value": self.value}


class Gauge(_Instrument):
    """Last-written value (queue depth, stage duration, outstanding cost)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def describe(self) -> dict:
        return {**super().describe(), "value": self.value}


class Histogram(_Instrument):
    """Bounded distribution: exact aggregates, reservoir percentiles."""

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str],
                 capacity: int = DEFAULT_CAPACITY):
        super().__init__(name, labels)
        self.reservoir = Reservoir(capacity)

    def observe(self, value: float) -> None:
        self.reservoir.append(value)

    @property
    def count(self) -> int:
        return self.reservoir.count

    def describe(self) -> dict:
        return {**super().describe(), **self.reservoir.summary()}


class MetricsRegistry:
    """Process-wide (or scoped) home for instruments, collectors, events.

    Parameters
    ----------
    events_capacity:
        Bound on the audit-event ring; the oldest events are dropped
        first (``n_events`` stays exact).
    """

    def __init__(self, events_capacity: int = 1024):
        self._instruments: Dict[Tuple, _Instrument] = {}
        self._collectors: List[Tuple] = []   # (weak_fn, labels)
        self._events: List[dict] = []
        self._events_capacity = int(events_capacity)
        self.n_events = 0
        self._lock = threading.Lock()

    # -- instruments -----------------------------------------------------
    def _get(self, factory, name: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(name, labels, **kwargs)
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        """Get-or-create the counter identified by ``(name, labels)``."""
        instrument = self._get(Counter, name, labels)
        if not isinstance(instrument, Counter):
            raise TypeError(f"{name!r} is a {instrument.kind}, not a counter")
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        instrument = self._get(Gauge, name, labels)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{name!r} is a {instrument.kind}, not a gauge")
        return instrument

    def histogram(self, name: str, capacity: int = DEFAULT_CAPACITY,
                  **labels) -> Histogram:
        instrument = self._get(Histogram, name, labels, capacity=capacity)
        if not isinstance(instrument, Histogram):
            raise TypeError(
                f"{name!r} is a {instrument.kind}, not a histogram")
        return instrument

    def instruments(self) -> list:
        with self._lock:
            return list(self._instruments.values())

    # -- aggregation -----------------------------------------------------
    def total(self, name: str, **labels) -> float:
        """Sum an instrument across every label set carrying ``name``.

        ``labels`` filters: only instruments whose labels include every
        given key/value pair contribute.  Histograms contribute their
        observation count.  This is the fleet-level rollup: per-worker
        counters stay labelled (``worker="worker-3"``) and exporters or
        dashboards read one number here.
        """
        out = 0.0
        for instrument in self.instruments():
            if instrument.name != name:
                continue
            if any(str(instrument.labels.get(str(k))) != str(v)
                   for k, v in labels.items()):
                continue
            out += (instrument.count if isinstance(instrument, Histogram)
                    else instrument.value)
        return out

    def by_label(self, name: str, label: str) -> dict:
        """Per-label-value breakdown of an instrument, summed otherwise.

        ``by_label("fleet_served", "worker")`` returns
        ``{"worker-0": 812.0, "worker-1": 790.0, ...}``; instruments
        without the label are skipped.  The labelled twin of
        :meth:`total`.
        """
        out: Dict[str, float] = {}
        label = str(label)
        for instrument in self.instruments():
            if instrument.name != name or label not in instrument.labels:
                continue
            value = (instrument.count if isinstance(instrument, Histogram)
                     else instrument.value)
            key = str(instrument.labels[label])
            out[key] = out.get(key, 0.0) + value
        return out

    # -- collectors ------------------------------------------------------
    def register_collector(self, fn: Callable[[], Dict[str, float]],
                           **labels) -> None:
        """Register a pull callback returning ``{metric name: value}``.

        Bound methods are held through :class:`weakref.WeakMethod`, so
        the registry never keeps a served component alive: once the
        owning object is collected the entry silently disappears from
        snapshots.  Plain callables (lambdas, free functions) are held
        strongly — an inline closure has no owner whose lifetime could
        scope it, and weakly referencing one would drop it on the next
        garbage collection.  Collection happens only at snapshot/export
        time — registering a collector adds **zero** cost to any hot
        path.
        """
        try:
            ref = weakref.WeakMethod(fn) if hasattr(fn, "__self__") \
                else (lambda strong=fn: strong)
        except TypeError:  # unweakrefable method owner — hold strongly
            ref = (lambda strong=fn: strong)
        with self._lock:
            self._collectors.append((ref, dict(labels)))

    def collect(self) -> List[dict]:
        """Run every live collector; prune the dead ones."""
        with self._lock:
            collectors = list(self._collectors)
        rows, dead = [], []
        for ref, labels in collectors:
            fn = ref()
            if fn is None:
                dead.append((ref, labels))
                continue
            try:
                values = fn()
            except ReferenceError:  # owner died mid-call
                dead.append((ref, labels))
                continue
            for name, value in (values or {}).items():
                rows.append({"name": name, "type": "gauge",
                             "labels": labels, "value": value})
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors
                                    if c not in dead]
        return rows

    # -- events ----------------------------------------------------------
    def event(self, name: str, ts: float = None, **attrs) -> dict:
        """Record one audit event in the bounded ring; returns it."""
        entry = {"event": str(name),
                 "ts": time.time() if ts is None else float(ts), **attrs}
        with self._lock:
            self.n_events += 1
            self._events.append(entry)
            if len(self._events) > self._events_capacity:
                del self._events[:len(self._events) - self._events_capacity]
        return entry

    def events(self, name: str = None) -> List[dict]:
        with self._lock:
            events = list(self._events)
        if name is not None:
            events = [e for e in events if e["event"] == name]
        return events

    # -- snapshot --------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time view: instruments + collector pulls + events."""
        return {
            "metrics": ([i.describe() for i in self.instruments()]
                        + self.collect()),
            "events": self.events(),
            "n_events": self.n_events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry({len(self._instruments)} instruments, "
                f"{len(self._collectors)} collectors, "
                f"{len(self._events)} events)")


_default: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every layer publishes into by default."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = MetricsRegistry()
    return _default


def set_default_registry(registry: Optional[MetricsRegistry]) -> None:
    """Swap (or with ``None``, reset) the process-wide default registry.

    Tests use this to observe a pristine registry; serving code should
    normally accept an explicit registry parameter instead.
    """
    global _default
    with _default_lock:
        _default = registry


def next_instance_id(prefix: str) -> str:
    """Short process-unique component label (``srv-3``, ``svc-17``)."""
    return f"{prefix}-{next(_ids)}"
