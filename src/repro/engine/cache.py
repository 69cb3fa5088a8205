"""A real prediction cache for the runtime engine.

The paper's runtime library remembers exactly *one* previous GEMM input
("if the current GEMM matrix dimensions are the same as the previous,
the software will read and apply the predictions ... without
re-evaluation").  That is the right minimal design for a C library
serving one caller, but a serving engine sees interleaved shape streams
from many requests, where a single-entry memo thrashes.

:class:`PredictionCache` generalises the memo to a bounded LRU mapping
``(m, k, n)`` keys to thread choices, with hit/miss/eviction counters so
benchmarks can report cache effectiveness alongside speedup.  A
``maxsize`` of 1 reproduces the paper's memo semantics exactly, which is
what :class:`~repro.core.predictor.ThreadPredictor` defaults to.
"""

from __future__ import annotations

from collections import OrderedDict


def shape_key(shape) -> tuple:
    """Canonical cache key for a shape: ``(m, k, n)`` ints.

    Accepts a dims triple or any spec object with a ``dims`` attribute.
    Predictor and service must agree on this bitwise, so both import it
    from here.
    """
    dims = shape.dims if hasattr(shape, "dims") else shape
    m, k, n = dims
    return (int(m), int(k), int(n))


def routine_key(shape, routine: str = None) -> tuple:
    """Routine-qualified cache key: ``(routine, m, k, n)``.

    The leading routine name is read from the spec's ``routine``
    attribute (bare dims triples default to ``"gemm"``) unless
    ``routine`` overrides it.  This is the key mixed-routine tables —
    shared caches, router assignments — must use: a GEMV ``(m, k)``
    problem and a GEMM ``(m, k, 1)`` shape have identical feature dims
    but wildly different measured runtimes, and only the routine prefix
    keeps their entries apart.
    """
    if routine is None:
        routine = getattr(shape, "routine", "gemm")
    return (str(routine),) + shape_key(shape)


class PredictionCache:
    """Bounded LRU cache with lifetime statistics.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept; least-recently-*used* entries
        are evicted first.  ``maxsize=1`` degenerates to the paper's
        single-shape memo.
    """

    def __init__(self, maxsize: int = 128):
        if int(maxsize) < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookup ---------------------------------------------------------
    def get(self, key, default=None):
        """Statistic-counting lookup; refreshes the entry's recency."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def get_many(self, keys) -> dict:
        """Bulk lookup: ``{key: value}`` for the keys present.

        Counts one hit or miss per key and refreshes recency exactly
        like :meth:`get` called in sequence, but in one pass — this is
        the batched probe the vectorised serving path leans on.
        """
        data = self._data
        found = {}
        for key in keys:
            if key in data:
                data.move_to_end(key)
                found[key] = data[key]
                self.hits += 1
            else:
                self.misses += 1
        return found

    def peek(self, key, default=None):
        """Lookup without touching statistics or recency."""
        return self._data.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list:
        """Keys in recency order (least recently used first)."""
        return list(self._data.keys())

    # -- update ---------------------------------------------------------
    def put(self, key, value) -> None:
        """Insert/refresh an entry, evicting the LRU tail if over size."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def put_many(self, items) -> None:
        """Bulk insert: ``items`` is a ``{key: value}`` mapping or an
        iterable of pairs; eviction runs once after all inserts."""
        data = self._data
        pairs = items.items() if hasattr(items, "items") else items
        for key, value in pairs:
            if key in data:
                data.move_to_end(key)
            data[key] = value
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key=None) -> None:
        """Drop one entry (or all of them); statistics are kept."""
        if key is None:
            self._data.clear()
        else:
            self._data.pop(key, None)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- reporting ------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Lifetime fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Snapshot for reports (:func:`repro.bench.report.format_table`-ready)."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PredictionCache(size={len(self)}/{self.maxsize}, "
                f"hits={self.hits}, misses={self.misses})")
