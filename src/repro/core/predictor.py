"""Runtime thread-count prediction (paper Fig. 3 / Section IV-A).

For a GEMM shape the predictor builds the Table II features for *every*
candidate thread count, pushes the batch through the fitted
preprocessing pipeline and the regression model, and returns the thread
count with the smallest predicted runtime — "the regression ML model
outputs the runtime of GEMM rather than the number of threads".

Two serving-oriented generalisations sit on top of the paper's design:

* the single-shape memo ("the software is designed to remember the last
  GEMM input and ML predictions") is now a pluggable
  :class:`~repro.engine.cache.PredictionCache`; the default
  ``cache_size=1`` reproduces the paper exactly, while the engine's
  :class:`~repro.engine.service.GemmService` installs a larger LRU;
* :meth:`predict_threads_batch` answers many shapes with **one**
  pipeline/model pass over a ``(n_shapes * |grid|)``-row feature
  matrix, which amortises the per-call Python overhead that dominates
  single-shape prediction;
* a :class:`~repro.compile.plan.CompiledPlan` (lowered by
  :meth:`ThreadPredictor.compile` when a serving predictor is built)
  replaces the object pipeline/model walk with fused array kernels —
  bitwise-identical scores, so thread choices cannot change, only
  their cost.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.core.features import FeatureBuilder
from repro.engine.cache import PredictionCache, shape_key

#: Default size of the per-predictor fallback-shape reservoir.
RESERVOIR_CAPACITY = 256


class ShapeReservoir:
    """Bounded uniform sample of observed shapes (Vitter's Algorithm R).

    The serving path records every table fallback here; the reservoir
    keeps a uniform random sample of *at most* ``capacity`` of them, in
    O(capacity) memory no matter how long the server runs.  The RNG is
    seeded, so the same miss stream always yields the same reservoir —
    lattice refinement driven from it is reproducible.
    """

    __slots__ = ("capacity", "seen", "_items", "_rng")

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.seen = 0
        self._items = []
        self._rng = random.Random(seed)

    def add(self, shape) -> None:
        """Offer one ``(m, k, n)`` triple to the sample."""
        item = tuple(int(v) for v in shape)
        self.seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        j = self._rng.randrange(self.seen)
        if j < self.capacity:
            self._items[j] = item

    def shapes(self) -> list:
        """The current sample, as a list of ``(m, k, n)`` tuples."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class ThreadPredictor:
    """Fitted model + pipeline + thread grid = runtime thread oracle.

    Parameters
    ----------
    feature_builder / pipeline / model:
        Installation artefacts.  ``pipeline`` may be None (ablations).
    thread_grid:
        Candidate thread counts, ascending.
    cache:
        A :class:`PredictionCache` to serve repeat shapes from; built
        from ``cache_size`` when omitted.
    cache_size:
        Size of the default cache.  1 (the default) matches the paper's
        last-call memo semantics.
    plan:
        An optional :class:`~repro.compile.plan.CompiledPlan` for the
        same artefacts; when present, evaluation routes through its
        fused kernels (falling back per half where the plan records a
        fallback).  :meth:`compile` lowers one in place; without one,
        evaluation walks the pipeline and model objects.
    table:
        An optional :class:`~repro.compile.table.DecisionTable` built
        from the same artefacts — tier 0 of the prediction hierarchy.
        Cache misses probe the table first (no model pass at all);
        shapes off its lattice fall through to the plan/object path
        and are counted in ``n_table_fallbacks``.  The table must have
        been compiled for this routine **and** this exact thread grid —
        packed indices against any other grid would select infeasible
        thread counts, so a mismatch raises immediately.
    routine:
        The routine these artefacts were trained for ("gemm", "gemv",
        ...).  Cache entries are keyed ``(routine, m, k, n)`` so two
        predictors sharing one :class:`PredictionCache` — or any
        mixed-routine table built on :meth:`cache_key` — can never
        serve a GEMV shape from a GEMM entry.
    """

    def __init__(self, feature_builder: FeatureBuilder, pipeline, model,
                 thread_grid, cache: PredictionCache = None,
                 cache_size: int = 1, plan=None, table=None,
                 routine: str = "gemm"):
        self.feature_builder = feature_builder
        self.pipeline = pipeline
        self.model = model
        self.plan = plan
        self.routine = str(routine)
        self.thread_grid = np.asarray(sorted(set(int(t) for t in thread_grid)),
                                      dtype=np.int64)
        if self.thread_grid.size == 0:
            raise ValueError("thread_grid must be non-empty")
        if (self.thread_grid < 1).any():
            raise ValueError("thread counts must be >= 1")
        if table is not None:
            if table.routine != self.routine:
                raise ValueError(
                    f"decision table was compiled for routine "
                    f"{table.routine!r}, predictor serves {self.routine!r}")
            if not np.array_equal(table.thread_grid, self.thread_grid):
                raise ValueError(
                    f"decision table was compiled for thread grid "
                    f"{table.thread_grid.tolist()}, predictor uses "
                    f"{self.thread_grid.tolist()} — recompile the table "
                    f"for this grid")
        self.table = table
        self.cache = cache if cache is not None else PredictionCache(cache_size)
        self.n_evaluations = 0
        self.n_model_passes = 0
        self.n_table_hits = 0
        self.n_table_fallbacks = 0
        # Interpolated answers are a sub-count of n_table_hits: lookups
        # the table resolved *between* lattice points (plateau mode).
        self.n_table_interpolated = 0
        # Every table fallback deposits its shape here; the registry's
        # refine_table retrofit densifies the lattice where they cluster.
        self.fallback_shapes = ShapeReservoir()

    @property
    def n_memo_hits(self) -> int:
        """Lifetime predictions answered from the cache."""
        return self.cache.hits

    @property
    def compiled(self) -> bool:
        """Whether evaluation routes through a compiled plan."""
        return self.plan is not None

    @property
    def tabled(self) -> bool:
        """Whether a decision table fronts the model as tier 0."""
        return self.table is not None

    def compile(self) -> "ThreadPredictor":
        """Lower this predictor's own artefacts into a plan; returns self."""
        from repro.compile import compile_plan

        self.plan = compile_plan(self.pipeline, self.model)
        return self

    def _evaluate(self, X: np.ndarray) -> np.ndarray:
        """One pipeline+model pass, through the plan when one is set.

        The feature builder's output is float64 and finite by
        construction, so the fused path skips re-validation; lowered
        halves are bitwise identical to the objects they replace.
        """
        plan = self.plan
        if plan is None:
            if self.pipeline is not None:
                X = self.pipeline.transform(X)
            return np.asarray(self.model.predict(X), dtype=np.float64)
        if plan.transform is not None:
            Z = plan.transform.apply(X, check_input=False)
        elif plan.transform_fallback and self.pipeline is not None:
            Z = self.pipeline.transform(X)
        else:
            Z = X
        if plan.model is not None:
            return np.asarray(plan.model.predict(Z), dtype=np.float64)
        return np.asarray(self.model.predict(Z), dtype=np.float64)

    # ------------------------------------------------------------------
    def predicted_runtimes(self, m: int, k: int, n: int) -> np.ndarray:
        """Model scores per candidate thread count (transformed label units)."""
        X = self.feature_builder.build_for_grid(m, k, n, self.thread_grid)
        return self._evaluate(X)

    def predicted_runtimes_batch(self, shapes) -> np.ndarray:
        """Scores for many shapes in one pass, shaped ``(n_shapes, |grid|)``.

        Row ``i`` is exactly what :meth:`predicted_runtimes` returns for
        ``shapes[i]``: every pipeline stage and every registered model
        transforms row-wise, so batching cannot change any score.
        """
        X = self.feature_builder.build_for_batch(shapes, self.thread_grid)
        scores = self._evaluate(X)
        return scores.reshape(-1, self.thread_grid.size)

    # ------------------------------------------------------------------
    _key = staticmethod(shape_key)

    def cache_key(self, shape) -> tuple:
        """The routine-qualified key a shape caches under:
        ``(routine, m, k, n)``."""
        return (self.routine,) + shape_key(shape)

    def predict_threads(self, m: int, k: int, n: int) -> int:
        """Optimal thread count for the shape, cache- and table-backed.

        Tier 0 after a cache miss is the decision table (no model
        pass); only off-lattice shapes reach the pipeline/model.  Any
        monotone label transform leaves the argmin unchanged, so the
        raw model output is compared directly.
        """
        key = (self.routine, int(m), int(k), int(n))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if self.table is not None:
            choice, interpolated = self.table.lookup_ex(m, k, n)
            if choice is not None:
                self.n_table_hits += 1
                self.n_table_interpolated += int(interpolated)
                self.cache.put(key, choice)
                return choice
            self.n_table_fallbacks += 1
            self.fallback_shapes.add(key[1:])
        scores = self.predicted_runtimes(m, k, n)
        self.n_evaluations += 1
        self.n_model_passes += 1
        choice = int(self.thread_grid[int(np.argmin(scores))])
        self.cache.put(key, choice)
        return choice

    def predict_threads_batch(self, shapes) -> np.ndarray:
        """Thread choices for a stream of shapes, one model pass for misses.

        ``shapes`` is a sequence of ``(m, k, n)`` triples (or objects
        with a ``dims`` attribute).  Unique keys probe the cache in one
        :meth:`~repro.engine.cache.PredictionCache.get_many` pass; the
        remaining shapes resolve through the decision table in one
        batch lookup, and only the off-lattice leftovers are
        pushed through the pipeline/model in one vectorised evaluation.
        Choices come back as an int64 array aligned with the input
        order and are bitwise-identical to calling
        :meth:`predict_threads` per shape.
        """
        keys = [self.cache_key(s) for s in shapes]
        unique = list(dict.fromkeys(keys))  # unique keys, first-seen order
        resolved = self.cache.get_many(unique)
        misses = [key for key in unique if key not in resolved]
        if misses and self.table is not None:
            choices, hit, interpolated = self.table.lookup_batch_ex(
                [k[1:] for k in misses])
            self.n_table_hits += int(hit.sum())
            self.n_table_interpolated += int(interpolated.sum())
            self.n_table_fallbacks += len(misses) - int(hit.sum())
            served = {key: int(choice)
                      for key, choice, ok in zip(misses, choices, hit) if ok}
            self.cache.put_many(served)
            resolved.update(served)
            for key, ok in zip(misses, hit):
                if not ok:
                    self.fallback_shapes.add(key[1:])
            misses = [key for key in misses if key not in served]
        if misses:
            scores = self.predicted_runtimes_batch([k[1:] for k in misses])
            self.n_evaluations += len(misses)
            self.n_model_passes += 1
            served = {}
            for key, row in zip(misses, np.argmin(scores, axis=1)):
                served[key] = int(self.thread_grid[int(row)])
            self.cache.put_many(served)
            resolved.update(served)
        return np.asarray([resolved[key] for key in keys], dtype=np.int64)

    def invalidate_memo(self) -> None:
        """Drop every cached prediction (e.g. after the machine changes)."""
        self.cache.invalidate()

    # ------------------------------------------------------------------
    def measure_eval_time(self, shapes=None, repeats: int = 20,
                          batch_size: int = 1) -> float:
        """Average wall-clock seconds of one full prediction.

        The paper measures each tuned model's evaluation time by
        averaging multiple runs on the target machine (Section IV-D);
        this is the genuine Python cost on *this* machine, which is what
        the speedup estimate ``s = t_orig / (t_ADSALA + t_eval)`` needs.
        With ``batch_size > 1`` the cost is measured through the
        vectorised path and reported per shape (amortised).
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        shapes = list(shapes or [(512, 512, 512)])
        if batch_size > 1:
            # Tile distinct shapes to the batch size (cache is bypassed:
            # this measures evaluation, not lookup).
            batch = [(m + i, k, n) for i, (m, k, n)
                     in enumerate(shapes * (batch_size // len(shapes) + 1))]
            batch = batch[:batch_size]
            self.predicted_runtimes_batch(batch)  # warm-up
            t0 = time.perf_counter()
            for _ in range(repeats):
                self.predicted_runtimes_batch(batch)
            elapsed = time.perf_counter() - t0
            return elapsed / (repeats * batch_size)
        # Warm-up pass (amortised allocations, code paths).
        for m, k, n in shapes:
            self.predicted_runtimes(m, k, n)
        t0 = time.perf_counter()
        for _ in range(repeats):
            for m, k, n in shapes:
                self.predicted_runtimes(m, k, n)
        elapsed = time.perf_counter() - t0
        return elapsed / (repeats * len(shapes))
