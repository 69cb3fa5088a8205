"""The request layer: deduplicated, batch-predicted routine serving.

:class:`GemmService` is what the runtime library became once prediction,
caching and execution were pulled apart: it accepts a stream of specs,
groups them by shape, answers cached shapes from the
:class:`~repro.engine.cache.PredictionCache`, pushes all remaining
shapes through the predictor in **one** vectorised pipeline/model pass
(:meth:`~repro.core.predictor.ThreadPredictor.predict_threads_batch`),
calls its :class:`~repro.engine.backend.ExecutionBackend` for each
call, and returns per-call :class:`GemmCallRecord` bookkeeping.

Since the routine-generic refactor the service is multi-routine: it
holds one :class:`~repro.core.predictor.ThreadPredictor` **per
routine** (:meth:`register_routine`), resolves every incoming spec to
its routine's predictor (falling back to the default for unregistered
routines, the historic single-predictor behaviour), and
:meth:`run_batch` groups a mixed GEMM/GEMV/TRSM/SYRK stream per
routine so each predictor still pays one vectorised pass for its
shapes — choices are bitwise identical to serving each routine through
a dedicated single-routine service.  :meth:`reload` hot-swaps a single
routine's predictor without touching the others.

:class:`~repro.core.library.AdsalaRuntime` (and its GEMM-specific alias
:class:`~repro.core.library.AdsalaGemm`) is a thin facade over this
class, so single-call users keep the paper's API while batch users get
amortised prediction cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.routines import routine_of
from repro.engine.backend import as_backend
from repro.engine.cache import shape_key as _shape_key
from repro.obs.metrics import default_registry, next_instance_id

#: A predictor's lifetime counters, by the key ``stats()`` reports them
#: under.
_COUNTERS = {"evaluations": "n_evaluations",
             "model_passes": "n_model_passes",
             "table_hits": "n_table_hits",
             "table_fallbacks": "n_table_fallbacks",
             "table_interpolated": "n_table_interpolated"}
_TABLE_KEYS = ("table_hits", "table_fallbacks", "table_interpolated")


@dataclass
class GemmCallRecord:
    """Bookkeeping for one dispatched call (GEMM or any routine spec)."""

    spec: object
    n_threads: int
    runtime: float
    memoised: bool

    @property
    def gflops(self) -> float:
        return self.spec.flops / self.runtime / 1e9


def _table_row(counts: dict) -> dict:
    """The decision-table keys of a counter row; ``table_interpolated``
    only when non-zero."""
    row = {"table_hits": counts["table_hits"],
           "table_fallbacks": counts["table_fallbacks"]}
    if counts["table_interpolated"]:
        row["table_interpolated"] = counts["table_interpolated"]
    return row


class GemmService:
    """Multi-routine execution engine with vectorised thread prediction.

    Parameters
    ----------
    predictor:
        A fitted :class:`~repro.core.predictor.ThreadPredictor` for the
        service's *default* routine (the predictor's own ``routine``
        attribute, "gemm" historically); its cache is that routine's
        prediction cache.  Further routines join via
        :meth:`register_routine`.
    backend:
        The :class:`~repro.engine.backend.ExecutionBackend`: anything
        with ``timed_run`` (checked by
        :func:`~repro.engine.backend.as_backend`).  GEMM calls run on it
        directly, and so does every call when it is not a machine
        simulator; on a simulator (it has a ``cost_model``), the calls
        of any other routine run on a
        :class:`~repro.blas.adapter.RoutineSimulator` over it.
    repeats:
        Timing-loop repetitions per call.
    """

    def __init__(self, predictor, backend, repeats: int = 1):
        self.routine = getattr(predictor, "routine", "gemm")
        self._predictors = {self.routine: predictor}
        self.backend = as_backend(backend)
        #: Whether ``timed_run`` waits with the GIL released (see
        #: :class:`~repro.engine.backend.ExecutionBackend`); a serving
        #: scheduler runs this service's batches off its event loop then.
        self.blocking = bool(getattr(backend, "blocking", False))
        self._executors: dict = {}  # routine -> what runs its calls
        self.repeats = repeats
        self._requests: Dict[str, int] = {}  # spec routine -> served calls
        self.n_memoised: int = 0    # served calls with a cached prediction
        self.n_batches: int = 0
        self.bundle_generation: int = 0     # applied reloads
        self.bundle_info: Dict[str, str] = {}
        self.routine_info: Dict[str, dict] = {}
        self._machine_max: Optional[int] = None
        # routine -> counters of the predictors reload() retired from it
        self._retired: Dict[str, Dict[str, int]] = {}
        self._closed = False
        self.instance = next_instance_id("engine")
        # Weakly-held pull collector: exporters see the live counters,
        # the hot path never touches the registry, and a discarded
        # service drops out of snapshots on its own.
        default_registry().register_collector(
            self.metrics, component="engine", instance=self.instance)

    @classmethod
    def from_bundle(cls, bundle, machine, repeats: int = 1,
                    cache_size: int = 256, backend=None) -> "GemmService":
        """Service over installation artefacts and a machine-like object.

        The candidate grid is the installed one clamped to the
        execution machine's capacity, so artefacts trained on a bigger
        node still serve (predicting only feasible team sizes) when
        dispatched to a smaller one.

        The predictor takes the compiled fast path: its plan is
        lowered from the bundle's pipeline and model here, and thread
        choices are bitwise identical to the object path.  The bundle's
        ``config.routine`` tag makes the service's default routine,
        so a GEMV installation serves GEMV traffic directly (on a
        machine simulator, through the
        :class:`~repro.blas.adapter.RoutineSimulator` oracle).

        ``backend`` substitutes the execution backend while the
        *prediction* artefacts (grid clamping included) still derive
        from ``machine`` — the fleet benchmark serves registry bundles
        against a synthetic CPU-bound backend this way.
        """
        max_threads = getattr(machine, "max_threads", None)
        machine_max = max_threads() if callable(max_threads) else None
        grid = cls._clamped_grid(bundle, machine_max)
        service = cls(bundle.predictor(cache_size=cache_size,
                                       thread_grid=grid, compiled=True),
                      machine if backend is None else backend,
                      repeats=repeats)
        service._machine_max = machine_max
        meta = cls._bundle_meta(bundle)
        service.routine_info[service.routine] = meta
        service.bundle_info = {k: meta[k] for k in ("model_name", "machine")}
        return service

    @classmethod
    def from_registry(cls, registry, machine,
                      machine_name: Optional[str] = None,
                      routines=None, repeats: int = 1, cache_size: int = 256,
                      version="latest", backend=None) -> "GemmService":
        """One mixed-routine service from a model registry's cells.

        Loads the ``(routine, machine_name)`` bundle for every requested
        routine (default: every routine with a published version for
        that machine), installs the first one as the service's default
        and registers the rest, each with its own predictor.  On a
        machine *simulator*, non-GEMM routines run on the
        :class:`~repro.blas.adapter.RoutineSimulator` oracle over it;
        ``backend`` overrides execution for every routine, GEMM
        included.
        """
        from repro.train.registry import ModelRegistry

        registry = registry if isinstance(registry, ModelRegistry) \
            else ModelRegistry(registry)
        machine_name = machine_name or getattr(machine, "name", None)
        if machine_name is None:
            raise ValueError("machine has no name; pass machine_name")
        if routines is None:
            routines = [record.routine for record in registry.entries()
                        if record.machine == machine_name and record.latest]
        routines = list(dict.fromkeys(routines))
        if not routines:
            raise ValueError(
                f"no published routines for machine {machine_name!r} "
                f"in registry {registry.root}")
        bundles = {routine: registry.load(routine, machine_name,
                                          version=version)
                   for routine in routines}
        first = routines[0]
        service = cls.from_bundle(bundles[first], machine, repeats=repeats,
                                  cache_size=cache_size, backend=backend)
        for routine in routines[1:]:
            service.register_routine(routine, bundle=bundles[routine],
                                     cache_size=cache_size)
        return service

    # -- routine registration --------------------------------------------
    @staticmethod
    def _clamped_grid(bundle, machine_max) -> list:
        grid = list(bundle.config.thread_grid)
        if machine_max is not None:
            grid = [t for t in grid if t <= machine_max] or grid
        return grid

    @staticmethod
    def _bundle_meta(bundle) -> dict:
        return {"model_name": bundle.config.model_name,
                "machine": bundle.config.machine,
                "dtype": bundle.config.dtype}

    def register_routine(self, routine: str, bundle=None, predictor=None,
                         cache_size: int = 256) -> "GemmService":
        """Serve ``routine`` specs with their own predictor.

        Pass either a trained ``bundle`` (a predictor is built from it,
        compiled path, grid clamped to the machine exactly like
        :meth:`from_bundle`) or a ready ``predictor``.  Returns self for
        chaining.
        """
        self._ensure_open()
        if (bundle is None) == (predictor is None):
            raise ValueError("pass exactly one of bundle or predictor")
        if bundle is not None:
            grid = self._clamped_grid(bundle, self._machine_max)
            predictor = bundle.predictor(cache_size=cache_size,
                                         thread_grid=grid, compiled=True)
            self.routine_info[routine] = self._bundle_meta(bundle)
        self._predictors[routine] = predictor
        return self

    @property
    def predictor(self):
        """The default routine's predictor (historic single-routine API)."""
        return self._predictors[self.routine]

    @predictor.setter
    def predictor(self, value) -> None:
        self._predictors[self.routine] = value

    @property
    def predictors(self) -> dict:
        """Read-only view: routine name -> predictor."""
        return dict(self._predictors)

    def predictor_for(self, spec):
        """The predictor serving ``spec``'s routine.

        Unregistered routines fall back to the default predictor — the
        historic behaviour where one GEMM model scored every routine's
        dims triple.
        """
        chosen = self._predictors.get(routine_of(spec, self.routine))
        return chosen if chosen is not None else self._predictors[self.routine]

    def reload(self, bundle, cache_size: Optional[int] = None,
               routine: Optional[str] = None) -> dict:
        """Hot-swap one routine's installation artefacts without restarting.

        ``routine`` defaults to the bundle's own ``config.routine`` tag,
        so publishing a new GEMV model into a mixed service swaps *only*
        the GEMV predictor — every other routine keeps serving its
        artefacts untouched.  The fresh predictor (fresh, empty cache; grid
        clamped to the machine exactly as :meth:`from_bundle` does) is
        installed with a single reference assignment, so a concurrently
        executing :meth:`run`/:meth:`run_batch` (which snapshot their
        predictors on entry) finishes on the artefacts it started with
        and the next call uses the new ones.  Prediction counters
        accumulated by the retired predictor stay in :meth:`stats`.
        Returns a summary of the new deployment.
        """
        self._ensure_open()
        routine = routine or bundle.config.routine
        old = self._predictors.get(routine)
        if cache_size is None:
            cache_size = old.cache.maxsize if old is not None \
                else self.predictor.cache.maxsize
        grid = self._clamped_grid(bundle, self._machine_max)
        predictor = bundle.predictor(cache_size=cache_size, thread_grid=grid,
                                     compiled=True)
        # The predictor is fully built before it is published.  stats()
        # raced against the counter fold may transiently under-report
        # the retired predictor's counts.
        self._predictors[routine] = predictor  # atomic: in-flight hold old
        if old is not None:
            retired = self._retired.setdefault(routine,
                                               dict.fromkeys(_COUNTERS, 0))
            for key, attr in _COUNTERS.items():
                retired[key] += getattr(old, attr)
        self.bundle_generation += 1
        meta = self._bundle_meta(bundle)
        self.routine_info[routine] = meta
        if routine == self.routine:
            self.bundle_info = {k: meta[k]
                                for k in ("model_name", "machine")}
        return {"generation": self.bundle_generation, "routine": routine,
                **self.routine_info[routine]} if routine != self.routine \
            else {"generation": self.bundle_generation, **self.bundle_info}

    # -- prediction ------------------------------------------------------
    @property
    def cache(self):
        self._ensure_open()
        return self.predictor.cache

    @property
    def thread_grid(self) -> np.ndarray:
        self._ensure_open()
        return self.predictor.thread_grid

    def predict(self, spec) -> int:
        """Thread choice for one spec (cache-backed, no execution)."""
        self._ensure_open()
        return self.predictor_for(spec).predict_threads(*_shape_key(spec))

    def predict_batch(self, specs) -> np.ndarray:
        """Thread choices for a spec stream, one model pass per routine's
        misses."""
        self._ensure_open()
        specs = list(specs)
        choices = np.empty(len(specs), dtype=np.int64)
        for predictor, indices in self._group_by_predictor(specs)[0].values():
            choices[indices] = predictor.predict_threads_batch(
                [_shape_key(specs[i]) for i in indices])
        return choices

    def _group_by_predictor(self, specs) -> tuple:
        """``(groups, routines)`` against a point-in-time snapshot of the
        predictor map: ``id(predictor) -> (predictor, [input indices])``
        in first-seen order, and each spec's routine name."""
        predictors = dict(self._predictors)
        default = predictors[self.routine]
        groups: dict = {}
        routines = []
        for i, spec in enumerate(specs):
            routine = routine_of(spec, self.routine)
            routines.append(routine)
            predictor = predictors.get(routine)
            if predictor is None:
                predictor = default
            groups.setdefault(id(predictor), (predictor, []))[1].append(i)
        return groups, routines

    # -- execution -------------------------------------------------------
    def _executor(self, routine: str):
        """What runs ``routine``'s calls, resolved once per routine: the
        backend, or for a non-GEMM routine on a machine simulator the
        :class:`~repro.blas.adapter.RoutineSimulator` oracle over it
        (work-fraction / roofline corrections applied)."""
        executor = self._executors.get(routine)
        if executor is None:
            executor = self.backend
            if routine != "gemm" and hasattr(executor, "cost_model"):
                from repro.blas.adapter import RoutineSimulator

                executor = RoutineSimulator(executor)
            self._executors[routine] = executor
        return executor

    def run(self, spec) -> GemmCallRecord:
        """Predict, execute and record one call."""
        self._ensure_open()
        # predictor_for(spec), keeping the routine for the count.  A
        # snapshot: a concurrent reload() swaps the predictor map entry,
        # but this call must finish on the artefacts it started with.
        routine = routine_of(spec, self.routine)
        predictor = self._predictors.get(routine)
        if predictor is None:
            predictor = self._predictors[self.routine]
        hits_before = predictor.cache.hits
        n_threads = predictor.predict_threads(*_shape_key(spec))
        memoised = predictor.cache.hits > hits_before
        runtime = self._executor(routine).timed_run(spec, n_threads,
                                                    repeats=self.repeats)
        self._requests[routine] = self._requests.get(routine, 0) + 1
        self.n_memoised += memoised
        return GemmCallRecord(spec, n_threads, runtime, memoised)

    def run_batch(self, specs) -> list:
        """Serve a stream of specs, amortising prediction across shapes.

        Duplicate shapes are predicted once; the ``memoised`` flag on a
        record is True when its prediction came from the cache or from
        an earlier occurrence in the same batch.  Records are returned
        in input order.  A mixed-routine stream is grouped per routine:
        each routine's predictor pays one vectorised model pass for its
        uncached shapes, and every choice is bitwise identical to
        serving that routine's sub-stream through a dedicated
        single-routine service.
        """
        self._ensure_open()
        specs = list(specs)
        if not specs:
            return []
        # Snapshot: the whole batch resolves against one predictor map
        # even if reload() swaps the service's artefacts mid-batch.
        choices = np.empty(len(specs), dtype=np.int64)
        memoised = [False] * len(specs)
        groups, routines = self._group_by_predictor(specs)
        for predictor, indices in groups.values():
            keys = [predictor.cache_key(specs[i]) for i in indices]
            fresh = {key for key in dict.fromkeys(keys)
                     if key not in predictor.cache}
            choices[indices] = predictor.predict_threads_batch(
                [key[1:] for key in keys])
            seen: set = set()
            for i, key in zip(indices, keys):
                memoised[i] = key not in fresh or key in seen
                seen.add(key)
        executor, repeats = self._executor, self.repeats
        records = [GemmCallRecord(spec, n_threads,
                                  executor(routine).timed_run(
                                      spec, n_threads, repeats=repeats),
                                  memo)
                   for spec, routine, n_threads, memo
                   in zip(specs, routines, choices.tolist(), memoised)]
        for routine in routines:
            self._requests[routine] = self._requests.get(routine, 0) + 1
        self.n_memoised += sum(memoised)
        self.n_batches += 1
        return records

    def run_baseline(self, spec, n_threads: int = None,
                     repeats: int = None) -> float:
        """Static-configuration runtime (default: the maximum grid entry)."""
        self._ensure_open()
        if n_threads is None:
            n_threads = int(self.predictor_for(spec).thread_grid.max())
        return self._executor(routine_of(spec, self.routine)).timed_run(
            spec, n_threads, repeats=self.repeats if repeats is None else repeats)

    # -- stats -----------------------------------------------------------
    def _tallies(self) -> tuple:
        """``(per routine, total)`` lifetime prediction counters.

        The predictors own the counts; this sums them on read.  A
        routine's row adds the predictors a reload retired from it to
        its live predictor, so no count goes down across a reload.  The
        total counts a predictor that serves several routines once.
        """
        predictors = {routine: p for routine, p in self._predictors.items()
                      if p is not None}
        per_routine = {}
        for routine, p in predictors.items():
            retired = self._retired.get(routine)
            per_routine[routine] = {
                key: getattr(p, attr) + (retired[key] if retired else 0)
                for key, attr in _COUNTERS.items()}
        total = dict.fromkeys(_COUNTERS, 0)
        for p in {id(p): p for p in predictors.values()}.values():
            for key, attr in _COUNTERS.items():
                total[key] += getattr(p, attr)
        for retired in self._retired.values():
            for key in _COUNTERS:
                total[key] += retired[key]
        return per_routine, total

    def metrics(self) -> Dict[str, float]:
        """Flat counter pull for a metrics-registry collector.

        The engine's counters plus sums over its handful of predictors,
        O(predictors) like :meth:`stats`; empty once the service is
        closed, so a scrape skips it.
        """
        if self._closed:
            return {}
        cache_hits = cache_misses = 0
        for p in {id(p): p for p in self._predictors.values()}.values():
            cache_hits += p.cache.hits
            cache_misses += p.cache.misses
        _, total = self._tallies()
        out = {
            "engine_requests": self.n_requests,
            "engine_batches": self.n_batches,
            "engine_evaluations": total["evaluations"],
            "engine_model_passes": total["model_passes"],
            "engine_cache_hits": cache_hits,
            "engine_cache_misses": cache_misses,
            "engine_reloads": self.bundle_generation,
        }
        if total["table_hits"] or total["table_fallbacks"]:
            out["engine_table_hits"] = total["table_hits"]
            out["engine_table_fallbacks"] = total["table_fallbacks"]
            if total["table_interpolated"]:
                out["engine_table_interpolated"] = total["table_interpolated"]
        return out

    def table_counters(self) -> dict:
        """Lifetime decision-table counters across every predictor.

        ``table_hits`` are predictions answered straight from a tier-0
        table (no model pass); ``table_fallbacks`` are cache misses
        that probed a table but fell off its lattice and took the
        plan/object path; ``table_interpolated`` is the sub-count of
        hits answered between lattice points.  Retired (hot-reloaded)
        predictors' counts are folded in, so the values are monotonic.
        O(predictors): ``GemmServer.stats()`` reads this per shard engine.
        """
        _, total = self._tallies()
        return {key: total[key] for key in _TABLE_KEYS}

    def routine_table_counters(self) -> Dict[str, dict]:
        """:meth:`table_counters` per routine, for the routines whose
        table answered or fell back; the same O(predictors) read.

        ``table_interpolated`` appears only when non-zero.
        """
        per_routine, _ = self._tallies()
        return {routine: _table_row(counts)
                for routine, counts in per_routine.items()
                if counts["table_hits"] or counts["table_fallbacks"]}

    @property
    def n_requests(self) -> int:
        """Calls served: the sum of the per-routine counts."""
        return sum(self._requests.values())

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of served calls whose prediction was cached."""
        return self.n_memoised / max(self.n_requests, 1)

    def stats(self) -> dict:
        """Counter-derived serving statistics, O(predictors).

        Prediction counters (``evaluations``, ``model_passes``, the
        table counts), in total and per routine, stay monotonic across
        hot-reloads: counters of retired predictors are folded in.
        Cache counters aggregate every routine's predictor; the
        ``routines`` entry breaks requests, evaluations and cache
        effectiveness down per routine with a predictor of its own.
        """
        self._ensure_open()
        predictors = dict(self._predictors)
        live = {id(p): p for p in predictors.values()}.values()
        per_routine, total = self._tallies()
        cache_stats = {"size": 0, "maxsize": 0,
                       "hits": 0, "misses": 0, "evictions": 0}
        for p in live:
            for field, value in p.cache.stats().items():
                if field in cache_stats:
                    cache_stats[field] += value
        lookups = cache_stats["hits"] + cache_stats["misses"]
        cache_stats["hit_rate"] = round(
            cache_stats["hits"] / lookups, 4) if lookups else 0.0
        stats = {
            "requests": self.n_requests,
            "batches": self.n_batches,
            "evaluations": total["evaluations"],
            "model_passes": total["model_passes"],
            "memo_hit_rate": round(self.memo_hit_rate, 4),
            "reloads": self.bundle_generation,
            "bundle_generation": self.bundle_generation,
            **{f"cache_{k}": v for k, v in cache_stats.items()},
        }
        if any(p.table is not None for p in live) \
                or any(r["table_hits"] or r["table_fallbacks"]
                       for r in self._retired.values()):
            stats.update({key: total[key] for key in _TABLE_KEYS})
        if len(predictors) > 1 or self.routine_info:
            stats["routines"] = {
                name: {
                    "requests": self._requests.get(name, 0),
                    "evaluations": per_routine[name]["evaluations"],
                    "model_passes": per_routine[name]["model_passes"],
                    **(_table_row(per_routine[name])
                       if predictor.table is not None else {}),
                    **{f"cache_{k}": v
                       for k, v in predictor.cache.stats().items()},
                    **self.routine_info.get(name, {}),
                }
                for name, predictor in predictors.items()}
        if self.bundle_info:
            stats["model_name"] = self.bundle_info.get("model_name", "")
        return stats

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the models (paper: destroy the instance after last call)."""
        self._predictors = {self.routine: None}
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("GemmService instance has been closed")

    def __enter__(self) -> "GemmService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
