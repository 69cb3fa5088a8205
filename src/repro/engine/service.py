"""The request layer: deduplicated, batch-predicted routine serving.

:class:`GemmService` is what the runtime library became once prediction,
caching and execution were pulled apart: it accepts a stream of specs,
groups them by shape, answers cached shapes from the
:class:`~repro.engine.cache.PredictionCache`, pushes all remaining
shapes through the predictor in **one** vectorised pipeline/model pass
(:meth:`~repro.core.predictor.ThreadPredictor.predict_threads_batch`),
dispatches each call to its :class:`~repro.engine.backend.ExecutionBackend`,
and returns per-call :class:`GemmCallRecord` bookkeeping.

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

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.routines import routine_of
from repro.engine.backend import BackendDispatcher, ExecutionBackend, as_backend
from repro.engine.cache import routine_key as _routine_key
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

    @property
    def routine(self) -> str:
        return routine_of(self.spec)


def _table_row(counts: dict) -> dict:
    """The decision-table keys of a counter row; ``table_interpolated``
    only when non-zero."""
    row = {"table_hits": counts["table_hits"],
           "table_fallbacks": counts["table_fallbacks"]}
    if counts["table_interpolated"]:
        row["table_interpolated"] = counts["table_interpolated"]
    return row


class GemmService:
    """Multi-backend, multi-routine execution engine with vectorised
    thread prediction.

    Parameters
    ----------
    predictor:
        A fitted :class:`~repro.core.predictor.ThreadPredictor` for the
        service's *default* routine (the predictor's own ``routine``
        attribute, "gemm" historically); its cache is that routine's
        prediction cache.  Further routines join via
        :meth:`register_routine`.
    backend:
        Default :class:`ExecutionBackend` (anything with ``timed_run``
        is coerced via :func:`as_backend`).  Mutually exclusive with
        ``dispatcher``.
    dispatcher:
        A pre-built :class:`BackendDispatcher` for mixed routine
        streams (GEMM + GEMV/SYRK/TRSM).
    repeats:
        Timing-loop repetitions per dispatched call.
    refine:
        Opt-in online refinement of thread choices: ``True`` builds an
        :class:`~repro.core.online.OnlineRefiner` over ``predictor``, or
        pass a pre-configured refiner (it must share this service's
        predictor).  Every dispatched runtime is fed back, so choices
        converge to the locally optimal grid point even where the model
        mispredicts — at the cost of bounded exploration, which makes
        choices measurement-dependent (leave off when bitwise replay
        determinism matters, e.g. under :class:`repro.serve.GemmServer`
        parity checks).  Refiner statistics key on
        ``(routine, m, k, n)``, so mixed-routine feedback never
        cross-contaminates.
    """

    def __init__(self, predictor, backend=None, dispatcher: BackendDispatcher = None,
                 repeats: int = 1, refine=None):
        if dispatcher is None:
            if backend is None:
                raise ValueError("provide a backend or a dispatcher")
            dispatcher = BackendDispatcher.for_backend(as_backend(backend))
        elif backend is not None:
            raise ValueError("backend and dispatcher are mutually exclusive")
        self.routine = getattr(predictor, "routine", "gemm")
        self._predictors = {self.routine: predictor}
        self.dispatcher = dispatcher
        self.repeats = repeats
        self.refiner = None
        if refine:
            from repro.core.online import OnlineRefiner

            self.refiner = refine if isinstance(refine, OnlineRefiner) \
                else OnlineRefiner(predictor)
            if self.refiner.predictor is not predictor:
                raise ValueError(
                    "refine must wrap this service's own predictor")
        self.history: list = []
        self.n_requests: int = 0
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
                    cache_size: int = 256, refine=None,
                    backend=None) -> "GemmService":
        """Service over installation artefacts and a machine-like object.

        The candidate grid is the installed one clamped to the
        execution machine's capacity, so artefacts trained on a bigger
        node still serve (predicting only feasible team sizes) when
        dispatched to a smaller one.

        The predictor takes the compiled fast path: its plan is
        lowered from the bundle's pipeline and model here, and thread
        choices are bitwise identical to the object path.  The bundle's
        ``config.routine`` tag makes the service's default routine,
        so a GEMV installation serves GEMV traffic directly: on a
        machine simulator, the routine's execution is routed through
        the :class:`~repro.blas.adapter.RoutineSimulator` oracle
        (work-fraction / roofline corrections applied), while GEMM
        traffic keeps the native backend.

        ``backend`` substitutes the default execution backend while the
        *prediction* artefacts (grid clamping included) still derive
        from ``machine`` — the fleet benchmark serves registry bundles
        against a synthetic CPU-bound backend this way.
        """
        max_threads = getattr(machine, "max_threads", None)
        machine_max = max_threads() if callable(max_threads) else None
        grid = cls._clamped_grid(bundle, machine_max)
        execution = as_backend(machine if backend is None else backend,
                               thread_grid=grid)
        service = cls(bundle.predictor(cache_size=cache_size,
                                       thread_grid=grid, compiled=True),
                      backend=execution,
                      repeats=repeats, refine=refine)
        service._wire_routine_backend(service.routine, grid)
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
        and registers the rest — each with its own predictor and, for
        non-GEMM routines, a
        :class:`~repro.engine.backend.RoutineBackend` over a shared
        :class:`~repro.blas.adapter.RoutineSimulator` on ``machine``.
        ``machine`` must therefore be a machine *simulator* when any
        non-GEMM routine is requested — unless ``backend`` overrides
        execution entirely, in which case every routine (GEMM
        included) dispatches to the override and no simulator wiring
        happens.
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

    def _wire_routine_backend(self, routine: str, thread_grid) -> None:
        """Default execution wiring for a non-GEMM routine.

        When the default backend wraps a machine *simulator* and the
        routine has no route yet, its calls go through the
        :class:`~repro.blas.adapter.RoutineSimulator` oracle
        (work-fraction / roofline corrections applied).  Callers can
        always register an explicit backend instead; non-simulator
        machines are left to the default backend's own duck typing.
        """
        if routine == "gemm" or self.dispatcher.has_routine_route(routine):
            return
        machine = getattr(self.dispatcher.default, "machine", None)
        if machine is None or not hasattr(machine, "cost_model"):
            return
        from repro.blas.adapter import RoutineSimulator

        self.dispatcher.register_routine(
            routine, RoutineSimulator(machine).backend(thread_grid))

    def register_routine(self, routine: str, bundle=None, predictor=None,
                         backend=None, cache_size: int = 256) -> "GemmService":
        """Serve ``routine`` specs with their own predictor (and backend).

        Pass either a trained ``bundle`` (a predictor is built from it,
        compiled path, grid clamped to the machine exactly like
        :meth:`from_bundle`) or a ready ``predictor``.  ``backend``
        routes the routine's *execution* as well — equivalent to
        :meth:`register_backend` with the routine's spec type; when
        omitted, a non-GEMM routine on a simulator default backend is
        wired through the routine oracle automatically
        (:meth:`_wire_routine_backend`).  Returns self for chaining.
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
        if backend is not None:
            self.dispatcher.register_routine(routine, as_backend(backend))
        else:
            self._wire_routine_backend(routine, predictor.thread_grid)
        if self.refiner is not None:
            self.refiner.register_predictor(routine, predictor)
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
        new_refiner = None
        if self.refiner is not None:
            from repro.core.online import OnlineRefiner

            predictors = dict(self._predictors)
            predictors[routine] = predictor
            default = predictors[self.routine]
            new_refiner = OnlineRefiner(
                default, explore_prob=self.refiner.explore_prob,
                min_trials=self.refiner.min_trials)
            for name, pred in predictors.items():
                new_refiner.register_predictor(name, pred)
            # Only the reloaded routine's measurements were taken under
            # the retired model; every other routine keeps its
            # accumulated refinement statistics.
            new_refiner._shapes = {
                key: state for key, state in self.refiner._shapes.items()
                if key[0] != routine}
        # Everything new is fully built before anything is published, and
        # the predictor is published *first*: a concurrent run() snapshot
        # taken mid-reload can pair the new predictor with the old
        # refiner (whose choices still come from its own old predictor —
        # never the other way round, which would serve the new bundle
        # before the swap).  stats() raced against the counter fold may
        # transiently under-report the retired predictor's counts.
        self._predictors[routine] = predictor  # atomic: in-flight hold old
        if new_refiner is not None:
            self.refiner = new_refiner
        if old is not None:
            retired = self._retired.setdefault(routine,
                                               dict.fromkeys(_COUNTERS, 0))
            for key, attr in _COUNTERS.items():
                retired[key] += getattr(old, attr)
        else:
            # reload() can install a routine the service never served;
            # give it the same default execution wiring registration
            # would have.
            self._wire_routine_backend(routine, grid)
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
        return self.predictor.cache

    @property
    def thread_grid(self) -> np.ndarray:
        return self.predictor.thread_grid

    def register_backend(self, spec_type: type, backend) -> "GemmService":
        """Route ``spec_type`` calls to another backend; returns self."""
        self.dispatcher.register(spec_type, as_backend(backend))
        return self

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
        for predictor, indices in self._group_by_predictor(specs).values():
            choices[indices] = predictor.predict_threads_batch(
                [_shape_key(specs[i]) for i in indices])
        return choices

    def _group_by_predictor(self, specs) -> dict:
        """``id(predictor) -> (predictor, [input indices])``, first-seen
        order, against a point-in-time snapshot of the predictor map."""
        predictors = dict(self._predictors)
        default = predictors[self.routine]
        groups: dict = {}
        for i, spec in enumerate(specs):
            predictor = predictors.get(routine_of(spec, self.routine))
            if predictor is None:
                predictor = default
            groups.setdefault(id(predictor), (predictor, []))[1].append(i)
        return groups

    # -- execution -------------------------------------------------------
    def run(self, spec) -> GemmCallRecord:
        """Predict (or refine), dispatch and record one call."""
        self._ensure_open()
        # Snapshot: a concurrent reload() swaps the predictor map entry,
        # but this call must finish entirely on the artefacts it started
        # with.
        predictor, refiner = self.predictor_for(spec), self.refiner
        hits_before = predictor.cache.hits
        if refiner is not None:
            rkey = _routine_key(spec)
            n_threads = int(refiner.choose_threads(*rkey[1:],
                                                   routine=rkey[0]))
        else:
            n_threads = predictor.predict_threads(*_shape_key(spec))
        record = self._dispatch(spec, n_threads,
                                memoised=predictor.cache.hits > hits_before)
        if refiner is not None:
            refiner.record(*rkey[1:], record.n_threads, record.runtime,
                           routine=rkey[0])
        self.n_requests += 1
        return record

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

        With ``refine`` on, the batch still pays one vectorised model
        pass for all uncached shapes (seeding the refiner's priors),
        after which the refiner may substitute a measured-better or
        exploratory neighbour per call.
        """
        self._ensure_open()
        specs = list(specs)
        if not specs:
            return []
        # Snapshot: the whole batch resolves against one predictor map
        # even if reload() swaps the service's artefacts mid-dispatch.
        refiner = self.refiner
        choices = np.empty(len(specs), dtype=np.int64)
        memoised = [False] * len(specs)
        for predictor, indices in self._group_by_predictor(specs).values():
            keys = [predictor.cache_key(specs[i]) for i in indices]
            fresh = {key for key in dict.fromkeys(keys)
                     if key not in predictor.cache}
            choices[indices] = predictor.predict_threads_batch(
                [key[1:] for key in keys])
            seen: set = set()
            for i, key in zip(indices, keys):
                memoised[i] = key not in fresh or key in seen
                seen.add(key)
        records = []
        for spec, n_threads, memo in zip(specs, choices, memoised):
            if refiner is not None:
                rkey = _routine_key(spec)
                n_threads = refiner.choose_threads(*rkey[1:],
                                                   routine=rkey[0])
            record = self._dispatch(spec, int(n_threads), memoised=memo)
            if refiner is not None:
                refiner.record(*rkey[1:], record.n_threads, record.runtime,
                               routine=rkey[0])
            records.append(record)
        self.n_requests += len(specs)
        self.n_batches += 1
        return records

    def run_baseline(self, spec, n_threads: int = None,
                     repeats: int = None) -> float:
        """Static-configuration runtime (default: the maximum grid entry)."""
        self._ensure_open()
        if n_threads is None:
            n_threads = int(self.predictor_for(spec).thread_grid.max())
        return self.dispatcher.timed_run(
            spec, n_threads, repeats=self.repeats if repeats is None else repeats)

    def _dispatch(self, spec, n_threads: int, memoised: bool) -> GemmCallRecord:
        runtime = self.dispatcher.timed_run(spec, n_threads,
                                            repeats=self.repeats)
        record = GemmCallRecord(spec=spec, n_threads=n_threads,
                                runtime=runtime, memoised=memoised)
        self.history.append(record)
        return record

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

        Cheap by construction — counter sums over the handful of live
        predictors, never a walk of ``history`` (unlike the fuller
        :meth:`stats`), so registry snapshots stay O(1) per service.
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
        O(predictors): drift monitors read this after every batch.
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
    def memo_hit_rate(self) -> float:
        """Fraction of served calls whose prediction was cached."""
        if not self.history:
            return 0.0
        return sum(r.memoised for r in self.history) / len(self.history)

    def stats(self) -> dict:
        """History- and cache-derived serving statistics.

        Prediction counters (``evaluations``, ``model_passes``, the
        table counts), in total and per routine, stay monotonic across
        hot-reloads: counters of retired predictors are folded in.
        Cache counters aggregate every routine's predictor; the
        ``routines`` entry breaks requests, evaluations and cache
        effectiveness down per routine.
        """
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
            "unique_shapes": len({_routine_key(r.spec)
                                  for r in self.history}),
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
            requests = Counter(r.routine for r in self.history)
            stats["routines"] = {
                name: {
                    "requests": requests.get(name, 0),
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
        if self.refiner is not None:
            stats["refine_explorations"] = self.refiner.n_explorations
        return stats

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the models (paper: destroy the instance after last call)."""
        self._predictors = {self.routine: None}
        self.refiner = None
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("GemmService instance has been closed")

    def __enter__(self) -> "GemmService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
