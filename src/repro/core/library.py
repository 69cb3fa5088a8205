"""The ADSALA runtime library (paper Fig. 3), routine-generic.

:class:`AdsalaRuntime` is the class a user program instantiates: it
loads the config file and trained model(s) produced at installation,
then every BLAS call — GEMM, GEMV, TRSM or SYRK — predicts the optimal
thread count on-the-fly and dispatches to the underlying implementation
with that team size.  The runtime is keyed by *routine*, not welded to
GEMM: the bundle's ``config.routine`` tag picks its default routine,
:meth:`register_routine` adds further per-routine models, and
:meth:`from_registry` assembles a mixed-routine runtime from a model
registry in one call.

:class:`AdsalaGemm` remains as the GEMM-specific thin alias with the
paper-era convenience API (``predict_threads(m, k, n)``, ``gemm(...)``)
— existing callers are untouched.

Both are facades over :class:`repro.engine.service.GemmService`:
prediction goes through the engine's
:class:`~repro.engine.cache.PredictionCache` (a real LRU rather than
the paper's single-shape memo, keyed ``(routine, m, k, n)``), execution
goes through an :class:`~repro.engine.backend.ExecutionBackend` per
routine, and batch callers reach the vectorised prediction path via
:meth:`run_batch`.  Repeated calls with the same dimensions reuse
cached predictions, and the instance is a context manager so "the class
instance holding the ML model can be safely destroyed to free the
memory space".
"""

from __future__ import annotations

from repro.core.routines import routine_of
from repro.core.serialize import load_bundle
from repro.engine.backend import as_backend
from repro.engine.service import GemmCallRecord, GemmService
from repro.gemm.interface import GemmSpec
from repro.machine.simulator import MachineSimulator

__all__ = ["AdsalaRuntime", "AdsalaGemm", "GemmCallRecord"]


class AdsalaRuntime:
    """Routine-generic ML-thread-selected BLAS front end.

    Parameters
    ----------
    bundle:
        A :class:`~repro.core.training.TrainedBundle` (or use
        :meth:`from_directory` to load saved artefacts).  Its
        ``config.routine`` tag decides which routine this bundle
        serves — a GEMV installation makes a GEMV runtime.
    machine:
        Execution backend.  A :class:`MachineSimulator` executes
        simulated calls (non-GEMM routines are served through the
        :class:`~repro.blas.adapter.RoutineSimulator` oracle
        automatically); any object with a compatible
        ``timed_run(spec, n_threads, repeats)`` also works (e.g.
        :class:`repro.engine.backend.ParallelExecutionBackend` for real
        GEMM execution), and a full
        :class:`~repro.engine.backend.BackendDispatcher` can be reached
        through :attr:`service`.
    repeats:
        Timing-loop repetitions per dispatched call.
    cache_size:
        LRU prediction-cache entries (pass 1 for the paper's literal
        last-call memo).
    """

    def __init__(self, bundle, machine, repeats: int = 1,
                 cache_size: int = 64):
        self.bundle = bundle
        self.machine = machine
        self.repeats = repeats
        routine = bundle.config.routine
        grid = bundle.config.thread_grid
        self.service = GemmService(
            bundle.predictor(cache_size=cache_size, compiled=True),
            backend=as_backend(machine, thread_grid=grid),
            repeats=repeats)
        # On a simulator, a non-GEMM bundle's routine executes through
        # the RoutineSimulator oracle; other traffic keeps the native
        # backend.
        self.service._wire_routine_backend(routine, grid)
        self._cache_size = cache_size
        self._closed = False

    @classmethod
    def from_directory(cls, directory, machine, repeats: int = 1,
                       cache_size: int = 64) -> "AdsalaRuntime":
        """Load the installation artefacts saved by ``save_bundle``."""
        return cls(load_bundle(directory), machine, repeats=repeats,
                   cache_size=cache_size)

    @classmethod
    def from_registry(cls, registry, machine, machine_name: str = None,
                      routines=None, repeats: int = 1,
                      cache_size: int = 256) -> "AdsalaRuntime":
        """A mixed-routine runtime straight from a model registry.

        Every requested routine (default: all published for the
        machine) gets its own predictor and execution adapter inside
        one service; the returned runtime answers any registered
        routine's specs.
        """
        runtime = cls.__new__(cls)
        runtime.machine = machine
        runtime.repeats = repeats
        runtime.service = GemmService.from_registry(
            registry, machine, machine_name=machine_name, routines=routines,
            repeats=repeats, cache_size=cache_size)
        runtime.bundle = None
        runtime._cache_size = cache_size
        runtime._closed = False
        return runtime

    # ------------------------------------------------------------------
    def register_routine(self, bundle, routine: str = None,
                         backend=None) -> "AdsalaRuntime":
        """Serve another routine's traffic with its own trained bundle.

        ``routine`` defaults to the bundle's ``config.routine`` tag;
        ``backend`` defaults to the routine oracle over this runtime's
        machine (simulators) or the runtime's default backend.
        Returns self for chaining.
        """
        self._ensure_open()
        routine = routine or bundle.config.routine
        self.service.register_routine(routine, bundle=bundle,
                                      backend=backend,
                                      cache_size=self._cache_size)
        return self

    @property
    def routines(self) -> tuple:
        """Routine names this runtime serves with a dedicated model."""
        return tuple(self.service.predictors)

    # ------------------------------------------------------------------
    @property
    def _predictor(self):
        return self.service.predictor

    @property
    def history(self) -> list:
        return self.service.history

    @property
    def thread_grid(self):
        return self.service.thread_grid

    def predict(self, spec) -> int:
        """The model's thread choice for a routine spec (no execution)."""
        self._ensure_open()
        return self.service.predict(spec)

    def run(self, spec) -> GemmCallRecord:
        """Predict the thread count and execute the routine call."""
        self._ensure_open()
        return self.service.run(spec)

    def run_batch(self, specs) -> list:
        """Serve a stream of specs through the engine's batched path.

        Prediction cost is amortised per routine: unique uncached
        shapes share one vectorised model evaluation per routine.
        Returns records in input order.
        """
        self._ensure_open()
        return self.service.run_batch(specs)

    def run_baseline(self, spec, n_threads: int = None) -> float:
        """Traditional routine runtime (default: the maximum thread count)."""
        self._ensure_open()
        return self.service.run_baseline(spec, n_threads=n_threads)

    def speedup_over_baseline(self, spec) -> float:
        """Measured ``t_baseline / t_adsala`` for one problem."""
        record = self.run(spec)
        baseline = self.run_baseline(spec)
        return baseline / record.runtime

    def routine_of(self, spec) -> str:
        """Which routine's model would answer this spec."""
        return routine_of(spec)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the models (paper: destroy the instance after last call)."""
        self.service.close()
        self.bundle = None
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} instance has been closed")

    def __enter__(self) -> "AdsalaRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- stats -----------------------------------------------------------
    @property
    def memo_hit_rate(self) -> float:
        """Fraction of calls answered from a cached prediction."""
        return self.service.memo_hit_rate

    @property
    def cache_stats(self) -> dict:
        """Engine serving statistics (cache hits/misses/evictions, ...)."""
        return self.service.stats()


class AdsalaGemm(AdsalaRuntime):
    """GEMM front end — the paper's original API, kept verbatim.

    A thin alias over :class:`AdsalaRuntime` whose convenience methods
    speak ``(m, k, n)`` triples; everything else (engine service,
    caching, batching, lifecycle) is inherited.
    """

    def __init__(self, bundle, machine: MachineSimulator, repeats: int = 1,
                 cache_size: int = 64):
        super().__init__(bundle, machine, repeats=repeats,
                         cache_size=cache_size)

    def predict_threads(self, m: int, k: int, n: int) -> int:
        """The model's thread choice for a shape (no execution)."""
        self._ensure_open()
        return self.service.predict((m, k, n))

    def gemm(self, m: int, k: int, n: int, dtype: str = "float32") -> GemmCallRecord:
        """Convenience wrapper building the spec inline."""
        return self.run(GemmSpec(m=m, k=k, n=n, dtype=dtype))

    def run_baseline(self, spec: GemmSpec, n_threads: int = None) -> float:
        """Traditional GEMM runtime (default: the maximum thread count)."""
        return super().run_baseline(spec, n_threads=n_threads)
