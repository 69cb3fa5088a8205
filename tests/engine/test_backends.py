"""ExecutionBackend protocol conformance and ``blocking`` declarations."""

import pytest

from repro.bench.loadgen import CpuBoundBackend
from repro.blas.adapter import RoutineSimulator
from repro.blas.syrk import SyrkSpec
from repro.core.features import FeatureBuilder
from repro.core.predictor import ThreadPredictor
from repro.engine import GemmService
from repro.engine.backend import ExecutionBackend, as_backend
from repro.machine.host import HostMachine

GRID = [1, 2, 4, 8, 12, 16]


class TestAdapters:
    def test_simulator_backend_conforms(self, tiny_sim):
        assert isinstance(tiny_sim, ExecutionBackend)

    def test_routine_backend_conforms(self, tiny_sim):
        oracle = RoutineSimulator(tiny_sim)
        assert isinstance(oracle, ExecutionBackend)
        assert oracle.timed_run(SyrkSpec(n=64, k=32), 4, repeats=2) > 0

    def test_existing_backend_passes_through(self, tiny_sim):
        assert as_backend(tiny_sim) is tiny_sim
        # The grid is the predictor's; as_backend ignores it.
        assert as_backend(tiny_sim, GRID) is tiny_sim

    def test_rejects_objects_without_timed_run(self):
        with pytest.raises(TypeError):
            as_backend(object())


class TestBlockingDeclarations:
    """``blocking`` marks the backends whose ``timed_run`` waits with
    the GIL released; a missing attribute means ``False``."""

    def test_waiting_backends_declare_blocking(self):
        assert HostMachine(max_threads=2).blocking is True
        assert CpuBoundBackend(iters=1, sleep_s=0.001).blocking is True

    def test_computing_backends_do_not(self, tiny_sim):
        assert not getattr(tiny_sim, "blocking", False)
        assert not getattr(RoutineSimulator(tiny_sim), "blocking", False)
        assert CpuBoundBackend(iters=1, sleep_s=0).blocking is False

    def test_bare_timed_run_object_does_not(self):
        class Bare:
            def timed_run(self, spec, n_threads, repeats=1):
                return 1.0

        bare = Bare()
        assert as_backend(bare) is bare
        assert isinstance(bare, ExecutionBackend)
        assert not hasattr(bare, "blocking")

    @pytest.mark.parametrize("make, blocking", [
        (lambda sim: sim, False),
        (lambda sim: CpuBoundBackend(iters=1, sleep_s=0), False),
        (lambda sim: CpuBoundBackend(iters=1, sleep_s=0.001), True),
        (lambda sim: HostMachine(max_threads=2), True),
    ], ids=["simulator", "spin", "sleep", "host"])
    def test_service_takes_its_backends_declaration(self, tiny_sim, make,
                                                    blocking):
        predictor = ThreadPredictor(FeatureBuilder("both"), None, None, GRID)
        assert GemmService(predictor, make(tiny_sim)).blocking is blocking
