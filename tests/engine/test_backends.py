"""ExecutionBackend protocol conformance and adapter behaviour."""

import numpy as np
import pytest

from repro.bench.loadgen import CpuBoundBackend
from repro.blas.adapter import RoutineSimulator
from repro.blas.syrk import SyrkSpec
from repro.engine.backend import (BackendDispatcher, ExecutionBackend,
                                  ParallelExecutionBackend, RoutineBackend,
                                  SimulatorBackend, TimedRunBackend,
                                  as_backend)
from repro.gemm.interface import GemmSpec
from repro.machine.host import HostMachine

GRID = [1, 2, 4, 8, 12, 16]


class TestAdapters:
    def test_simulator_backend_conforms(self, tiny_sim):
        backend = as_backend(tiny_sim, GRID)
        assert isinstance(backend, SimulatorBackend)
        assert isinstance(backend, ExecutionBackend)
        np.testing.assert_array_equal(backend.thread_grid, GRID)
        assert backend.name == "tiny"

    def test_simulator_backend_times_match(self, tiny_sim):
        backend = tiny_sim.backend(GRID)
        spec = GemmSpec(64, 64, 64)
        assert backend.timed_run(spec, 4, repeats=3) == pytest.approx(
            tiny_sim.timed_run(spec, 4, repeats=3))
        assert backend.true_time(spec, 4) == pytest.approx(
            tiny_sim.true_time(spec, 4))

    def test_routine_backend_conforms(self, tiny_sim):
        oracle = RoutineSimulator(tiny_sim)
        backend = as_backend(oracle, GRID)
        assert isinstance(backend, RoutineBackend)
        assert isinstance(backend, ExecutionBackend)
        assert backend.timed_run(SyrkSpec(n=64, k=32), 4, repeats=2) > 0

    def test_host_machine_wraps_generically(self):
        host = HostMachine(max_threads=4)
        backend = as_backend(host, [1, 2, 4])
        assert type(backend) is TimedRunBackend
        assert backend.timed_run(GemmSpec(16, 16, 16), 2, repeats=1) > 0

    def test_grid_derived_from_machine_when_omitted(self, tiny_sim):
        backend = as_backend(tiny_sim)
        assert backend.thread_grid.max() <= tiny_sim.max_threads()
        assert 1 in backend.thread_grid

    def test_existing_backend_passes_through(self, tiny_sim):
        backend = tiny_sim.backend(GRID)
        assert as_backend(backend) is backend

    def test_regrid_rewraps(self, tiny_sim):
        backend = tiny_sim.backend(GRID)
        regridded = as_backend(backend, [1, 2])
        assert regridded is not backend
        np.testing.assert_array_equal(regridded.thread_grid, [1, 2])

    def test_rejects_objects_without_timed_run(self):
        with pytest.raises(TypeError):
            as_backend(object())

    def test_grid_validation(self, tiny_sim):
        with pytest.raises(ValueError):
            as_backend(tiny_sim, [])
        with pytest.raises(ValueError):
            as_backend(tiny_sim, [0, 2])


class TestParallelExecutionBackend:
    def test_real_execution(self):
        backend = ParallelExecutionBackend(thread_grid=[1, 2], max_threads=2)
        assert isinstance(backend, ExecutionBackend)
        spec = GemmSpec(24, 24, 24)
        t = backend.timed_run(spec, 2, repeats=1)
        assert t > 0
        # Operands cached between calls (timing, not allocation).
        a1 = backend.pool.operands(spec)[0]
        backend.timed_run(spec, 1, repeats=1)
        assert backend.pool.operands(spec)[0] is a1
        backend.release()
        assert spec.key() not in backend.pool._operands

    def test_thread_range_enforced(self):
        backend = ParallelExecutionBackend(thread_grid=[1, 2], max_threads=2)
        with pytest.raises(ValueError):
            backend.timed_run(GemmSpec(8, 8, 8), 64, repeats=1)


class TestDispatcher:
    def test_mro_routing(self, tiny_sim):
        base = tiny_sim.backend(GRID)
        other = tiny_sim.backend([1, 2])
        dispatcher = BackendDispatcher(default=base)
        dispatcher.register(SyrkSpec, other)
        assert dispatcher.backend_for(SyrkSpec(n=8, k=8)) is other
        assert dispatcher.backend_for(GemmSpec(8, 8, 8)) is base

    def test_no_route_raises(self):
        with pytest.raises(TypeError):
            BackendDispatcher().backend_for(GemmSpec(8, 8, 8))

    def test_register_validates_type(self, tiny_sim):
        with pytest.raises(TypeError):
            BackendDispatcher().register("SyrkSpec", tiny_sim.backend(GRID))

    def test_backends_listing(self, tiny_sim):
        base = tiny_sim.backend(GRID)
        other = tiny_sim.backend([1, 2])
        dispatcher = BackendDispatcher(default=base)
        dispatcher.register(SyrkSpec, other).register(GemmSpec, other)
        assert dispatcher.backends == [base, other]


class TestBlockingDeclarations:
    """``blocking`` marks the backends whose ``timed_run`` waits with
    the GIL released; a missing attribute means ``False``."""

    def test_waiting_backends_declare_blocking(self):
        assert ParallelExecutionBackend(thread_grid=[1], max_threads=1) \
            .blocking is True
        assert as_backend(HostMachine(max_threads=2)).blocking is True
        sleeper = CpuBoundBackend(iters=1, sleep_s=0.001)
        assert sleeper.blocking is True
        assert as_backend(sleeper, GRID).blocking is True  # rewrapped

    def test_computing_backends_do_not(self, tiny_sim):
        assert tiny_sim.backend(GRID).blocking is False
        assert as_backend(RoutineSimulator(tiny_sim), GRID).blocking is False
        spinner = CpuBoundBackend(iters=1, sleep_s=0)
        assert spinner.blocking is False
        assert as_backend(spinner, GRID).blocking is False

    def test_bare_timed_run_object_does_not(self):
        class Bare:
            def timed_run(self, spec, n_threads, repeats=1):
                return 1.0

        bare = as_backend(Bare(), GRID)
        assert type(bare) is TimedRunBackend
        assert isinstance(bare, ExecutionBackend)
        assert bare.blocking is False

    def test_dispatcher_blocks_if_any_route_does(self, tiny_sim):
        dispatcher = BackendDispatcher(default=tiny_sim.backend(GRID))
        dispatcher.register(SyrkSpec, tiny_sim.backend([1, 2]))
        assert dispatcher.blocking is False
        dispatcher.register_routine(
            "gemv", CpuBoundBackend(iters=1, sleep_s=0.001))
        assert dispatcher.blocking is True
        assert BackendDispatcher().blocking is False
