"""The replay backend returns exactly what the simulator would."""

import numpy as np
import pytest

from perfbench.prepare import GADI_GRID, MACHINE, _replay_times
from perfbench.replay import ReplayBackend, worker_backend
from repro.engine.backend import as_backend
from repro.fleet.spec import WorkerSpec, resolve_factory
from repro.gemm.interface import GemmSpec
from repro.machine.presets import by_name
from repro.machine.simulator import MachineSimulator

DIMS = np.asarray([(1, 1, 1), (64, 512, 64), (700, 33, 1200),
                   (4096, 4096, 16), (25, 9000, 301)], dtype=np.int64)


@pytest.fixture(scope="module")
def backend():
    return ReplayBackend(DIMS, GADI_GRID, _replay_times(DIMS, GADI_GRID))


def test_replay_equals_timed_run_of_the_fleet_machine(backend):
    # The machine a fleet worker builds for the "gadi" preset, queried
    # in a different order than the table was filled.
    machine = WorkerSpec(name="w", registry_root="unused",
                         machine=MACHINE).build_machine()
    rng = np.random.default_rng(0)
    pairs = [(tuple(DIMS[i]), GADI_GRID[j])
             for i, j in zip(rng.integers(0, len(DIMS), 40),
                             rng.integers(0, len(GADI_GRID), 40))]
    for dims, threads in pairs:
        spec = GemmSpec(*dims)
        assert backend.timed_run(spec, threads) == \
            machine.timed_run(spec, threads, repeats=1)


def test_engine_adapter_passes_values_through(backend):
    adapted = as_backend(backend, thread_grid=GADI_GRID)
    simulator = MachineSimulator(by_name(MACHINE), seed=0)
    spec = GemmSpec(700, 33, 1200)
    for threads in GADI_GRID:
        assert adapted.timed_run(spec, threads) == \
            simulator.timed_run(spec, threads, repeats=1)


def test_unknown_shape_raises(backend):
    with pytest.raises(KeyError):
        backend.timed_run(GemmSpec(3, 3, 3), 1)


def test_worker_factory_resolves_and_loads(tmp_path, backend):
    path = tmp_path / "universe.npz"
    np.savez(path, dims=DIMS, grid=np.asarray(GADI_GRID),
             times=_replay_times(DIMS, GADI_GRID))
    spec = WorkerSpec(name="w", registry_root=str(tmp_path), machine=MACHINE,
                      backend="perfbench.replay:worker_backend",
                      backend_args=(("path", str(path)),)).validate()
    assert resolve_factory(spec.backend) is worker_backend
    loaded = spec.build_backend()
    probe = GemmSpec(64, 512, 64)
    assert loaded.timed_run(probe, 8) == backend.timed_run(probe, 8)
