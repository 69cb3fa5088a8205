"""GemmService hot-reload: atomic swap, counters, grid clamping."""

import numpy as np
import pytest

from repro.core.config import AdsalaConfig
from repro.core.training import TrainedBundle
from repro.engine.service import GemmService
from repro.gemm.interface import GemmSpec

GRID = [1, 2, 4, 8, 12, 16]


class OracleModel:
    """Scores ``|n_threads - target|``: argmin is always ``target``."""

    def __init__(self, target: int = 8):
        self.target = target

    def predict(self, X):
        return np.abs(X[:, 3] - self.target)


def oracle_bundle(target: int, grid=GRID, machine: str = "tiny"):
    return TrainedBundle(
        config=AdsalaConfig(machine=machine, thread_grid=list(grid),
                            model_name=f"oracle-{target}"),
        pipeline=None, model=OracleModel(target))


@pytest.fixture
def service(tiny_sim):
    return GemmService.from_bundle(oracle_bundle(8), tiny_sim,
                                   cache_size=32)


class TestReload:
    def test_swaps_predictions(self, service):
        spec = GemmSpec(64, 512, 64)
        assert service.run(spec).n_threads == 8
        info = service.reload(oracle_bundle(2))
        assert info == {"generation": 1, "model_name": "oracle-2",
                        "machine": "tiny"}
        assert service.run(spec).n_threads == 2

    def test_new_predictor_has_fresh_cache(self, service):
        spec = GemmSpec(64, 512, 64)
        service.run(spec)
        assert service.cache.stats()["size"] == 1
        service.reload(oracle_bundle(2))
        assert service.cache.stats()["size"] == 0
        assert service.cache.maxsize == 32  # capacity carried over

    def test_counters_stay_monotonic(self, service):
        specs = [GemmSpec(32 * i, 64, 64) for i in range(1, 5)]
        service.run_batch(specs)
        before = service.stats()
        service.reload(oracle_bundle(2))
        service.run_batch(specs)
        after = service.stats()
        assert after["evaluations"] == before["evaluations"] + len(specs)
        assert after["model_passes"] == before["model_passes"] + 1
        assert after["reloads"] == 1
        assert after["bundle_generation"] == 1
        assert after["model_name"] == "oracle-2"

    def test_grid_clamped_to_machine(self, service):
        service.reload(oracle_bundle(64, grid=[1, 2, 64, 128]))
        # tiny node has 16 logical CPUs: infeasible entries are dropped.
        assert service.thread_grid.max() <= 16
        assert service.run(GemmSpec(48, 48, 48)).n_threads <= 16

    def test_batch_equals_scalar_after_reload(self, service):
        service.reload(oracle_bundle(4))
        specs = [GemmSpec(24 + 8 * i, 64, 48) for i in range(12)]
        batch = [r.n_threads for r in service.run_batch(specs)]
        assert batch == [4] * len(specs)

    def test_closed_service_rejects_reload(self, service):
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.reload(oracle_bundle(2))
