"""AdsalaConfig round-trips and label transforms."""

import numpy as np
import pytest

from repro.core.config import AdsalaConfig


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = AdsalaConfig(machine="gadi", thread_grid=[1, 2, 4],
                           model_name="XGBoost", memory_cap_bytes=100,
                           model_params={"max_depth": 6})
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = AdsalaConfig.load(path)
        assert loaded == cfg

    def test_config_without_routine_loads_as_gemm(self, tmp_path):
        """A config JSON written without the routine tag is a GEMM one."""
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"machine": "gadi",
                                    "thread_grid": [1, 2, 4]}))
        assert AdsalaConfig.load(path).routine == "gemm"

    def test_thread_grid_coerced_to_ints(self):
        cfg = AdsalaConfig(machine="t", thread_grid=[1.0, 2.0])
        assert cfg.thread_grid == [1, 2]
        assert all(isinstance(t, int) for t in cfg.thread_grid)

    @pytest.mark.parametrize("transform", ["log", "sqrt", "identity"])
    def test_label_round_trip(self, transform):
        cfg = AdsalaConfig(machine="t", label_transform=transform)
        runtimes = np.array([1e-6, 1e-3, 1.0, 10.0])
        np.testing.assert_allclose(cfg.inverse_label(cfg.transform_label(runtimes)),
                                   runtimes, rtol=1e-12)

    def test_log_transform_values(self):
        cfg = AdsalaConfig(machine="t", label_transform="log")
        assert cfg.transform_label(np.e) == pytest.approx(1.0)

    def test_monotone_transforms_preserve_argmin(self):
        runtimes = np.array([3.0, 0.5, 2.0, 8.0])
        for transform in ("log", "sqrt", "identity"):
            cfg = AdsalaConfig(machine="t", label_transform=transform)
            assert np.argmin(cfg.transform_label(runtimes)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdsalaConfig(machine="t", label_transform="cbrt")
        with pytest.raises(ValueError):
            AdsalaConfig(machine="t", dtype="int8")
        with pytest.raises(ValueError):
            AdsalaConfig(machine="t", thread_grid=[0, 1])
