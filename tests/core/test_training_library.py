"""Installation workflow end-to-end and the runtime library."""

import numpy as np
import pytest

from repro.core.library import AdsalaGemm
from repro.core.serialize import load_bundle, save_bundle
from repro.gemm.interface import GemmSpec


class TestInstallationWorkflow:
    def test_bundle_contents(self, tiny_bundle):
        bundle, _ = tiny_bundle
        assert bundle.config.model_name in ("Linear Regression", "XGBoost")
        assert bundle.config.machine == "tiny"
        assert bundle.pipeline is not None
        assert len(bundle.report.rows) == 2

    def test_report_metrics_sane(self, tiny_bundle):
        bundle, _ = tiny_bundle
        for row in bundle.report.rows:
            assert row.nrmse >= 0
            assert row.speedup.eval_time_s > 0
            assert row.speedup.estimated_mean <= row.speedup.ideal_mean + 1e-9

    def test_xgboost_more_accurate_than_linear(self, tiny_bundle):
        """The Tables III/IV ordering: tree ensemble beats linear."""
        bundle, _ = tiny_bundle
        nrmse = {r.name: r.nrmse for r in bundle.report.rows}
        assert nrmse["XGBoost"] < nrmse["Linear Regression"]

    def test_predictor_beats_max_threads_on_average(self, tiny_bundle):
        """The paper's core claim at micro scale: ML thread choice
        beats always-max on fresh shapes."""
        from repro.sampling.domain import GemmDomainSampler

        bundle, sim = tiny_bundle
        predictor = bundle.predictor()
        shapes = GemmDomainSampler(memory_cap_bytes=6 * 2 ** 20,
                                   seed=777).sample(25)
        speedups = []
        for spec in shapes:
            p = predictor.predict_threads(spec.m, spec.k, spec.n)
            t_ml = sim.true_time(spec, p)
            t_max = sim.true_time(spec, sim.max_threads())
            speedups.append(t_max / t_ml)
        assert float(np.mean(speedups)) > 1.2

    def test_split_keeps_shapes_disjoint(self, tiny_sim, tiny_dataset):
        from repro.core.training import InstallationWorkflow

        workflow = InstallationWorkflow(tiny_sim, memory_cap_bytes=64 * 2 ** 20,
                                        thread_grid=[1, 2, 4, 8, 12, 16])
        train, test = workflow.split_shapes(tiny_dataset)
        train_shapes = {tuple(s) for s in train.unique_shapes()}
        test_shapes = {tuple(s) for s in test.unique_shapes()}
        assert not (train_shapes & test_shapes)
        assert len(train) + len(test) == len(tiny_dataset)
        # Roughly the requested 30% of shapes in test.
        frac = len(test_shapes) / (len(test_shapes) + len(train_shapes))
        assert 0.2 < frac < 0.4


class TestSerialization:
    def test_save_load_round_trip(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        save_bundle(bundle, tmp_path / "install")
        loaded = load_bundle(tmp_path / "install")
        assert loaded.config == bundle.config
        # Loaded predictor behaves identically.
        a = bundle.predictor().predict_threads(100, 100, 100)
        b = loaded.predictor().predict_threads(100, 100, 100)
        assert a == b

    def test_missing_artefacts_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nowhere")


class TestAdsalaGemm:
    def test_run_records_history(self, tiny_bundle):
        bundle, sim = tiny_bundle
        with AdsalaGemm(bundle, sim) as g:
            rec = g.gemm(64, 64, 64)
            assert rec.n_threads in g.thread_grid
            assert rec.runtime > 0
            assert rec.gflops > 0
            assert g.cache_stats["requests"] == 1

    def test_memoisation_visible_in_records(self, tiny_bundle):
        bundle, sim = tiny_bundle
        with AdsalaGemm(bundle, sim) as g:
            first = g.gemm(32, 32, 32)
            second = g.gemm(32, 32, 32)
        assert not first.memoised
        assert second.memoised
        assert g.memo_hit_rate == 0.5

    def test_baseline_uses_max_threads(self, tiny_bundle):
        bundle, sim = tiny_bundle
        g = AdsalaGemm(bundle, sim)
        spec = GemmSpec(32, 512, 32)
        t_base = g.run_baseline(spec)
        t_one = g.run_baseline(spec, n_threads=1)
        assert t_base > t_one  # tiny GEMM: max threads is slow

    def test_speedup_over_baseline_positive(self, tiny_bundle):
        bundle, sim = tiny_bundle
        g = AdsalaGemm(bundle, sim)
        assert g.speedup_over_baseline(GemmSpec(32, 512, 32)) > 0

    def test_closed_instance_rejects_calls(self, tiny_bundle):
        bundle, sim = tiny_bundle
        g = AdsalaGemm(bundle, sim)
        g.close()
        with pytest.raises(RuntimeError, match="closed"):
            g.gemm(8, 8, 8)

    def test_closed_instance_rejects_cache_stats(self, tiny_bundle):
        bundle, sim = tiny_bundle
        with AdsalaGemm(bundle, sim) as g:
            g.gemm(64, 64, 64)
        with pytest.raises(RuntimeError, match="has been closed"):
            g.cache_stats
        with pytest.raises(RuntimeError, match="has been closed"):
            g.thread_grid

    def test_from_directory(self, tiny_bundle, tmp_path):
        bundle, sim = tiny_bundle
        save_bundle(bundle, tmp_path / "inst")
        with AdsalaGemm.from_directory(tmp_path / "inst", sim) as g:
            assert g.gemm(16, 16, 16).runtime > 0
