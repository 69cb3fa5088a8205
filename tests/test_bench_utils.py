"""Benchmark harness utilities."""

import numpy as np
import pytest

from repro.bench.gflops import MemoryBucket, bucket_gflops
from repro.bench.report import (ascii_histogram, batch_size_table,
                                cache_effectiveness_table, format_table,
                                heatmap_summary, latency_table)
from repro.bench.stats import latency_summary, speedup_stats


class TestSpeedupStats:
    def test_table5_fields(self):
        stats = speedup_stats([1.0, 1.2, 1.4, 2.0, 0.9])
        d = stats.as_dict()
        assert set(d) == {"Mean Speedup", "Standard Deviation", "Min Speedup",
                          "25th Percentile", "50th Percentile",
                          "75th Percentile", "Max Speedup", "N"}
        assert d["Min Speedup"] == 0.9
        assert d["Max Speedup"] == 2.0
        assert d["N"] == 5

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(0)
        stats = speedup_stats(rng.lognormal(0, 0.5, 500))
        assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum

    def test_single_value(self):
        stats = speedup_stats([1.3])
        assert stats.std == 0.0 and stats.mean == 1.3

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup_stats([])
        with pytest.raises(ValueError):
            speedup_stats([1.0, -0.5])


class TestLatencySummary:
    def test_fields_and_ordering(self):
        rng = np.random.default_rng(0)
        summary = latency_summary(rng.exponential(0.002, 1000))
        assert summary.n == 1000
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
        assert summary.mean > 0

    def test_as_row_scales_seconds_to_ms(self):
        summary = latency_summary([0.001, 0.002, 0.003])
        row = summary.as_row(label="serve")
        assert row["series"] == "serve"
        assert row["p50_ms"] == pytest.approx(2.0)
        assert row["max_ms"] == pytest.approx(3.0)
        assert row["n"] == 3

    def test_as_row_without_label(self):
        row = latency_summary([0.5]).as_row()
        assert "series" not in row
        assert row["mean_ms"] == pytest.approx(500.0)

    def test_single_sample(self):
        summary = latency_summary([0.25])
        assert summary.p50 == summary.p99 == summary.maximum == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_summary([])
        with pytest.raises(ValueError):
            latency_summary([0.1, -0.1])

    def test_latency_table_renders(self):
        text = latency_table(
            {"latency": latency_summary([0.001, 0.004]),
             "queue wait": latency_summary([0.0005, 0.001])},
            title="request latency (ms)")
        assert "request latency (ms)" in text
        assert "p99_ms" in text and "queue wait" in text

    def test_latency_table_rejects_empty(self):
        with pytest.raises(ValueError):
            latency_table({})


class TestBatchSizeTable:
    def test_renders_sorted_with_shares(self):
        text = batch_size_table({4: 1, 1: 3})
        lines = text.splitlines()
        assert "batch sizes" in lines[0]
        assert lines[3].startswith("1") and "75.0%" in lines[3]
        assert lines[4].startswith("4") and "25.0%" in lines[4]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_size_table({})


class TestBucketGflops:
    def test_bucketing_and_throughput(self):
        memory = [50, 150, 450]
        flops = [1e9, 2e9, 4e9]
        t_base = [1.0, 1.0, 2.0]
        t_ml = [0.5, 0.5, 2.0]
        buckets = bucket_gflops(memory, flops, t_base, t_ml)
        assert len(buckets) == 5
        b0 = buckets[0]
        assert b0.label == "0-100" and b0.n == 1
        assert b0.baseline_gflops == pytest.approx(1.0)
        assert b0.ml_gflops == pytest.approx(2.0)
        assert b0.speedup == pytest.approx(2.0)
        assert buckets[2].n == 0  # 200-300 empty

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            bucket_gflops([1.0], [1.0, 2.0], [1.0], [1.0])

    def test_custom_edges(self):
        buckets = bucket_gflops([5], [1e9], [1.0], [1.0], edges_mb=[0, 10])
        assert len(buckets) == 1 and buckets[0].n == 1


class TestReportFormatting:
    def test_format_table_aligns(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 22, "bb": "z"}],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_key_mismatch(self):
        with pytest.raises(ValueError):
            format_table([{"a": 1}, {"b": 2}])

    def test_ascii_histogram_counts(self):
        text = ascii_histogram([1, 1, 1, 5], bins=2, title="H")
        assert text.startswith("H")
        assert "3" in text  # bin with three entries

    def test_heatmap_summary_runs(self):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(1, 100, 50), rng.uniform(1, 100, 50)
        v = x + y
        text = heatmap_summary(x, y, v, x_label="m", y_label="k",
                               value_label="threads")
        assert "threads" in text
        assert "." in text or any(ch.isdigit() for ch in text)

    def test_heatmap_alignment_guard(self):
        with pytest.raises(ValueError):
            heatmap_summary([1, 2], [1], [1, 2])


class TestSparkline:
    def test_monotone_series_shape(self):
        from repro.bench.report import sparkline

        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert len(line) == 8
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant_series(self):
        from repro.bench.report import sparkline

        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_empty_rejected(self):
        from repro.bench.report import sparkline
        import pytest

        with pytest.raises(ValueError):
            sparkline([])


class TestCacheEffectivenessTable:
    def test_renders_engine_stats(self):
        stats = {"requests": 10, "batches": 2, "unique_shapes": 4,
                 "evaluations": 4, "memo_hit_rate": 0.6, "cache_hits": 6,
                 "cache_misses": 4, "cache_evictions": 0, "cache_size": 4,
                 "cache_maxsize": 64, "cache_hit_rate": 0.6}
        text = cache_effectiveness_table(stats, title="engine cache")
        assert "engine cache" in text
        assert "memo_hit_rate" in text and "0.6" in text

    def test_live_service_stats_render(self, tiny_sim):
        from repro import GemmSpec
        from repro.core.features import FeatureBuilder
        from repro.core.predictor import ThreadPredictor
        from repro.engine import GemmService

        class Flat:
            def predict(self, X):
                return X[:, 3]

        service = GemmService(
            ThreadPredictor(FeatureBuilder("both"), None, Flat(),
                            [1, 2, 4], cache_size=8),
            backend=tiny_sim)
        service.run_batch([GemmSpec(16, 16, 16), GemmSpec(16, 16, 16)])
        assert "cache_hits" in cache_effectiveness_table(service.stats())

    def test_rejects_unrelated_dict(self):
        with pytest.raises(ValueError):
            cache_effectiveness_table({"speedup": 1.2})


class TestPredictionThroughput:
    @pytest.fixture
    def predictor(self):
        from repro.core.features import FeatureBuilder
        from repro.core.predictor import ThreadPredictor

        class Linearish:
            def predict(self, X):
                return X[:, 3] + 1e-6 * X[:, 0]

        return ThreadPredictor(FeatureBuilder("both"), None, Linearish(),
                               [1, 2, 4, 8, 16])

    def test_rows_and_amortisation(self, predictor):
        from repro.bench.throughput import prediction_throughput

        rows = prediction_throughput(predictor, n_shapes=96,
                                     batch_sizes=(1, 8, 64), repeats=2)
        assert [r["batch_size"] for r in rows] == [1, 8, 64]
        assert rows[0]["speedup"] == 1.0
        assert rows[-1]["per_shape_us"] < rows[0]["per_shape_us"]
        # Rows feed straight into the report renderer.
        assert "per_shape_us" in format_table(rows)

    def test_validation(self, predictor):
        from repro.bench.throughput import prediction_throughput

        with pytest.raises(ValueError):
            prediction_throughput(predictor, shapes=[], batch_sizes=(1,))
        with pytest.raises(ValueError):
            prediction_throughput(predictor, batch_sizes=(0,))
        with pytest.raises(ValueError):
            prediction_throughput(predictor, repeats=0)
