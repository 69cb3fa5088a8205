"""CLI commands: install / models / predict / batch / serve / demo."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_install_args(self):
        args = build_parser().parse_args(
            ["install", "--machine", "tiny", "--shapes", "10", "--out", "x"])
        assert args.machine == ["tiny"] and args.shapes == 10
        assert args.jobs == 1 and not args.resume and not args.matrix
        assert args.routine is None

    def test_install_matrix_args(self):
        args = build_parser().parse_args(
            ["install", "--matrix", "--machine", "tiny", "--machine", "gadi",
             "--routine", "gemm", "--routine", "gemv", "--jobs", "4",
             "--resume", "--out", "reg"])
        assert args.matrix and args.resume and args.jobs == 4
        assert args.machine == ["tiny", "gadi"]
        assert args.routine == ["gemm", "gemv"]

    def test_models_args(self):
        args = build_parser().parse_args(
            ["models", "--registry", "reg", "--inspect", "gemv/tiny@2"])
        assert args.registry == "reg" and args.inspect == "gemv/tiny@2"
        assert args.compile_table is None

    def test_models_compile_and_inspect_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["models", "--registry", "reg", "--compile-table",
                 "gemm/tiny", "--inspect", "gemv/tiny"])

    def test_unknown_routine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["install", "--routine", "axpy",
                                       "--out", "x"])

    def test_batch_args(self):
        args = build_parser().parse_args(
            ["batch", "--install", "dir", "--baseline", "shapes.txt"])
        assert args.shapes_file == "shapes.txt"
        assert args.baseline and args.machine is None
        assert args.cache_size == 256

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--install", "dir", "--machine", "gadi",
             "--machine", "setonix", "--rate", "250", "--max-batch", "8",
             "trace.txt"])
        assert args.machine == ["gadi", "setonix"]
        assert args.rate == 250.0 and args.max_batch == 8
        assert args.max_wait_ms == 2.0 and args.shapes_file == "trace.txt"

    def test_serve_defaults_to_installed_machine(self):
        args = build_parser().parse_args(["serve", "--install", "dir", "t.txt"])
        assert args.machine is None and args.clients == 4

    def test_serve_trace_and_obs_args(self):
        args = build_parser().parse_args(
            ["serve", "--install", "dir", "--trace",
             "--obs-dir", "obs_out", "t.txt"])
        assert args.trace and args.obs_dir == "obs_out"
        args = build_parser().parse_args(["serve", "--install", "dir",
                                          "t.txt"])
        assert not args.trace and args.obs_dir is None

    def test_obs_args(self):
        args = build_parser().parse_args(["obs", "artefacts"])
        assert args.obs_dir == "artefacts"
        assert args.tail is None and not args.dump
        args = build_parser().parse_args(["obs", "artefacts", "--tail", "5"])
        assert args.tail == 5
        args = build_parser().parse_args(["obs", "artefacts", "--dump"])
        assert args.dump

    def test_obs_tail_and_dump_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "d", "--tail", "3", "--dump"])

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "--install", "dir", "8", "16", "32"])
        assert (args.m, args.k, args.n) == (8, 16, 32)

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["install", "--machine", "frontier",
                                       "--out", "x"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEndToEnd:
    def test_install_then_predict(self, tmp_path, capsys):
        out = tmp_path / "install"
        rc = main(["install", "--machine", "tiny", "--shapes", "25",
                   "--cap-mb", "8", "--tune-iters", "1", "--cv-folds", "2",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "adsala_config.json").exists()
        captured = capsys.readouterr().out
        assert "selected:" in captured

        rc = main(["predict", "--install", str(out), "64", "512", "64"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "predicted optimal threads" in captured

    def test_demo_runs(self, capsys):
        rc = main(["demo", "--machine", "tiny", "--shapes", "25"])
        assert rc == 0
        assert "speedup vs max" in capsys.readouterr().out

    def test_install_then_batch(self, tmp_path, capsys):
        out = tmp_path / "install"
        main(["install", "--machine", "tiny", "--shapes", "25",
              "--cap-mb", "8", "--tune-iters", "1", "--cv-folds", "2",
              "--out", str(out)])
        capsys.readouterr()

        shapes = tmp_path / "shapes.txt"
        shapes.write_text("# quantum-chemistry-ish stream\n"
                          "64 512 64\n32,768,32\n64 512 64\n\n128 128 128\n")
        rc = main(["batch", "--install", str(out), "--baseline",
                   str(shapes)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "batch of 4 calls on tiny" in captured
        assert "prediction cache" in captured
        assert "speedup" in captured

    def test_install_then_serve(self, tmp_path, capsys):
        out = tmp_path / "install"
        main(["install", "--machine", "tiny", "--shapes", "25",
              "--cap-mb", "8", "--tune-iters", "1", "--cv-folds", "2",
              "--out", str(out)])
        capsys.readouterr()

        shapes = tmp_path / "shapes.txt"
        shapes.write_text("64 512 64\n32 768 32\n64 512 64\n128 128 128\n")
        rc = main(["serve", "--install", str(out), "--rate", "4000",
                   "--requests", "24", "--max-wait-ms", "2",
                   str(shapes)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "serve replay" in captured
        assert "request latency (ms)" in captured
        assert "batch sizes" in captured
        assert "model passes" in captured
        assert "shard tiny" in captured

    def test_serve_with_obs_dir_then_obs_views(self, tmp_path, capsys):
        """serve --obs-dir writes the artefact set; obs reads it back."""
        out = tmp_path / "install"
        main(["install", "--machine", "tiny", "--shapes", "25",
              "--cap-mb", "8", "--tune-iters", "1", "--cv-folds", "2",
              "--out", str(out)])
        capsys.readouterr()

        shapes = tmp_path / "shapes.txt"
        shapes.write_text("64 512 64\n32 768 32\n64 512 64\n128 128 128\n")
        obs_dir = tmp_path / "obs"
        rc = main(["serve", "--install", str(out), "--rate", "4000",
                   "--requests", "16", str(shapes),
                   "--obs-dir", str(obs_dir)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "complete span chains" in captured
        for name in ("metrics.prom", "metrics.jsonl", "spans.jsonl",
                     "stats.json"):
            assert (obs_dir / name).exists(), name

        rc = main(["obs", str(obs_dir)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "serving stats" in captured or "served" in captured
        assert "trace" in captured

        rc = main(["obs", str(obs_dir), "--tail", "2"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "admission" in captured and "execute" in captured
        assert "tier=" in captured

        rc = main(["obs", str(obs_dir), "--dump"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "# TYPE" in captured           # Prometheus text
        assert "repro_serve_served" in captured

    def test_obs_rejects_missing_dir(self, tmp_path, capsys):
        rc = main(["obs", str(tmp_path / "nope")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err

    def test_models_list_compile_inspect(self, tiny_bundle, tmp_path,
                                         capsys):
        from repro.train.registry import ModelRegistry

        bundle, _ = tiny_bundle
        registry_dir = tmp_path / "registry"
        ModelRegistry(registry_dir).publish(bundle, routine="gemm")

        rc = main(["models", "--registry", str(registry_dir)])
        assert rc == 0
        listing = capsys.readouterr().out
        assert "gemm" in listing and "table" in listing

        rc = main(["models", "--registry", str(registry_dir),
                   "--inspect", "gemm/tiny"])
        assert rc == 0
        inspected = capsys.readouterr().out
        assert "schema:   4" in inspected
        assert "table:    none" in inspected

    def test_serve_rejects_missing_shape_file(self, tmp_path, capsys):
        out = tmp_path / "install"
        main(["install", "--machine", "tiny", "--shapes", "25",
              "--cap-mb", "8", "--tune-iters", "1", "--cv-folds", "2",
              "--out", str(out)])
        capsys.readouterr()
        rc = main(["serve", "--install", str(out),
                   str(tmp_path / "missing.txt")])
        assert rc == 2

    def test_batch_rejects_malformed_shape_file(self, tmp_path):
        from repro.cli import parse_trace_file

        bad = tmp_path / "bad.txt"
        bad.write_text("64 512\n")
        with pytest.raises(ValueError):
            parse_trace_file(str(bad))
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError):
            parse_trace_file(str(empty))


class TestFleetCli:
    def test_serve_fleet_args(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "reg", "--workers", "4",
             "--router", "hash", "--watch-interval", "0.5", "t.txt"])
        assert args.workers == 4 and args.router == "hash"
        assert args.watch_interval == 0.5

    def test_serve_fleet_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "reg", "t.txt"])
        assert args.workers == 1 and args.router == "least_loaded"
        assert args.watch_interval is None

    def test_fleet_args(self):
        args = build_parser().parse_args(
            ["fleet", "--registry", "reg", "--workers", "3",
             "--route-file", "t.txt"])
        assert args.workers == 3 and args.route_file == "t.txt"
        assert args.router == "least_loaded"

    def test_models_gc_args(self):
        args = build_parser().parse_args(
            ["models", "--registry", "reg", "--gc", "2"])
        assert args.gc == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["models", "--registry", "reg", "--gc", "2",
                 "--compile-table", "gemm/tiny"])

    def test_serve_workers_validation(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        trace.write_text("64 512 64\n")
        rc = main(["serve", "--install", "dir", "--workers", "2",
                   str(trace)])
        assert rc == 2
        assert "--registry mode" in capsys.readouterr().err
        rc = main(["serve", "--registry", "dir", "--workers", "0",
                   str(trace)])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err
        rc = main(["serve", "--registry", "dir", "--workers", "2",
                   "--trace", str(trace)])
        assert rc == 2
        assert "not available" in capsys.readouterr().err

    @staticmethod
    def _registry_with(tiny_bundle, tmp_path, publishes=1):
        from repro.train.registry import ModelRegistry

        bundle, _ = tiny_bundle
        registry_dir = tmp_path / "registry"
        registry = ModelRegistry(registry_dir)
        for _ in range(publishes):
            registry.publish(bundle, routine="gemm")
        registry.publish(bundle, routine="gemv")
        return registry_dir

    def test_models_gc_end_to_end(self, tiny_bundle, tmp_path, capsys):
        registry_dir = self._registry_with(tiny_bundle, tmp_path,
                                           publishes=3)
        rc = main(["models", "--registry", str(registry_dir), "--gc", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "removed 2 versions" in out
        assert "removed gemm/tiny@1" in out and "gemm/tiny@2" in out

        rc = main(["models", "--registry", str(registry_dir), "--gc", "1"])
        assert rc == 0
        assert "nothing to collect" in capsys.readouterr().out

    def test_serve_fleet_end_to_end(self, tiny_bundle, tmp_path, capsys):
        registry_dir = self._registry_with(tiny_bundle, tmp_path)
        trace = tmp_path / "mixed.txt"
        trace.write_text("64 512 64\n128 128 128\ngemv 512 256\n"
                         "96 64 96\ngemv 256 768\n48 48 48\n")
        rc = main(["serve", "--registry", str(registry_dir),
                   "--workers", "2", "--rate", "4000", "--requests", "24",
                   str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet-2w" in out
        assert "worker-0" in out and "worker-1" in out
        assert "rejected" in out

    def test_serve_per_routine_rows_share_keys(self, tiny_bundle, tmp_path,
                                               capsys):
        """Only a routine with a decision table reports table counts;
        the per-routine table still renders, blank where a routine has
        none."""
        import dataclasses

        from repro.train.registry import ModelRegistry

        bundle, _ = tiny_bundle
        registry_dir = tmp_path / "registry"
        registry = ModelRegistry(registry_dir)
        tabled = dataclasses.replace(bundle, table=None)
        tabled.compile_table(resolution=6)
        registry.publish(tabled, routine="gemm")
        gemv = dataclasses.replace(
            bundle, config=dataclasses.replace(bundle.config, routine="gemv"),
            table=None)
        registry.publish(gemv, routine="gemv")
        trace = tmp_path / "mixed.txt"
        trace.write_text("64 512 64\ngemv 512 256\n")
        rc = main(["serve", "--registry", str(registry_dir), "--rate",
                   "4000", "--requests", "8", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-routine traffic" in out and "table_fallbacks" in out

    def test_fleet_inspect_end_to_end(self, tiny_bundle, tmp_path, capsys):
        registry_dir = self._registry_with(tiny_bundle, tmp_path)
        trace = tmp_path / "mixed.txt"
        trace.write_text("64 512 64\ngemv 512 256\n128 128 128\n"
                         "gemv 256 768\n")
        rc = main(["fleet", "--registry", str(registry_dir),
                   "--route-file", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet: 2 workers" in out
        assert "routing preview: 4 requests" in out
        assert "gemm@1,gemv@1" in out

    def test_fleet_rejects_empty_registry(self, tmp_path, capsys):
        rc = main(["fleet", "--registry", str(tmp_path / "empty")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
