"""Decision tables: lattice parity, fall-through, persistence, serving.

The acceptance property of the tier-0 layer: for **every** registered
model, the table's answers on lattice points are bitwise equal to the
compiled plan's and the object path's — with zero model passes — and
every shape off the lattice falls through to the plan unchanged.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.compile import (DecisionTable, TableValidationError,
                           campaign_axes, compile_table)
from repro.core.predictor import ThreadPredictor
from repro.core.routines import REGISTRY
from repro.core.serialize import (CONFIG_FILENAME, MANIFEST_FILENAME,
                                  MODEL_FILENAME, TABLE_FILENAME,
                                  BundleSchemaError, bundle_checksum,
                                  load_bundle, save_bundle)
from repro.engine.service import GemmService
from repro.ml.registry import candidate_models
from repro.train.registry import ModelRegistry

from tests.compile.conftest import GRID, random_query_shapes

ALL_CANDIDATES = candidate_models(budget="fast", include_extra=True,
                                  random_state=0)

#: A small explicit lattice; values chosen so midpoints and
#: off-lattice probes are unambiguous.
AXES = ([16, 64, 256, 1024], [31, 128, 512], [7, 90, 900])


def lattice_shapes(table) -> list:
    return [tuple(int(v) for v in p) for p in table.lattice_points()]


def off_lattice_shapes(n: int, seed: int = 0) -> list:
    """Shapes guaranteed off AXES (every coordinate is even-ish large)."""
    shapes = []
    on = {v for axis in AXES for v in axis}
    for m, k, n_dim in random_query_shapes(3 * n, seed=seed):
        if not ({m, k, n_dim} & on):
            shapes.append((m, k, n_dim))
        if len(shapes) == n:
            break
    return shapes


@pytest.fixture(scope="module")
def predictor_trios(feature_setup, fitted_pipeline):
    """(object, compiled, tabled) ThreadPredictor per candidate model."""
    builder, _, _ = feature_setup
    pipeline, Z, y = fitted_pipeline
    trios = {}
    for cand in ALL_CANDIDATES:
        model = cand.build().fit(Z, y)
        obj = ThreadPredictor(builder, pipeline, model, GRID, cache_size=64)
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=64).compile()
        table = compile_table(comp, axes=AXES)
        tab = ThreadPredictor(builder, pipeline, model, GRID, cache_size=64,
                              plan=comp.plan, table=table)
        trios[cand.name] = (obj, comp, tab)
    return trios


@pytest.mark.parametrize("name", [c.name for c in ALL_CANDIDATES])
class TestEveryModel:
    def test_lattice_choices_bitwise_equal_with_zero_model_passes(
            self, predictor_trios, name):
        obj, comp, tab = predictor_trios[name]
        shapes = lattice_shapes(tab.table)
        for p in (obj, comp, tab):
            p.invalidate_memo()
        expected = obj.predict_threads_batch(shapes)
        np.testing.assert_array_equal(comp.predict_threads_batch(shapes),
                                      expected)
        passes_before = tab.n_model_passes
        np.testing.assert_array_equal(tab.predict_threads_batch(shapes),
                                      expected)
        assert tab.n_model_passes == passes_before  # pure tier-0 traffic
        assert tab.n_table_hits >= len(shapes)

    def test_scalar_path_matches_batch_path(self, predictor_trios, name):
        obj, _, tab = predictor_trios[name]
        for m, k, n in lattice_shapes(tab.table)[::7]:
            assert tab.predict_threads(m, k, n) \
                == obj.predict_threads(m, k, n)

    def test_off_lattice_falls_through_to_plan(self, predictor_trios, name):
        obj, _, tab = predictor_trios[name]
        shapes = off_lattice_shapes(9, seed=3)
        tab.invalidate_memo()
        obj.invalidate_memo()
        fallbacks_before = tab.n_table_fallbacks
        passes_before = tab.n_model_passes
        np.testing.assert_array_equal(tab.predict_threads_batch(shapes),
                                      obj.predict_threads_batch(shapes))
        assert tab.n_table_fallbacks == fallbacks_before + len(set(shapes))
        assert tab.n_model_passes == passes_before + 1  # one pass for all

    def test_mixed_batch_splits_between_tiers(self, predictor_trios, name):
        obj, _, tab = predictor_trios[name]
        on = lattice_shapes(tab.table)[:6]
        off = off_lattice_shapes(5, seed=11)
        mixed = [s for pair in zip(on, off + [off[0]]) for s in pair]
        tab.invalidate_memo()
        obj.invalidate_memo()
        hits_before, falls_before = tab.n_table_hits, tab.n_table_fallbacks
        np.testing.assert_array_equal(tab.predict_threads_batch(mixed),
                                      obj.predict_threads_batch(mixed))
        assert tab.n_table_hits == hits_before + len(on)
        assert tab.n_table_fallbacks == falls_before + len(set(off))


class TestEveryRoutine:
    @pytest.mark.parametrize("routine", sorted(REGISTRY.names()))
    def test_lattice_parity_per_routine(self, feature_setup, fitted_pipeline,
                                        routine):
        builder, _, _ = feature_setup
        pipeline, Z, y = fitted_pipeline
        model = ALL_CANDIDATES[0].build().fit(Z, y)
        comp = ThreadPredictor(builder, pipeline, model, GRID, cache_size=64,
                               routine=routine).compile()
        table = compile_table(comp, axes=AXES)
        assert table.routine == routine
        tab = ThreadPredictor(builder, pipeline, model, GRID, cache_size=64,
                              plan=comp.plan, table=table, routine=routine)
        shapes = lattice_shapes(table)
        comp.invalidate_memo()
        np.testing.assert_array_equal(tab.predict_threads_batch(shapes),
                                      comp.predict_threads_batch(shapes))
        assert tab.n_model_passes == 0

    @pytest.mark.parametrize("routine", ["gemv", "syrk", "trsm"])
    def test_campaign_axes_follow_routine_dims(self, tiny_bundle, routine):
        bundle, _ = tiny_bundle
        axes, probe = campaign_axes(bundle.config, routine=routine,
                                    resolution=8, n_probe=64)
        assert len(axes) == 3 and probe.shape == (64, 3)
        for axis in axes:
            assert 1 <= axis.size <= 8
            assert (np.diff(axis) > 0).all()
        if routine == "gemv":  # trailing dim is constant 1
            assert axes[2].tolist() == [1]
        if routine == "trsm":  # k is tied to m
            assert axes[0].tolist() == axes[1].tolist()

    def test_routine_mismatch_raises(self, feature_setup, fitted_pipeline):
        builder, _, _ = feature_setup
        pipeline, Z, y = fitted_pipeline
        model = ALL_CANDIDATES[0].build().fit(Z, y)
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               routine="gemv").compile()
        table = compile_table(comp, axes=AXES)
        with pytest.raises(ValueError, match="routine"):
            ThreadPredictor(builder, pipeline, model, GRID, table=table,
                            routine="gemm")

    def test_grid_mismatch_raises(self, feature_setup, fitted_pipeline):
        builder, _, _ = feature_setup
        pipeline, Z, y = fitted_pipeline
        model = ALL_CANDIDATES[0].build().fit(Z, y)
        comp = ThreadPredictor(builder, pipeline, model, GRID).compile()
        table = compile_table(comp, axes=AXES)
        with pytest.raises(ValueError, match="recompile the table"):
            ThreadPredictor(builder, pipeline, model, GRID[:-1], table=table)


class TestDegenerateLattices:
    @pytest.fixture(scope="class")
    def compiled(self, feature_setup, fitted_pipeline):
        builder, _, _ = feature_setup
        pipeline, Z, y = fitted_pipeline
        model = ALL_CANDIDATES[0].build().fit(Z, y)
        return ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=64).compile()

    def test_single_point_lattice(self, compiled):
        table = compile_table(compiled, axes=([64], [128], [256]))
        assert table.lattice_shape == (1, 1, 1) and table.n_points == 1
        compiled.invalidate_memo()
        assert table.lookup(64, 128, 256) \
            == compiled.predict_threads(64, 128, 256)
        assert table.lookup(65, 128, 256) is None

    def test_empty_batch(self, compiled):
        table = compile_table(compiled, axes=AXES)
        choices, resolved = table.lookup_batch([])
        assert choices.dtype == np.int64 and choices.size == 0
        assert resolved.dtype == bool and resolved.size == 0
        tab = ThreadPredictor(compiled.feature_builder, compiled.pipeline,
                              compiled.model, GRID, plan=compiled.plan,
                              table=table)
        out = tab.predict_threads_batch([])
        assert out.dtype == np.int64 and out.size == 0

    def test_exact_snap_rejects_near_misses(self, compiled):
        table = compile_table(compiled, axes=AXES, snap="exact")
        assert table.lookup(16, 31, 7) is not None
        assert table.lookup(17, 31, 7) is None
        assert table.lookup(16, 31, 8) is None

    def test_invalid_snap_rejected(self, compiled):
        for snap in ("fuzzy", "nearest"):
            with pytest.raises(ValueError, match="snap"):
                compile_table(compiled, axes=AXES, snap=snap)

    def test_oversized_lattice_rejected(self, compiled):
        big = np.arange(1, 102)
        with pytest.raises(ValueError, match="point bound"):
            compile_table(compiled, axes=(big, big, big))

    def test_axes_validated(self, compiled):
        with pytest.raises(ValueError, match="non-empty"):
            compile_table(compiled, axes=([], [1], [2]))
        with pytest.raises(ValueError, match=">= 1"):
            compile_table(compiled, axes=([0, 4], [1], [2]))
        with pytest.raises(ValueError, match="three"):
            compile_table(compiled, axes=([1], [2]))

    def test_needs_axes_or_config(self, compiled):
        with pytest.raises(ValueError, match="axes or a config"):
            compile_table(compiled)

    def test_tampered_table_is_detectable(self, compiled):
        table = compile_table(compiled, axes=AXES)
        # A flipped packed entry must change an answer — the condition
        # the build-time validation loop checks for.
        corrupt = table.grid_index.copy()
        corrupt[0, 0, 0] = (corrupt[0, 0, 0] + 1) % len(table.thread_grid)
        bad = DecisionTable(table.routine, table.thread_grid, table.axes,
                            corrupt, snap=table.snap)
        got, ok = bad.lookup_batch(lattice_shapes(table))
        expected, _ = table.lookup_batch(lattice_shapes(table))
        assert ok.all() and (got != expected).any()

    def test_build_validation_rejects_diverging_lookup(self, compiled,
                                                       monkeypatch):
        """A table whose lookup disagrees with the plan never ships."""
        import repro.compile.table as table_mod

        real = table_mod.DecisionTable.lookup_batch

        def lying(self, shapes):
            choices, resolved = real(self, shapes)
            return np.zeros_like(choices), resolved

        monkeypatch.setattr(table_mod.DecisionTable, "lookup_batch", lying)
        with pytest.raises(TableValidationError, match="diverges"):
            compile_table(compiled, axes=AXES)


class TestPersistence:
    @pytest.fixture()
    def table_saved(self, tiny_bundle, tmp_path):
        """An independent copy of the tiny bundle, table compiled."""
        bundle, sim = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        bundle.compile_table(resolution=6)
        directory = tmp_path / "install"
        manifest = save_bundle(bundle, directory)
        return bundle, sim, directory, manifest

    def test_save_is_opt_in(self, tiny_bundle, tmp_path):
        """A bundle without a compiled table writes no table artefact."""
        bundle, _ = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        manifest = save_bundle(bundle, tmp_path / "plain")
        assert not (tmp_path / "plain" / TABLE_FILENAME).exists()
        assert TABLE_FILENAME not in manifest["files"]
        assert "table" not in manifest
        assert load_bundle(tmp_path / "plain").table is None

    def test_save_and_publish_add_exactly_the_table(self, table_saved,
                                                    tmp_path):
        bundle, _, directory, manifest = table_saved
        files = {CONFIG_FILENAME, MODEL_FILENAME, TABLE_FILENAME,
                 MANIFEST_FILENAME}
        assert set(os.listdir(directory)) == files
        assert manifest["schema_version"] == 4
        record = ModelRegistry(tmp_path / "registry").publish(
            bundle, routine="gemm")
        assert set(os.listdir(record.path)) == files

    def test_table_artifact_written_and_described(self, table_saved):
        bundle, _, directory, manifest = table_saved
        assert (directory / TABLE_FILENAME).exists()
        assert TABLE_FILENAME in manifest["files"]
        assert manifest["table"] == bundle.table.describe()
        assert manifest["checksum"] == bundle_checksum(directory)

    def test_loaded_table_serves_lattice_without_model_passes(
            self, table_saved):
        bundle, _, directory, _ = table_saved
        loaded = load_bundle(directory)
        assert loaded.table is not None
        predictor = loaded.predictor(cache_size=256, compiled=True)
        assert predictor.tabled and predictor.compiled
        shapes = lattice_shapes(loaded.table)
        reference = bundle.predictor(cache_size=256, compiled=False,
                                     table=False)
        np.testing.assert_array_equal(
            predictor.predict_threads_batch(shapes),
            reference.predict_threads_batch(shapes))
        assert predictor.n_model_passes == 0

    def test_table_pickle_is_deterministic(self, table_saved, tmp_path):
        bundle, _, directory, _ = table_saved
        save_bundle(bundle, tmp_path / "again")
        assert (directory / TABLE_FILENAME).read_bytes() \
            == (tmp_path / "again" / TABLE_FILENAME).read_bytes()

    def test_schema3_bundle_is_refused(self, table_saved):
        """A directory written the schema-3 way — the compiled plan
        stored next to the table and recorded in the manifest — is
        refused with a re-install hint, not half-read."""
        import pickle

        from repro.compile import compile_plan
        from repro.core.serialize import _combine_digests, _sha256_file

        bundle, _, directory, _ = table_saved
        plan_path = directory / "adsala_plan.pkl"
        plan_path.write_bytes(pickle.dumps(
            {"plan": compile_plan(bundle.pipeline, bundle.model)}))
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        manifest["schema_version"] = 3
        manifest["files"]["adsala_plan.pkl"] = _sha256_file(plan_path)
        manifest["checksum"] = _combine_digests(manifest["files"])
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleSchemaError, match="re-install"):
            load_bundle(directory)

    def test_unmanifested_table_is_refused(self, table_saved):
        from repro.core.serialize import BundleIntegrityError

        _, _, directory, _ = table_saved
        # Drop the table from the manifest but leave the pickle on disk:
        # exactly what a file dropped into the directory afterwards
        # looks like — an artefact no checksum protects.
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        del manifest["files"][TABLE_FILENAME]
        del manifest["table"]
        manifest["checksum"] = bundle_checksum(directory)
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleIntegrityError, match="not recorded"):
            load_bundle(directory)
        assert load_bundle(directory, load_table=False).table is None

    def test_corrupt_table_fails_loudly(self, table_saved):
        from repro.core.serialize import (BundleIntegrityError, _sha256_file,
                                          bundle_checksum)

        _, _, directory, _ = table_saved
        (directory / TABLE_FILENAME).write_bytes(b"\x80\x04 garbage")
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        manifest["files"][TABLE_FILENAME] = _sha256_file(
            os.path.join(directory, TABLE_FILENAME))
        manifest["checksum"] = bundle_checksum(directory)
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleIntegrityError, match="table"):
            load_bundle(directory)
        # Recovery path: skip the table, keep everything else.
        loaded = load_bundle(directory, load_table=False)
        assert loaded.table is None and loaded.model is not None


class TestRegistryTables:
    def test_compile_table_retrofits_published_bundle(self, tiny_bundle,
                                                      tmp_path):
        bundle, _ = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(bundle, routine="gemm")
        assert not registry.has_table(registry.resolve("gemm", "tiny"))

        info = registry.compile_table("gemm", "tiny", resolution=6)
        assert (info["version"], info["table_from_version"]) == (2, 1)
        assert info["table"]["lattice_shape"]
        assert registry.has_table(registry.resolve("gemm", "tiny"))
        assert not registry.has_table(registry.resolve("gemm", "tiny",
                                                       version=1))
        assert registry.inspect("gemm", "tiny")["has_table"]

        loaded = registry.load("gemm", "tiny")
        assert loaded.table is not None
        shapes = lattice_shapes(loaded.table)
        predictor = loaded.predictor(cache_size=256)
        reference = bundle.predictor(cache_size=256, compiled=False,
                                     table=False)
        np.testing.assert_array_equal(
            predictor.predict_threads_batch(shapes),
            reference.predict_threads_batch(shapes))
        assert predictor.n_model_passes == 0

    def test_recompile_is_idempotent(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(bundle, routine="gemm")
        registry.compile_table("gemm", "tiny", resolution=6)
        info = registry.compile_table("gemm", "tiny", resolution=6)
        assert info["up_to_date"] and info["version"] == 2
        assert len(registry.entries()) == 2  # no duplicate version minted

    def test_compile_table_recovers_corrupt_artifact(self, tiny_bundle,
                                                     tmp_path):
        bundle, _ = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(bundle, routine="gemm")
        registry.compile_table("gemm", "tiny", resolution=6)
        record = registry.resolve("gemm", "tiny")
        with open(os.path.join(record.path, TABLE_FILENAME), "wb") as fh:
            fh.write(b"\x80\x04 garbage")
        info = registry.compile_table("gemm", "tiny", resolution=6)
        assert info["version"] == 3
        assert registry.load("gemm", "tiny").table is not None


class TestServiceIntegration:
    @pytest.fixture()
    def table_service(self, tiny_bundle):
        bundle, sim = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        bundle.compile_table(resolution=6)
        service = GemmService.from_bundle(bundle, sim, cache_size=256)
        return bundle, sim, service

    def test_from_bundle_serves_through_the_table(self, table_service):
        bundle, sim, service = table_service
        assert service.predictor.tabled
        shapes = lattice_shapes(bundle.table)[:10]
        reference = GemmService(bundle.predictor(cache_size=256,
                                                 compiled=False, table=False),
                                backend=sim)
        np.testing.assert_array_equal(service.predict_batch(shapes),
                                      reference.predict_batch(shapes))
        assert service.predictor.n_model_passes == 0

    def test_stats_expose_fallback_counters(self, table_service):
        bundle, _, service = table_service
        on = lattice_shapes(bundle.table)[:4]
        off = off_lattice_shapes(3, seed=21)
        service.predict_batch(on + off)
        stats = service.stats()
        assert stats["table_hits"] == len(on)
        assert stats["table_fallbacks"] == len(off)
        assert stats["routines"]["gemm"]["table_hits"] == len(on)
        assert stats["routines"]["gemm"]["table_fallbacks"] == len(off)

    def test_tableless_service_keeps_historic_stats_shape(self, tiny_bundle):
        bundle, sim = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        service = GemmService.from_bundle(bundle, sim)
        service.predict_batch([(64, 512, 64)])
        stats = service.stats()
        assert "table_hits" not in stats
        assert "table_hits" not in stats["routines"]["gemm"]

    def test_reload_folds_counters_into_retired(self, table_service):
        bundle, _, service = table_service
        on = lattice_shapes(bundle.table)[:5]
        service.predict_batch(on)
        service.reload(bundle)
        service.predict_batch(lattice_shapes(bundle.table)[5:8])
        assert service.stats()["table_hits"] == 8  # retired + live
        assert service.stats()["routines"]["gemm"]["table_hits"] == 8

    def test_server_telemetry_records_table_traffic(self, table_service):
        from repro.gemm.interface import GemmSpec
        from repro.serve import GemmServer, poisson_trace, replay_trace

        bundle, _, service = table_service
        shapes = lattice_shapes(bundle.table)[:12]
        pool = [GemmSpec(m, k, n) for m, k, n in shapes]
        trace = poisson_trace(pool, rate_hz=5000.0, n_requests=24, seed=0)
        server = GemmServer(service, max_batch=8, max_wait_ms=2.0)
        outcome = replay_trace(server, trace)
        assert outcome.served == 24
        stats = server.stats()
        assert stats["table_hits"] == len(shapes)  # one per unique shape
        assert stats["routines"]["gemm"]["table_hits"] == len(shapes)

    def test_server_sums_each_engine_once(self, table_service):
        """Server-level table counts are the engines' own, summed over
        distinct engines: a service behind two shards counts once, a
        table-less engine adds nothing, and a call made on an engine
        directly counts too."""
        import asyncio

        from repro.gemm.interface import GemmSpec
        from repro.serve import GemmServer

        bundle, sim, service = table_service
        plain = GemmService.from_bundle(
            dataclasses.replace(bundle, table=None), sim)
        on = [GemmSpec(*s) for s in lattice_shapes(bundle.table)[:4]]
        off = [GemmSpec(*s) for s in off_lattice_shapes(4, seed=21)]
        server = GemmServer({"a": service, "b": service, "c": plain})
        assert "table_hits" not in server.stats()
        service.predict(off.pop())

        async def scenario():
            async with server:
                for shard, specs in (("a", on), ("b", off), ("c", on + off)):
                    await asyncio.gather(*(server.submit(spec, shard=shard)
                                           for spec in specs))

        asyncio.run(scenario())
        stats = server.stats()
        assert (stats["table_hits"], stats["table_fallbacks"]) == (4, 4)
        assert stats["routines"]["gemm"]["table_hits"] == 4
        assert stats["routines"]["gemm"]["table_fallbacks"] == 4
        assert stats["routines"]["gemm"]["served"] == 14
