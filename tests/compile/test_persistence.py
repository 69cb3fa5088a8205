"""Compiled plans and bundles on disk: what is stored, what is lowered.

A bundle directory holds its config and model (plus an optional
decision table); the compiled plan is lowered whenever a serving
predictor is built, so a loaded bundle serves compiled with choices
bitwise equal to the object path.
"""

import os

import numpy as np
import pytest

from repro.core.serialize import (CONFIG_FILENAME, MANIFEST_FILENAME,
                                  MODEL_FILENAME, SCHEMA_VERSION,
                                  load_bundle, save_bundle)
from repro.engine.service import GemmService
from repro.train.registry import ModelRegistry

#: The files a bundle without a decision table consists of.
BUNDLE_FILES = {CONFIG_FILENAME, MODEL_FILENAME, MANIFEST_FILENAME}


@pytest.fixture
def saved(tiny_bundle, tmp_path):
    bundle, sim = tiny_bundle
    directory = tmp_path / "install"
    manifest = save_bundle(bundle, directory)
    return bundle, sim, directory, manifest


class UnlowerableModel:
    """Pickles fine, lowers to nothing (module-level for pickle)."""

    def predict(self, X):
        return X[:, 0]


class TestSaveLoad:
    def test_save_writes_config_model_and_manifest_only(self, saved):
        _, _, directory, manifest = saved
        assert set(os.listdir(directory)) == BUNDLE_FILES
        assert manifest["schema_version"] == SCHEMA_VERSION == 4
        assert set(manifest["files"]) == {CONFIG_FILENAME, MODEL_FILENAME}
        assert "plan" not in manifest

    def test_loaded_plan_predicts_bitwise_identically(self, saved):
        bundle, _, directory, _ = saved
        loaded = load_bundle(directory)
        obj = bundle.predictor(cache_size=16, compiled=False)
        comp = loaded.predictor(cache_size=16, compiled=True)
        assert comp.compiled and comp.plan.fully_lowered
        shapes = [(64, 512, 64), (100, 100, 100), (1, 1, 1), (999, 31, 207)]
        np.testing.assert_array_equal(obj.predicted_runtimes_batch(shapes),
                                      comp.predicted_runtimes_batch(shapes))
        np.testing.assert_array_equal(obj.predict_threads_batch(shapes),
                                      comp.predict_threads_batch(shapes))

    def test_default_predictor_walks_the_objects(self, saved):
        """``compiled`` defaults to the object path, the oracle."""
        _, _, directory, _ = saved
        assert not load_bundle(directory).predictor().compiled


class TestRegistryPlans:
    def test_publish_stores_no_plan_and_load_serves_compiled(
            self, tiny_bundle, tmp_path):
        bundle, sim = tiny_bundle
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(bundle, routine="gemm")
        assert set(os.listdir(record.path)) == BUNDLE_FILES
        assert "has_plan" not in registry.inspect("gemm", "tiny")
        service = GemmService.from_bundle(registry.load("gemm", "tiny"), sim)
        assert service.predictor.compiled
        reference = GemmService(bundle.predictor(cache_size=256,
                                                 compiled=False),
                                backend=sim)
        specs = [(64, 512, 64), (128, 128, 128), (64, 512, 64)]
        np.testing.assert_array_equal(service.predict_batch(specs),
                                      reference.predict_batch(specs))

    def test_unlowerable_bundle_serves_on_the_object_path(self, tiny_bundle,
                                                          tmp_path):
        """A bundle whose model AND pipeline keep the object path saves,
        publishes and serves: its plan lowers neither half, so every
        score comes from the objects."""
        import dataclasses

        bundle, sim = tiny_bundle
        stubborn = dataclasses.replace(bundle, pipeline=None,
                                       model=UnlowerableModel(), table=None)
        directory = tmp_path / "stubborn"
        save_bundle(stubborn, directory)
        assert set(os.listdir(directory)) == BUNDLE_FILES

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(stubborn, routine="gemm")
        service = GemmService.from_bundle(registry.load("gemm", "tiny"), sim)
        plan = service.predictor.plan
        assert plan.transform is None and plan.model is None
        reference = GemmService(stubborn.predictor(cache_size=256,
                                                   compiled=False),
                                backend=sim)
        specs = [(64, 512, 64), (333, 17, 1021), (128, 128, 128)]
        np.testing.assert_array_equal(service.predict_batch(specs),
                                      reference.predict_batch(specs))


class TestEngineIntegration:
    def test_service_uses_compiled_path_and_matches_object(self, tiny_bundle):
        bundle, sim = tiny_bundle
        compiled = GemmService.from_bundle(bundle, sim)
        assert compiled.predictor.compiled
        reference = GemmService(bundle.predictor(cache_size=256,
                                                 compiled=False),
                                backend=sim)
        shapes = [(64, 512, 64), (333, 17, 1021), (128, 128, 128)] * 2
        np.testing.assert_array_equal(compiled.predict_batch(shapes),
                                      reference.predict_batch(shapes))

    def test_reload_keeps_compiled_path(self, tiny_bundle):
        bundle, sim = tiny_bundle
        service = GemmService.from_bundle(bundle, sim)
        before = service.predict((64, 512, 64))
        service.reload(bundle)
        assert service.predictor.compiled
        assert service.predict((64, 512, 64)) == before
