"""Bundle persistence hardening: manifests, checksums, schema refusal."""

import json
import os
import pickle

import pytest

from repro.core.serialize import (CONFIG_FILENAME, MANIFEST_FILENAME,
                                  MODEL_FILENAME, SCHEMA_VERSION,
                                  BundleIntegrityError, BundleSchemaError,
                                  bundle_checksum, load_bundle, save_bundle)


@pytest.fixture
def saved(tiny_bundle, tmp_path):
    bundle, _ = tiny_bundle
    directory = tmp_path / "install"
    manifest = save_bundle(bundle, directory)
    return bundle, directory, manifest


class TestManifest:
    def test_save_writes_schema_and_checksums(self, saved):
        _, directory, manifest = saved
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert set(manifest["files"]) == {CONFIG_FILENAME, MODEL_FILENAME}
        assert manifest["checksum"] == bundle_checksum(directory)
        on_disk = json.loads((directory / MANIFEST_FILENAME).read_text())
        assert on_disk == manifest

    def test_checksum_is_content_derived(self, saved, tmp_path):
        bundle, directory, _ = saved
        save_bundle(bundle, tmp_path / "again")
        assert bundle_checksum(directory) \
            == bundle_checksum(tmp_path / "again")


class TestVerification:
    def test_clean_bundle_loads(self, saved):
        bundle, directory, _ = saved
        loaded = load_bundle(directory)
        assert loaded.config == bundle.config

    def test_truncated_pickle_fails_loudly(self, saved):
        _, directory, _ = saved
        model_path = directory / MODEL_FILENAME
        model_path.write_bytes(model_path.read_bytes()[:64])
        with pytest.raises(BundleIntegrityError, match="corrupt"):
            load_bundle(directory)

    def test_flipped_config_byte_fails_loudly(self, saved):
        _, directory, _ = saved
        config_path = directory / CONFIG_FILENAME
        config_path.write_text(config_path.read_text().replace(
            '"tiny"', '"scam"'))
        with pytest.raises(BundleIntegrityError, match="does not match"):
            load_bundle(directory)

    def test_future_schema_is_refused(self, saved):
        _, directory, manifest = saved
        manifest["schema_version"] = SCHEMA_VERSION + 1
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleSchemaError, match="schema"):
            load_bundle(directory)

    def test_malformed_payload_wrapped(self, saved):
        from repro.core.serialize import _sha256_file, load_manifest

        _, directory, _ = saved
        (directory / MODEL_FILENAME).write_bytes(
            pickle.dumps({"pipeline": None}))  # missing "model" key
        # Make the manifest match so only the *payload shape* is wrong.
        manifest = load_manifest(directory)
        manifest["files"][MODEL_FILENAME] = _sha256_file(
            os.path.join(directory, MODEL_FILENAME))
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleIntegrityError, match="unpickle"):
            load_bundle(directory)


class TestLegacyCompat:
    def test_pre_registry_directory_is_refused(self, saved):
        """A directory with no manifest has nothing to verify its
        pickles against: loading it is refused with a re-install
        hint."""
        _, directory, _ = saved
        os.remove(directory / MANIFEST_FILENAME)
        with pytest.raises(BundleSchemaError, match="re-install"):
            load_bundle(directory)

    def test_missing_artefacts_still_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nowhere")
