"""Persistence of the installation artefacts.

A trained bundle is the pair the paper's Fig. 2 outputs: the config
(JSON, human-readable) plus the fitted preprocessing pipeline and model
(pickle — the models are plain numpy-holding Python objects, and pickle
is the appropriate tool for same-trust-domain persistence, exactly as
scikit-learn recommends for its own estimators).

Every bundle directory also carries a ``MANIFEST.json`` recording the
serialization **schema version** and a **SHA-256 checksum per artefact
file**, so a corrupted, truncated or tampered pickle fails loudly at
load time (:class:`BundleIntegrityError` with a clear message, never a
bare pickle traceback).  This build reads schema 4 only: a directory
written under any other schema, or with no manifest at all, is refused
with a :class:`BundleSchemaError` that says to re-install or
re-publish the model.

One artefact is optional: ``adsala_table.pkl``, the bundle's
:class:`~repro.compile.table.DecisionTable` (the model pre-evaluated
over the campaign's shape lattice).  Tables are opt-in —
:func:`save_bundle` persists one only when the bundle already carries
it (built via ``TrainedBundle.compile_table`` or the registry's
``compile_table`` retrofit).  A table's manifest entry is its
``describe()`` summary, which for traffic-refined tables (the
registry's ``refine_table`` retrofit) carries the refinement
provenance: ``source="refined"``, the ``generation`` counter and the
version the lattice was densified from.

The compiled inference plan is not an artefact: it is derived from the
pipeline and model whenever a serving predictor is built
(``TrainedBundle.predictor(compiled=True)``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle

from repro.core.config import AdsalaConfig

CONFIG_FILENAME = "adsala_config.json"
MODEL_FILENAME = "adsala_model.pkl"
TABLE_FILENAME = "adsala_table.pkl"
MANIFEST_FILENAME = "MANIFEST.json"

#: The artefact layout and pickle payload structure this build writes
#: and reads: config + model, plus the optional decision table.  Bump on
#: any incompatible change; loaders refuse every other value.
SCHEMA_VERSION = 4

_REINSTALL_HINT = "re-install or re-publish the model with this build"


class BundleError(RuntimeError):
    """Base class for artefact persistence failures."""


class BundleSchemaError(BundleError):
    """The bundle was written by an incompatible serialization schema."""


class BundleIntegrityError(BundleError):
    """A bundle artefact is corrupt, truncated or does not match its
    recorded checksum."""


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _combine_digests(file_digests: dict) -> str:
    """Bundle identity from the per-file SHA-256 digests, taken in
    sorted filename order."""
    digest = hashlib.sha256()
    for name in sorted(file_digests):
        digest.update(name.encode("utf-8"))
        digest.update(bytes.fromhex(file_digests[name]))
    return digest.hexdigest()


def _artifact_names(directory) -> list:
    """The artefact files a bundle directory carries (the table is
    optional)."""
    names = [CONFIG_FILENAME, MODEL_FILENAME]
    if os.path.exists(os.path.join(directory, TABLE_FILENAME)):
        names.append(TABLE_FILENAME)
    return names


def bundle_checksum(directory) -> str:
    """Combined SHA-256 over the artefact files present.

    Content-derived only (config JSON bytes + pickle bytes), so two
    installations that produced identical artefacts have identical
    checksums wherever and whenever they were written.  This is the
    identity the model registry stores and the resume tests compare.
    """
    return _combine_digests(
        {name: _sha256_file(os.path.join(directory, name))
         for name in _artifact_names(directory)})


def save_bundle(bundle, directory, extra_manifest: dict = None) -> dict:
    """Write ``bundle`` (a :class:`~repro.core.training.TrainedBundle`).

    Creates ``adsala_config.json``, ``adsala_model.pkl``, the decision
    table ``adsala_table.pkl`` (only when the bundle already carries
    one: table compilation re-evaluates the whole lattice, so it never
    happens implicitly here) and ``MANIFEST.json`` in ``directory``
    (created if missing) and returns the manifest dict.
    ``extra_manifest`` entries (registry metadata: routine, machine,
    version...) are merged into the manifest.
    """
    os.makedirs(directory, exist_ok=True)
    bundle.config.save(os.path.join(directory, CONFIG_FILENAME))
    with open(os.path.join(directory, MODEL_FILENAME), "wb") as fh:
        pickle.dump({"pipeline": bundle.pipeline, "model": bundle.model,
                     "report": bundle.report}, fh)
    table_path = os.path.join(directory, TABLE_FILENAME)
    if bundle.table is not None:
        with open(table_path, "wb") as fh:
            pickle.dump({"table": bundle.table}, fh)
    elif os.path.exists(table_path):  # stale table from an earlier save
        os.remove(table_path)
    files = {name: _sha256_file(os.path.join(directory, name))
             for name in _artifact_names(directory)}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "files": files,
        "checksum": _combine_digests(files),
        "model_name": bundle.config.model_name,
        "machine": bundle.config.machine,
    }
    if bundle.table is not None:
        manifest["table"] = bundle.table.describe()
    if extra_manifest:
        manifest.update(extra_manifest)
    manifest_path = os.path.join(directory, MANIFEST_FILENAME)
    tmp_path = manifest_path + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp_path, manifest_path)  # atomic: never a torn manifest
    return manifest


def load_manifest(directory) -> dict:
    """The bundle's manifest; a directory without one is refused."""
    path = os.path.join(directory, MANIFEST_FILENAME)
    if not os.path.exists(path):
        raise BundleSchemaError(
            f"bundle at {directory} has no {MANIFEST_FILENAME}: it was "
            f"written before bundles were versioned — {_REINSTALL_HINT}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, OSError) as exc:
        raise BundleIntegrityError(
            f"unreadable bundle manifest {path}: {exc}") from exc


def verify_bundle(directory, ignore=()) -> dict:
    """Validate schema version and artefact checksums; returns the manifest.

    ``ignore`` names artefact files to skip (the decision table, when
    it is about to be rebuilt anyway).
    """
    manifest = load_manifest(directory)
    schema = manifest.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise BundleSchemaError(
            f"bundle at {directory} uses serialization schema {schema!r}; "
            f"this build reads schema {SCHEMA_VERSION} only — "
            f"{_REINSTALL_HINT}")
    for name, expected in manifest.get("files", {}).items():
        if name in ignore:
            continue
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise BundleIntegrityError(
                f"bundle artefact missing: {path} (recorded in manifest)")
        actual = _sha256_file(path)
        if actual != expected:
            raise BundleIntegrityError(
                f"bundle artefact {path} is corrupt: SHA-256 {actual[:12]}… "
                f"does not match the manifest's {expected[:12]}… — the file "
                f"was modified or truncated after installation")
    return manifest


def _load_table(directory, manifest: dict):
    """The bundle's decision table, or ``None`` when it has none.

    Refuses a table file the manifest does not cover — an unmanifested
    artefact would be unpickled with no checksum protecting it; never
    execute an unverified pickle.  Unpickling failures wrap in
    :class:`BundleIntegrityError` with the recovery command.
    """
    path = os.path.join(directory, TABLE_FILENAME)
    if not os.path.exists(path):
        return None
    rebuild = "models --compile-table"
    if TABLE_FILENAME not in manifest.get("files", {}):
        raise BundleIntegrityError(
            f"bundle artefact {path} is not recorded in the bundle "
            f"manifest — the file was added after installation; remove "
            f"it, or re-run {rebuild!r} to build a verified one")
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)["table"]
    except Exception as exc:
        raise BundleIntegrityError(
            f"cannot unpickle bundle artefact {path}: {exc!r} — the "
            f"file is corrupt or was written by an incompatible build; "
            f"re-run {rebuild!r} to rebuild it") from exc


def load_bundle(directory, load_table: bool = True):
    """Load a bundle saved by :func:`save_bundle`.

    The schema is checked and every artefact is checksum-verified
    first; unpickling failures are wrapped in
    :class:`BundleIntegrityError`.  The decision table, when present,
    is loaded onto the bundle.  ``load_table=False`` skips (and does
    not verify) it — the recovery path ``models --compile-table`` uses
    this to rebuild a corrupt or deleted table while still verifying
    the config and model.
    """
    from repro.core.training import TrainedBundle

    config_path = os.path.join(directory, CONFIG_FILENAME)
    model_path = os.path.join(directory, MODEL_FILENAME)
    for path in (config_path, model_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing installation artefact: {path}")
    manifest = verify_bundle(
        directory, ignore=() if load_table else (TABLE_FILENAME,))
    config = AdsalaConfig.load(config_path)
    try:
        with open(model_path, "rb") as fh:
            payload = pickle.load(fh)
        pipeline, model = payload["pipeline"], payload["model"]
    except BundleError:
        raise
    except Exception as exc:
        raise BundleIntegrityError(
            f"cannot unpickle bundle artefact {model_path}: {exc!r} — the "
            f"file is corrupt or was written by an incompatible build") \
            from exc
    table = _load_table(directory, manifest) if load_table else None
    return TrainedBundle(config=config, pipeline=pipeline,
                         model=model, report=payload.get("report"),
                         table=table)
