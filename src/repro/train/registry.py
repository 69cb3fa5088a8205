"""Versioned model registry with atomic ``latest`` pointers.

The registry replaces "a directory with two files" as the unit of model
deployment.  On-disk layout::

    <root>/
      registry.json                  # {"schema_version": 4}
      bundles/<routine>-<machine>-v<N>/
          adsala_config.json
          adsala_model.pkl
          adsala_table.pkl           # optional: the decision table
          MANIFEST.json              # schema, SHA-256 checksums, metadata
      refs/<routine>/<machine>.json  # {"latest": N, "versions": {...}}

Every publish writes a fresh immutable bundle directory (staged under a
temporary name, then atomically renamed), records the bundle's content
checksum and selection-report metadata in its manifest, and flips the
per-(routine, machine) ``latest`` ref with an atomic replace — a reader
(or a serving process hot-reloading between micro-batches) never sees a
half-written bundle.  Loads verify checksums and schema via
:func:`~repro.core.serialize.verify_bundle`, failing loudly on
corruption or on a bundle written under another schema.  The table is
there once :meth:`ModelRegistry.compile_table` has built one; the
compiled inference plan is lowered when a serving predictor is built,
never stored.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass

import numpy as np

from repro.core.routines import REGISTRY, routine_names
from repro.core.serialize import (SCHEMA_VERSION, TABLE_FILENAME,
                                  BundleError, _combine_digests,
                                  _sha256_file, load_bundle, load_manifest,
                                  save_bundle)
from repro.obs.metrics import default_registry

#: Import-time snapshot of the central routine registry
#: (:mod:`repro.core.routines`) — used for static listings such as CLI
#: choices.  Validation consults the *live* ``REGISTRY`` so routines
#: registered later are publishable without re-imports.
ROUTINES = routine_names()


class RegistryError(RuntimeError):
    """Registry-level failures (unknown entry, version conflicts...)."""


@dataclass(frozen=True)
class ModelRecord:
    """One published model version."""

    routine: str
    machine: str
    version: int
    path: str
    checksum: str
    model_name: str
    latest: bool = False

    @property
    def ref(self) -> str:
        suffix = "" if self.version is None else f"@{self.version}"
        return f"{self.routine}/{self.machine}{suffix}"


class ModelRegistry:
    """Filesystem-backed registry of trained bundles.

    Parameters
    ----------
    root:
        Registry directory; created (with its ``registry.json``) on
        first publish.
    """

    def __init__(self, root):
        self.root = os.fspath(root)

    # -- paths -----------------------------------------------------------
    def _meta_path(self) -> str:
        return os.path.join(self.root, "registry.json")

    def _bundle_dir(self, routine: str, machine: str, version: int) -> str:
        return os.path.join(self.root, "bundles",
                            f"{routine}-{machine}-v{version}")

    def _ref_path(self, routine: str, machine: str) -> str:
        return os.path.join(self.root, "refs", routine, f"{machine}.json")

    def _init_root(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        meta = self._meta_path()
        if not os.path.exists(meta):
            with open(meta + ".tmp", "w") as fh:
                json.dump({"schema_version": SCHEMA_VERSION}, fh)
            os.replace(meta + ".tmp", meta)

    def _read_ref(self, routine: str, machine: str) -> dict:
        path = self._ref_path(routine, machine)
        if not os.path.exists(path):
            return {"latest": None, "versions": {}}
        with open(path) as fh:
            return json.load(fh)

    def _write_ref(self, routine: str, machine: str, ref: dict) -> None:
        path = self._ref_path(routine, machine)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            json.dump(ref, fh, indent=2, sort_keys=True)
        os.replace(path + ".tmp", path)  # atomic latest-pointer flip

    # -- publish ---------------------------------------------------------
    def publish(self, bundle, routine: str = "gemm", machine: str = None,
                extra: dict = None) -> ModelRecord:
        """Write ``bundle`` as the next version of (routine, machine).

        The bundle directory is staged under a temporary name and
        renamed into place before the ``latest`` ref moves, so
        concurrent readers only ever resolve complete bundles.
        Returns the new :class:`ModelRecord`.
        """
        if routine not in REGISTRY:
            raise RegistryError(f"unknown routine {routine!r}; "
                                f"registered: {sorted(REGISTRY.names())}")
        machine = machine or bundle.config.machine
        self._init_root()
        ref = self._read_ref(routine, machine)
        version = max((int(v) for v in ref["versions"]), default=0) + 1
        final_dir = self._bundle_dir(routine, machine, version)
        staging = final_dir + ".staging"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        manifest = save_bundle(bundle, staging, extra_manifest={
            "routine": routine, "machine": machine, "version": version,
            "selection": (bundle.report.as_table()
                          if bundle.report is not None else None),
            **(extra or {}),
        })
        os.makedirs(os.path.dirname(final_dir), exist_ok=True)
        os.replace(staging, final_dir)
        ref["versions"][str(version)] = {
            "checksum": manifest["checksum"],
            "model_name": bundle.config.model_name,
        }
        ref["latest"] = version
        self._write_ref(routine, machine, ref)
        # Registry mutations are audit events.
        registry = default_registry()
        registry.event("registry_publish", routine=routine, machine=machine,
                       version=version, checksum=manifest["checksum"],
                       model_name=bundle.config.model_name)
        registry.counter("registry_publishes",
                         routine=routine, machine=machine).inc()
        return ModelRecord(routine=routine, machine=machine, version=version,
                           path=final_dir, checksum=manifest["checksum"],
                           model_name=bundle.config.model_name, latest=True)

    # -- resolve/load ----------------------------------------------------
    def resolve(self, routine: str, machine: str,
                version="latest") -> ModelRecord:
        """Look up one version (``"latest"``, an int, or a digit string)."""
        ref = self._read_ref(routine, machine)
        if not ref["versions"]:
            raise RegistryError(
                f"no models published for {routine}/{machine} "
                f"in registry {self.root}")
        if version in (None, "latest"):
            version = ref["latest"]
        version = int(version)
        entry = ref["versions"].get(str(version))
        if entry is None:
            raise RegistryError(
                f"{routine}/{machine} has no version {version} "
                f"(published: {sorted(int(v) for v in ref['versions'])})")
        return ModelRecord(routine=routine, machine=machine, version=version,
                           path=self._bundle_dir(routine, machine, version),
                           checksum=entry["checksum"],
                           model_name=entry.get("model_name", ""),
                           latest=version == ref["latest"])

    def load(self, routine: str, machine: str, version="latest"):
        """Checksum-verified bundle load; raises loudly on corruption."""
        record = self.resolve(routine, machine, version)
        bundle = load_bundle(record.path)  # verifies manifest + checksums
        # The artefact files were just hashed against the manifest, so
        # the bundle identity derives from those digests — no second
        # read of the files is needed to cross-check the registry index.
        manifest = load_manifest(record.path)
        actual = _combine_digests(manifest["files"])
        if actual != record.checksum:
            raise BundleError(
                f"registry ref for {record.ref} records checksum "
                f"{record.checksum[:12]}… but the bundle directory hashes "
                f"to {actual[:12]}… — the registry index and the bundle "
                f"disagree; re-publish the model")
        return bundle

    # -- decision tables -------------------------------------------------
    def has_table(self, record: ModelRecord) -> bool:
        """Whether a bundle directory carries a decision-table artefact."""
        return os.path.exists(os.path.join(record.path, TABLE_FILENAME))

    def compile_table(self, routine: str, machine: str, version="latest",
                      resolution: int = 16, snap: str = "exact",
                      n_probe: int = 512) -> dict:
        """(Re)build a bundle's decision table, published as a new version.

        Loads the source bundle (config and model checksum-verified;
        an existing table artefact is neither loaded nor verified, so a
        corrupt or deleted table is recoverable here), pre-evaluates
        the compiled plan over the campaign lattice — validated bitwise
        on every lattice point — and publishes the result as the next
        immutable version with a ``table_from_version`` provenance
        entry.
        Idempotent: a source bundle already carrying a byte-identical
        table reports ``up_to_date`` and mints no duplicate version.
        """
        record = self.resolve(routine, machine, version)
        bundle = load_bundle(record.path, load_table=False)
        table = bundle.compile_table(resolution=resolution, snap=snap,
                                     n_probe=n_probe, force=True)
        if self.has_table(record):
            # Table pickling is deterministic, so byte-equality with
            # the artefact actually on disk (not the manifest's record
            # of it — a corrupt file must not read as current) means a
            # republish would mint an identical duplicate version;
            # report up-to-date instead.
            existing = _sha256_file(
                os.path.join(record.path, TABLE_FILENAME))
            fresh = hashlib.sha256(
                pickle.dumps({"table": table})).hexdigest()
            if existing == fresh:
                manifest = load_manifest(record.path)
                return {"routine": record.routine,
                        "machine": record.machine,
                        "version": record.version,
                        "checksum": record.checksum,
                        "table": manifest.get("table"),
                        "up_to_date": True}
        new_record = self.publish(
            bundle, routine=routine, machine=machine,
            extra={"table_from_version": record.version})
        manifest = load_manifest(new_record.path)
        return {"routine": new_record.routine, "machine": new_record.machine,
                "version": new_record.version,
                "table_from_version": record.version,
                "checksum": new_record.checksum,
                "table": manifest.get("table")}

    def refine_table(self, routine: str, machine: str, version="latest",
                     shapes=(), max_new_per_axis: int = 8,
                     n_probe: int = 512) -> dict:
        """Densify a bundle's table lattice where traffic missed it.

        ``shapes`` is fallback evidence — ``(m, k, n)`` triples that
        probed the published table and fell through (typically a
        predictor's ``fallback_shapes`` reservoir).  The lattice axes
        gain the most-missed off-lattice values
        (:func:`~repro.compile.table.refine_axes`), the table is
        rebuilt over the densified lattice with the same snap mode and
        full build-time validation, and the result is published as the
        next immutable version — the same staging/atomic-ref/provenance
        discipline as :meth:`compile_table`, with a ``generation``
        counter in the table metadata tracking how many refinement
        rounds the lattice has absorbed.

        Idempotent by construction: once the missed values are lattice
        ticks, re-offering the same misses changes no axis, and the
        summary reports ``up_to_date`` without minting a version (so a
        ``serve --refine-after`` loop cannot publish forever on a
        stable traffic mix).
        """
        from repro.compile.table import refine_axes

        shapes = list(shapes)
        record = self.resolve(routine, machine, version)
        bundle = load_bundle(record.path)  # table needed: axes + generation
        old_table = bundle.table
        if old_table is None:
            raise RegistryError(
                f"{record.ref} has no decision table to refine — run "
                f"compile_table first")
        refined = refine_axes(old_table.axes, shapes,
                              max_new_per_axis=max_new_per_axis)
        generation = int(old_table.meta.get("generation", 0))
        if all(np.array_equal(a, b)
               for a, b in zip(refined, old_table.axes)):
            return {"routine": record.routine, "machine": record.machine,
                    "version": record.version, "checksum": record.checksum,
                    "generation": generation,
                    "n_miss_shapes": len(shapes),
                    "up_to_date": True}
        table = bundle.compile_table(axes=refined, snap=old_table.snap,
                                     n_probe=n_probe, force=True)
        table.meta.update({
            "source": "refined",
            "generation": generation + 1,
            "refined_from_version": record.version,
            "n_miss_shapes": len(shapes),
        })
        new_record = self.publish(
            bundle, routine=routine, machine=machine,
            extra={"refined_from_version": record.version,
                   "table_generation": generation + 1})
        manifest = load_manifest(new_record.path)
        return {"routine": new_record.routine, "machine": new_record.machine,
                "version": new_record.version,
                "refined_from_version": record.version,
                "generation": generation + 1,
                "n_miss_shapes": len(shapes),
                "checksum": new_record.checksum,
                "table": manifest.get("table")}

    # -- watch / generation ----------------------------------------------
    def latest_version(self, routine: str, machine: str):
        """The cell's ``latest`` version number, or ``None`` if unpublished."""
        return self._read_ref(routine, machine)["latest"]

    def cell_generation(self, routine: str, machine: str) -> tuple:
        """Cheap change token for one ``(routine, machine)`` cell.

        Returns ``(latest_version, ref_mtime_ns)``.  Every publish
        rewrites the ref file atomically, so the token changes iff the
        cell changed — pollers compare the mtime first and only parse
        the JSON when it moved.  An unpublished cell yields
        ``(None, None)``.
        """
        path = self._ref_path(routine, machine)
        try:
            mtime = os.stat(path).st_mtime_ns
        except OSError:
            return (None, None)
        return (self.latest_version(routine, machine), mtime)

    def watch(self, cells, versions: dict = None) -> "RegistryWatcher":
        """A :class:`RegistryWatcher` over ``cells`` of this registry."""
        return RegistryWatcher(self, cells, versions=versions)

    # -- garbage collection ----------------------------------------------
    def gc(self, keep_last: int = 1, routine: str = None,
           machine: str = None) -> dict:
        """Delete old bundle versions, keeping the newest ``keep_last``.

        Applies per ``(routine, machine)`` cell (optionally filtered to
        one routine and/or machine): the highest ``keep_last`` version
        numbers survive, and the version the ``latest`` ref points at
        is *never* collected even if it is older than the keep window
        (a rollback may have moved ``latest`` backwards).  The ref is
        rewritten — atomically — before any bundle directory is
        removed, so a concurrent reader never resolves a version whose
        files are mid-deletion.  Returns a summary with the removed
        refs; collection is idempotent.
        """
        if int(keep_last) < 1:
            raise RegistryError("gc keep_last must be >= 1")
        keep_last = int(keep_last)
        removed, n_kept = [], 0
        cells = sorted({(r.routine, r.machine) for r in self.entries()})
        for cell_routine, cell_machine in cells:
            if routine is not None and cell_routine != routine:
                continue
            if machine is not None and cell_machine != machine:
                continue
            ref = self._read_ref(cell_routine, cell_machine)
            versions = sorted((int(v) for v in ref["versions"]), reverse=True)
            keep = set(versions[:keep_last])
            if ref["latest"] is not None:
                keep.add(int(ref["latest"]))
            doomed = [v for v in versions if v not in keep]
            n_kept += len(versions) - len(doomed)
            if not doomed:
                continue
            records = [ModelRecord(
                routine=cell_routine, machine=cell_machine, version=v,
                path=self._bundle_dir(cell_routine, cell_machine, v),
                checksum=ref["versions"][str(v)]["checksum"],
                model_name=ref["versions"][str(v)].get("model_name", ""))
                for v in doomed]
            for v in doomed:
                del ref["versions"][str(v)]
            self._write_ref(cell_routine, cell_machine, ref)
            for record in records:
                if os.path.isdir(record.path):
                    shutil.rmtree(record.path)
                removed.append(record)
        if removed:
            registry = default_registry()
            registry.event("registry_gc", keep_last=keep_last,
                           removed=[r.ref for r in removed])
            registry.counter("registry_gc_removed").inc(len(removed))
        return {"removed": [r.ref for r in removed],
                "n_removed": len(removed), "n_kept": n_kept,
                "keep_last": keep_last}

    # -- enumerate -------------------------------------------------------
    def entries(self) -> list:
        """Every published (routine, machine, version), sorted."""
        refs_root = os.path.join(self.root, "refs")
        records = []
        if not os.path.isdir(refs_root):
            return records
        for routine in sorted(os.listdir(refs_root)):
            routine_dir = os.path.join(refs_root, routine)
            for fname in sorted(os.listdir(routine_dir)):
                if not fname.endswith(".json"):
                    continue
                machine = fname[:-len(".json")]
                ref = self._read_ref(routine, machine)
                for v in sorted(int(x) for x in ref["versions"]):
                    entry = ref["versions"][str(v)]
                    records.append(ModelRecord(
                        routine=routine, machine=machine, version=v,
                        path=self._bundle_dir(routine, machine, v),
                        checksum=entry["checksum"],
                        model_name=entry.get("model_name", ""),
                        latest=v == ref["latest"]))
        return records

    def inspect(self, routine: str, machine: str, version="latest") -> dict:
        """The resolved record plus its bundle manifest (no unpickling)."""
        record = self.resolve(routine, machine, version)
        manifest = load_manifest(record.path)
        return {"routine": record.routine, "machine": record.machine,
                "version": record.version, "latest": record.latest,
                "path": record.path, "checksum": record.checksum,
                "has_table": self.has_table(record), "manifest": manifest}


class RegistryWatcher:
    """Poll a set of ``(routine, machine)`` cells for new ``latest`` refs.

    The fleet's workers watch the registry with one of these: each
    :meth:`poll` stats the cells' ref files (nanosecond mtimes — a
    publish always rewrites the ref atomically) and only parses the
    JSON of cells whose token moved, so an idle poll costs one
    ``stat`` per cell and zero reads.  ``versions`` seeds the known
    state (e.g. the versions a worker actually loaded); cells default
    to whatever is ``latest`` at construction, so only publishes
    *after* the watcher exists count as changes.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` to watch.
    cells:
        Iterable of ``(routine, machine)`` pairs.
    versions:
        Optional ``{(routine, machine): version}`` overriding the
        initial known version per cell.
    """

    def __init__(self, registry: ModelRegistry, cells, versions: dict = None):
        self.registry = registry
        self.generation = 0  # bumps once per detected change
        self._known: dict = {}
        versions = versions or {}
        for cell in cells:
            routine, machine = cell
            latest, mtime = registry.cell_generation(routine, machine)
            known = versions.get((routine, machine), latest)
            self._known[(routine, machine)] = [mtime, known]

    @property
    def cells(self) -> list:
        return sorted(self._known)

    def poll(self) -> list:
        """Changed cells since the last poll, as ``ModelRecord`` list.

        A cell reports at most its *newest* state: intermediate
        versions published between two polls collapse into one record
        (the fleet only ever rolls to ``latest``).
        """
        changed = []
        for (routine, machine), state in self._known.items():
            latest, mtime = self.registry.cell_generation(routine, machine)
            if mtime == state[0]:
                continue
            state[0] = mtime
            if latest is None or latest == state[1]:
                continue
            state[1] = latest
            self.generation += 1
            changed.append(self.registry.resolve(routine, machine, latest))
        return changed
