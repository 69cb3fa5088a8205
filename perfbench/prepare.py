"""Prepared inputs, built once per version of the program and cached.

Everything the measured runs need but must not pay for lives here:

* the gadi production bundle (the deployment recipe of the paper
  reproduction suite: log labels, tree-family shortlist, 200 shapes
  under a 500 MB cap), published to a model registry and republished
  with its default exact-snap decision table;
* the shape universe the workload generators draw from: every lattice
  point of the published table inside the installation's memory cap,
  plus a pool of off-lattice shapes from the paper's 0-100 MB
  scrambled-Halton domain;
* the replay table: ``MachineSimulator.timed_run`` for every universe
  shape on every grid thread count, so measured runs replay the
  simulator's exact values without paying its Python cost;
* the oracle: the object-path predictor's choice for every universe
  shape (no compiled plan, no table), against which every run's
  selections are checked.

The cache key hashes every file under ``src/repro`` together with this
module, so a change to training or serving code rebuilds everything.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, "perfbench", ".cache")

MB = 1024 * 1024
MACHINE = "gadi"
ROUTINE = "gemm"
#: The gadi candidate grid of the reproduction suite.
GADI_GRID = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 96)
#: Off-lattice pool: shapes drawn from the paper's 100 MB domain.
POOL_CAP_MB = 100
POOL_SIZE = 4096
POOL_SEED = 2023
#: The simulator the fleet workers build (preset name, seed 0) and the
#: replay table reproduces.
SIM_SEED = 0


def source_hash() -> str:
    """SHA-256 over ``src/repro`` and this module (paths and bytes)."""
    digest = hashlib.sha256()
    files = []
    for base, dirs, names in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files.extend(os.path.join(base, n) for n in names
                     if n.endswith(".py"))
    files.append(os.path.abspath(__file__))
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


def _train_bundle():
    """The production bundle of the reproduction suite's speedup runs."""
    from repro.core.training import InstallationWorkflow
    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator
    from repro.ml.registry import candidate_models

    sim = MachineSimulator(by_name(MACHINE), seed=0, hyperthreading=True)
    grid = [t for t in GADI_GRID if t <= sim.max_threads(True)]
    cands = [c for c in candidate_models(budget="fast")
             if c.name in ("XGBoost", "LightGBM", "Random Forest")]
    workflow = InstallationWorkflow(
        sim, memory_cap_bytes=500 * MB, n_shapes=200, thread_grid=grid,
        label_transform="log", candidates=cands, tune_iters=2, cv_folds=2,
        eval_time_scale=0.025, seed=0)
    return workflow.run()


def _universe(bundle):
    """``(dims, on_lattice)``: capped lattice points, then the pool."""
    import numpy as np

    from repro.gemm.counts import gemm_memory_bytes
    from repro.sampling.domain import GemmDomainSampler

    cap = int(bundle.config.memory_cap_bytes)
    lattice = [tuple(int(v) for v in p)
               for p in bundle.table.lattice_points()
               if gemm_memory_bytes(*(int(v) for v in p)) <= cap]
    on_lattice = set(lattice)
    sampler = GemmDomainSampler(memory_cap_bytes=POOL_CAP_MB * MB,
                                seed=POOL_SEED)
    pool = list(dict.fromkeys(spec.dims for spec in sampler.sample(POOL_SIZE)
                              if spec.dims not in on_lattice))
    dims = np.asarray(lattice + pool, dtype=np.int64)
    mask = np.zeros(len(dims), dtype=bool)
    mask[:len(lattice)] = True
    return dims, mask


def _replay_times(dims, grid):
    """``timed_run`` of the fleet's simulator for every (shape, thread)."""
    import numpy as np

    from repro.gemm.interface import GemmSpec
    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator

    sim = MachineSimulator(by_name(MACHINE), seed=SIM_SEED)
    times = np.empty((len(dims), len(grid)), dtype=np.float64)
    for i, (m, k, n) in enumerate(dims.tolist()):
        spec = GemmSpec(m, k, n)
        for j, t in enumerate(grid):
            times[i, j] = sim.timed_run(spec, int(t), repeats=1)
    return times


def _oracle(bundle, dims):
    """Object-path choices: no plan, no table, no cache reuse."""
    import numpy as np

    predictor = bundle.predictor(compiled=False, table=False)
    out = np.empty(len(dims), dtype=np.int64)
    for start in range(0, len(dims), 512):
        chunk = [tuple(row) for row in dims[start:start + 512].tolist()]
        out[start:start + 512] = predictor.predict_threads_batch(chunk)
    return out


def build(directory: str, log=print) -> dict:
    """Train, publish, enumerate, replay and label into ``directory``."""
    import numpy as np

    from repro.train.registry import ModelRegistry

    t0 = time.perf_counter()
    bundle = _train_bundle()
    t_train = time.perf_counter() - t0
    log(f"prepare: trained {bundle.config.model_name} in {t_train:.1f}s")
    registry = ModelRegistry(os.path.join(directory, "registry"))
    registry.publish(bundle, routine=ROUTINE, machine=MACHINE)
    table_info = registry.compile_table(ROUTINE, MACHINE)
    published = registry.load(ROUTINE, MACHINE)
    grid = np.asarray(published.config.thread_grid, dtype=np.int64)
    dims, on_lattice = _universe(published)
    log(f"prepare: universe {int(on_lattice.sum())} lattice + "
        f"{int((~on_lattice).sum())} pool shapes")
    t1 = time.perf_counter()
    times = _replay_times(dims, grid)
    oracle = _oracle(published, dims)
    t_label = time.perf_counter() - t1
    log(f"prepare: replay table and oracle in {t_label:.1f}s")
    np.savez(os.path.join(directory, "universe.npz"), dims=dims,
             on_lattice=on_lattice, grid=grid, times=times, oracle=oracle)
    meta = {"model_name": published.config.model_name,
            "table_version": table_info["version"],
            "n_lattice": int(on_lattice.sum()),
            "n_pool": int((~on_lattice).sum()),
            "train_s": round(t_train, 3), "label_s": round(t_label, 3)}
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    return meta


def ensure(log=print) -> str:
    """The prepared-inputs directory for this source tree, built if absent."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    directory = os.path.join(CACHE, source_hash())
    if os.path.exists(os.path.join(directory, "meta.json")):
        return directory
    staging = directory + ".staging"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    build(staging, log=log)
    os.replace(staging, directory)
    return directory
