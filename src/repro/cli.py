"""Command-line interface: install, registry, predict, batch-serve.

Mirrors how a deployed ADSALA would be driven::

    python -m repro install --machine gadi --shapes 150 --cap-mb 100 --out ./install
    python -m repro install --machine gadi --jobs 4 --resume --out ./install
    python -m repro install --matrix --machine gadi --machine setonix \\
                            --routine gemm --routine gemv --out ./registry
    python -m repro models  --registry ./registry
    python -m repro models  --registry ./registry --inspect gemv/gadi@1
    python -m repro models  --registry ./registry --compile-table gemv/gadi@1
    python -m repro predict --install ./install 64 2048 64
    python -m repro batch   --install ./install --machine gadi shapes.txt
    python -m repro batch   --registry ./registry --machine gadi mixed.txt
    python -m repro models  --registry ./registry --gc 3
    python -m repro serve   --install ./install --rate 500 shapes.txt
    python -m repro serve   --registry ./registry --rate 500 mixed.txt
    python -m repro serve   --registry ./registry --workers 4 \\
                            --router least_loaded mixed.txt
    python -m repro serve   --install ./install --trace --obs-dir ./obs shapes.txt
    python -m repro fleet   --registry ./registry --workers 2 --route-file mixed.txt
    python -m repro obs     ./obs
    python -m repro obs     ./obs --tail 5
    python -m repro obs     ./obs --dump
    python -m repro demo    --machine setonix

The ``install`` command runs the staged training pipeline (on the named
simulated machine, or ``--machine host`` for real execution) and writes
the artefacts: ``--jobs`` fans hyper-parameter tuning across workers
(selection is bitwise identical at any worker count), ``--resume``
keeps a stage cache under the output directory so an interrupted
installation re-executes only unfinished stages, ``--routine`` trains
for a non-GEMM BLAS routine, and ``--matrix`` trains every (routine,
machine) cell and publishes versioned bundles into a model registry.
``models`` lists, inspects or retrofits registry entries
(``--compile-table`` pre-evaluates a bundle's compiled plan over the
campaign shape lattice into a tier-0 decision table and publishes it as
a new version — published bundles stay immutable — and ``--inspect``
shows the bundle's schema, model, decision-table coverage and selection
report; compiled plans are lowered whenever a serving predictor is
built, so there is nothing to compile ahead); ``predict`` loads
artefacts and reports the thread choice for a shape; ``batch`` serves a
whole shape file through the engine's
:class:`~repro.engine.service.GemmService` (deduplicated, vectorised
prediction) and reports cache effectiveness; ``serve`` replays the
shape file as a Poisson request stream through the async
:class:`~repro.serve.server.GemmServer` (micro-batching, admission
control, optionally several machine shards) and reports latency
percentiles and the batch-size distribution; ``demo`` runs a quick
before/after comparison.

``batch`` and ``serve`` also run **registry-driven**: with
``--registry`` instead of ``--install``, the request file may mix
routines (``gemv 2048 512`` lines next to plain ``m k n`` GEMM
triples) and every request is answered by its routine's own published
model — one multi-routine engine service for ``batch``, one shard per
routine behind a :class:`~repro.serve.router.RoutineRouter` for
``serve``.

``serve --workers N`` (registry mode) replays the trace through a
multi-process :class:`~repro.fleet.FleetServer` instead — N spawned
worker processes, each a full server over its own registry-loaded
service, behind a least-loaded or consistent-hash front router; with
``--watch-interval`` workers hot-reload whenever the registry's
``latest`` moves.  ``fleet`` inspects that deployment shape without
serving traffic: it spawns the workers, reports each one's pid and
loaded versions, and previews where a trace file's requests would
route.  ``models --gc N`` bounds registry disk by deleting all but the
newest N versions per (routine, machine) cell (never the one
``latest`` points at).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.library import AdsalaGemm
from repro.core.serialize import load_bundle, save_bundle
from repro.core.training import InstallationWorkflow
from repro.engine.service import GemmService
from repro.gemm.interface import GemmSpec
from repro.gemm.partition import choose_thread_grid
from repro.machine.host import HostMachine
from repro.machine.presets import PRESETS, by_name
from repro.machine.simulator import MachineSimulator
from repro.train.registry import ROUTINES

MB = 1024 * 1024


def _machine(name: str, seed: int):
    if name == "host":
        return HostMachine(seed=seed)
    return MachineSimulator(by_name(name), seed=seed)


def cmd_install(args) -> int:
    machines = args.machine or ["gadi"]
    routines = args.routine or ["gemm"]
    cache = os.path.join(args.out, ".stage_cache") if args.resume else None
    settings = dict(
        n_shapes=args.shapes, memory_cap_bytes=args.cap_mb * MB,
        budget=args.budget, label_transform=args.label_transform,
        tune_iters=args.tune_iters, cv_folds=args.cv_folds)

    if args.matrix:
        from repro.train.matrix import TrainingMatrix

        try:
            matrix = TrainingMatrix(routines, machines, registry=args.out,
                                    cache=cache, n_jobs=args.jobs,
                                    executor=args.executor, seed=args.seed,
                                    **settings)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"training matrix: {len(matrix.cells())} cells "
              f"({'/'.join(routines)} x {'/'.join(machines)}), "
              f"{args.jobs} worker(s)")
        result = matrix.run(progress=print)
        stats = result.stage_stats
        print(f"registry at {args.out}/ — {len(result.records)} bundles "
              f"published (stage cache: {stats['hits']} hits, "
              f"{stats['misses']} misses)")
        return 0

    if len(machines) > 1 or len(routines) > 1:
        print("error: several --machine/--routine values need --matrix",
              file=sys.stderr)
        return 2
    routine, machine_name = routines[0], machines[0]
    if routine == "gemm":
        machine = _machine(machine_name, args.seed)
        grid = choose_thread_grid(machine.max_threads())
        workflow = InstallationWorkflow(
            machine, thread_grid=grid, seed=args.seed, n_jobs=args.jobs,
            executor=args.executor, **settings)
    else:
        if machine_name == "host":
            print("error: non-GEMM routines install on simulated machines "
                  "only (pick a preset)", file=sys.stderr)
            return 2
        from repro.train.matrix import build_workflow

        workflow = build_workflow(routine, machine_name, seed=args.seed,
                                  n_jobs=args.jobs, executor=args.executor,
                                  **settings)
        grid = workflow.thread_grid
    print(f"installing {routine} on {machine_name}: {args.shapes} shapes, "
          f"<= {args.cap_mb} MB, grid {grid}, {args.jobs} worker(s)")
    bundle = workflow.run(cache=cache)
    from repro.bench.report import format_table

    print(format_table(bundle.report.as_table(), title="model bake-off"))
    print(f"selected: {bundle.report.selected}")
    if args.resume:
        run = workflow.last_pipeline_.last_run_
        print(f"stage cache: {run.cache_hits} stage(s) replayed, "
              f"{len(run.executed)} executed")
    save_bundle(bundle, args.out)
    print(f"artefacts written to {args.out}/")
    return 0


def _parse_model_ref(ref: str):
    """``routine/machine[@version]`` -> (routine, machine, version)."""
    if "/" not in ref:
        raise ValueError(f"expected ROUTINE/MACHINE[@VERSION], got {ref!r}")
    routine, rest = ref.split("/", 1)
    version = "latest"
    if "@" in rest:
        rest, version = rest.rsplit("@", 1)
    return routine, rest, version


def _print_table_meta(table_meta: dict) -> None:
    """Render decision-table metadata (lattice, memory, coverage)."""
    shape = "x".join(str(s) for s in table_meta.get("lattice_shape", []))
    print(f"  table:    lattice {shape} "
          f"({table_meta.get('n_points')} points, "
          f"{table_meta.get('nbytes')} bytes, "
          f"snap={table_meta.get('snap')})")
    coverage = table_meta.get("coverage")
    if coverage is not None:
        print(f"            covers {coverage:.0%} of the campaign shape "
              f"distribution ({table_meta.get('n_probe')} probes)")
    ranges = table_meta.get("axis_ranges")
    if ranges:
        spans = ", ".join(f"{lo}..{hi}" for lo, hi in ranges)
        print(f"            axis ranges: {spans}")


def cmd_models(args) -> int:
    from repro.bench.report import format_table
    from repro.core.serialize import BundleError
    from repro.train.registry import ModelRegistry, RegistryError

    registry = ModelRegistry(args.registry)
    try:
        if args.gc is not None:
            report = registry.gc(keep_last=args.gc)
            if not report["n_removed"]:
                print(f"gc: nothing to collect ({report['n_kept']} versions "
                      f"within keep_last={report['keep_last']})")
                return 0
            print(f"gc: removed {report['n_removed']} versions, kept "
                  f"{report['n_kept']} (keep_last={report['keep_last']})")
            for ref in report["removed"]:
                print(f"  removed {ref}")
            return 0
        if args.compile_table:
            routine, machine, version = _parse_model_ref(args.compile_table)
            info = registry.compile_table(routine, machine, version,
                                          snap=args.snap)
            if info.get("up_to_date"):
                print(f"{routine}/{machine}@{info['version']}: decision "
                      f"table already up to date; no new version published")
                _print_table_meta(info["table"])
                return 0
            print(f"decision table for {routine}/{machine}"
                  f"@{info['table_from_version']} published as "
                  f"version {info['version']}")
            print(f"  checksum: {info['checksum']}")
            _print_table_meta(info["table"])
            return 0
        if args.refine_table:
            from repro.core.routines import routine_of

            routine, machine, version = _parse_model_ref(args.refine_table)
            if not args.shapes_file:
                raise ValueError(
                    "--refine-table needs --shapes-file with the observed "
                    "off-lattice request shapes")
            specs = parse_trace_file(args.shapes_file)
            shapes = [tuple(int(v) for v in s.dims) for s in specs
                      if routine_of(s) == routine]
            if not shapes:
                raise ValueError(
                    f"{args.shapes_file}: no {routine} requests to refine "
                    f"the lattice from")
            info = registry.refine_table(routine, machine, version,
                                         shapes=shapes)
            if info.get("up_to_date"):
                print(f"{routine}/{machine}@{info['version']}: lattice "
                      f"already covers the {info['n_miss_shapes']} offered "
                      f"shapes (generation {info['generation']}); no new "
                      f"version published")
                return 0
            print(f"refined decision table for {routine}/{machine}"
                  f"@{info['refined_from_version']} published as version "
                  f"{info['version']} (generation {info['generation']}, "
                  f"{info['n_miss_shapes']} miss shapes)")
            print(f"  checksum: {info['checksum']}")
            _print_table_meta(info["table"])
            return 0
        if args.inspect:
            routine, machine, version = _parse_model_ref(args.inspect)
            info = registry.inspect(routine, machine, version)
            print(f"{routine}/{machine}@{info['version']}"
                  f"{'  (latest)' if info['latest'] else ''}")
            print(f"  path:     {info['path']}")
            print(f"  checksum: {info['checksum']}")
            manifest = info["manifest"]
            print(f"  schema:   {manifest.get('schema_version')}")
            print(f"  model:    {manifest.get('model_name')}")
            table_meta = manifest.get("table")
            if info["has_table"] and table_meta:
                _print_table_meta(table_meta)
            else:
                print("  table:    none (build with --compile-table "
                      f"{routine}/{machine}@{info['version']})")
            selection = manifest.get("selection")
            if selection:
                print()
                print(format_table(selection, title="selection report"))
            return 0
        entries = registry.entries()
    except (RegistryError, BundleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"registry {args.registry} has no published models")
        return 0
    rows = [{"routine": e.routine, "machine": e.machine,
             "version": e.version, "model": e.model_name,
             "checksum": e.checksum[:12],
             "table": "*" if registry.has_table(e) else "",
             "latest": "*" if e.latest else ""} for e in entries]
    print(format_table(rows, title=f"registry {args.registry}"))
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.install)
    predictor = bundle.predictor(compiled=True)
    p = predictor.predict_threads(args.m, args.k, args.n)
    spec = GemmSpec(args.m, args.k, args.n)
    print(f"GEMM {spec.dims} ({spec.memory_mb:.1f} MB): "
          f"predicted optimal threads = {p} "
          f"(grid max {int(predictor.thread_grid.max())})")
    return 0


def parse_trace_file(path: str, dtype="float32") -> list:
    """Read one routine request per line into a list of specs.

    A line is either a bare ``m k n`` triple (GEMM, the historic shape
    file format) or a routine name followed by that routine's natural
    dimensions from the central registry — ``gemv m n``, ``syrk n k``,
    ``trsm m n``.  Commas work as separators and ``#`` starts a
    comment.  ``dtype`` is a precision name, or a mapping of routine
    name to precision (registry-driven serving, where each routine's
    bundle records its own trained dtype).
    """
    from repro.core.routines import REGISTRY, get_routine

    specs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.replace(",", " ").split()
            routine = "gemm"
            if parts and parts[0] in REGISTRY:
                routine, parts = parts[0], parts[1:]
            info = get_routine(routine)
            if len(parts) != info.n_dims or not all(
                    p.lstrip("-").isdigit() for p in parts):
                raise ValueError(
                    f"{path}:{lineno}: expected "
                    f"'[{routine}] {' '.join(info.dim_names)}', "
                    f"got {line.strip()!r}")
            precision = dtype.get(routine, "float32") \
                if isinstance(dtype, dict) else dtype
            specs.append(info.build(*(int(p) for p in parts),
                                    dtype=precision))
    if not specs:
        raise ValueError(f"{path}: no requests found")
    return specs


def _registry_machine(registry, requested: str, seed: int):
    """Resolve the execution machine for a registry-driven command."""
    if requested is not None:
        return requested, _machine(requested, seed)
    machines = sorted({e.machine for e in registry.entries() if e.latest})
    if len(machines) != 1:
        raise ValueError(
            f"registry publishes machines {machines or '[]'}; pick one "
            f"with --machine")
    return machines[0], _machine(machines[0], seed)


def cmd_batch(args) -> int:
    try:
        if args.registry:
            from repro.train.registry import ModelRegistry

            registry = ModelRegistry(args.registry)
            machine_name, machine = _registry_machine(registry, args.machine,
                                                      args.seed)
            service = GemmService.from_registry(
                registry, machine, machine_name=machine_name,
                routines=args.routine or None, repeats=args.repeats,
                cache_size=args.cache_size)
            specs = parse_trace_file(
                args.shapes_file,
                dtype={routine: info.get("dtype", "float32")
                       for routine, info in service.routine_info.items()})
        else:
            bundle = load_bundle(args.install)
            machine_name = args.machine or bundle.config.machine
            machine = _machine(machine_name, args.seed)
            specs = parse_trace_file(args.shapes_file,
                                     dtype=bundle.config.dtype)
            service = GemmService.from_bundle(bundle, machine,
                                              repeats=args.repeats,
                                              cache_size=args.cache_size)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = service.run_batch(specs)

    from repro.bench.report import cache_effectiveness_table, format_table
    from repro.core.routines import routine_of

    mixed = len({routine_of(r.spec) for r in records}) > 1
    per_shape = {}
    for record in records:
        routine = routine_of(record.spec)
        label = f"{routine} {record.spec.dims}" if mixed \
            else str(record.spec.dims)
        entry = per_shape.setdefault((routine, record.spec.dims), {
            "request": label,
            "threads": record.n_threads, "calls": 0, "total_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += record.runtime * 1e3
    rows = [{**e, "total_ms": round(e["total_ms"], 3)}
            for e in per_shape.values()]
    print(format_table(rows, title=f"batch of {len(records)} calls "
                                   f"on {machine_name}"))

    total_ml = sum(r.runtime for r in records)
    print(f"\ntotal ADSALA runtime: {total_ml * 1e3:.3f} ms")
    if args.baseline:
        from repro.engine.cache import routine_key

        baselines = {}
        for record in records:
            key = routine_key(record.spec)
            if key not in baselines:
                baselines[key] = service.run_baseline(record.spec)
        total_base = sum(baselines[routine_key(r.spec)] for r in records)
        print(f"max-thread baseline:  {total_base * 1e3:.3f} ms "
              f"(speedup {total_base / total_ml:.2f}x)")
    print()
    print(cache_effectiveness_table(service.stats()))
    return 0


def _worker_version_cell(versions: dict) -> str:
    return ",".join(f"{routine}@{version}"
                    for routine, version in sorted(versions.items()))


def _serve_fleet(args, machine_name: str, routines, specs) -> int:
    """Registry-mode ``serve --workers N``: replay through a fleet."""
    from repro.bench.report import format_table
    from repro.fleet import FleetServer
    from repro.serve.trace import poisson_trace, replay_trace

    trace = poisson_trace(specs, rate_hz=args.rate, n_requests=args.requests,
                          n_clients=args.clients, seed=args.seed)
    server = FleetServer.from_registry(
        args.registry, machine_name, workers=args.workers,
        routines=tuple(routines), router=args.router,
        watch_interval_s=args.watch_interval, seed=args.seed,
        repeats=args.repeats, cache_size=args.cache_size,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        max_batch_cost=args.cost_budget, max_queue=args.max_queue)
    print(f"replaying {len(trace)} requests at ~{args.rate:g}/s "
          f"({args.clients} clients) across {args.workers} workers "
          f"({args.router} routing)")
    outcome = replay_trace(server, trace)
    stats = outcome.stats
    print()
    print(format_table([outcome.report_row(f"fleet-{args.workers}w")],
                       title="serve replay"))
    rows = []
    for name, entry in sorted(stats["workers"].items()):
        counters = entry.get("counters", {})
        rows.append({"worker": name, "pid": entry.get("pid"),
                     "dispatched": counters.get("dispatched", 0),
                     "completed": counters.get("completed", 0),
                     "failed": counters.get("failed", 0),
                     "frames": counters.get("frames", 0),
                     "outstanding_cost": counters.get(
                         "outstanding_cost_flops", 0.0),
                     "reloads": entry.get("reloads", 0),
                     "versions": _worker_version_cell(
                         entry.get("versions", {}))})
    print()
    print(format_table(rows, title="fleet workers"))
    print(f"\nfleet: {stats.get('served', outcome.served)} served, "
          f"{stats.get('rejected', 0)} rejected, {stats.get('batches', 0)} "
          f"worker batches, {stats.get('model_passes', 0)} model passes")
    return 0


def cmd_fleet(args) -> int:
    import asyncio
    from collections import Counter

    from repro.bench.report import format_table
    from repro.fleet import FleetServer
    from repro.serve.cost import cost_of
    from repro.train.registry import ModelRegistry

    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        registry = ModelRegistry(args.registry)
        machine_name, _ = _registry_machine(registry, args.machine, args.seed)
        routines = args.routine or list(dict.fromkeys(
            e.routine for e in registry.entries()
            if e.machine == machine_name and e.latest))
        if not routines:
            raise ValueError(
                f"no published routines for machine {machine_name!r} "
                f"in registry {args.registry}")
        specs = (parse_trace_file(args.route_file)
                 if args.route_file else None)
        server = FleetServer.from_registry(
            args.registry, machine_name, workers=args.workers,
            routines=tuple(routines), router=args.router, seed=args.seed)

        async def inspect():
            # Routing must be previewed while workers are alive: dead
            # workers leave the routing ring.
            async with server:
                live = await server.worker_stats()
                assignment = (server.router.route_batch(specs)
                              if specs else None)
                return live, assignment

        live, assignment = asyncio.run(inspect())
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [{"worker": name,
             "pid": stats.get("pid"),
             "reloads": stats.get("reloads", 0),
             "versions": _worker_version_cell(stats.get("versions", {}))}
            for name, stats in sorted(live.items())]
    print(format_table(
        rows, title=f"fleet: {args.workers} workers over {args.registry} "
                    f"({machine_name}, {args.router} routing)"))
    if assignment is not None:
        counts = Counter(assignment)
        # Cost-weight the preview: per-worker predicted FLOPs shows
        # whether the routing policy balances load, not just requests.
        costs = cost_of(specs)
        cost_by_worker = Counter()
        for name, cost in zip(assignment, costs):
            cost_by_worker[name] += cost
        print()
        print(format_table(
            [{"worker": name, "requests": counts.get(name, 0),
              "predicted_cost_flops": round(cost_by_worker.get(name, 0.0))}
             for name in sorted(live)],
            title=f"routing preview: {len(assignment)} requests from "
                  f"{args.route_file} ({args.router} routing)"))
    return 0


def cmd_serve(args) -> int:
    from repro.serve.router import RoutineRouter
    from repro.serve.server import GemmServer
    from repro.serve.trace import poisson_trace, replay_trace

    try:
        if args.requests is not None and args.requests < 1:
            raise ValueError("--requests must be >= 1")
        if args.cost_budget is not None and args.cost_budget <= 0:
            raise ValueError("--cost-budget must be > 0 FLOPs")
        if args.refine_after is not None:
            if args.refine_after < 1:
                raise ValueError("--refine-after must be >= 1")
            if not args.registry:
                raise ValueError("--refine-after republishes refined "
                                 "tables, which needs --registry mode")
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        if args.workers > 1:
            if not args.registry:
                raise ValueError("--workers > 1 spawns a fleet whose "
                                 "workers load from the registry; needs "
                                 "--registry mode")
            if args.refine_after is not None:
                raise ValueError("--refine-after reads in-process "
                                 "predictor counters; not available with "
                                 "--workers > 1")
            if args.trace or args.obs_dir:
                raise ValueError("--trace/--obs-dir instrument the "
                                 "in-process server; not available with "
                                 "--workers > 1")
        router = None
        if args.registry:
            # One shard per published routine, routed by routine name:
            # a single server answers a mixed GEMM/GEMV/TRSM/SYRK trace
            # with each request resolved by its routine's model.
            from repro.train.registry import ModelRegistry

            if args.machine and len(args.machine) > 1:
                raise ValueError(
                    "--registry mode shards per routine on one machine; "
                    "pass a single --machine")
            registry = ModelRegistry(args.registry)
            machine_name, _ = _registry_machine(registry, args.machine[0]
                                                if args.machine else None,
                                                args.seed)
            routines = args.routine or list(dict.fromkeys(
                e.routine for e in registry.entries()
                if e.machine == machine_name and e.latest))
            if not routines:
                raise ValueError(
                    f"no published routines for machine {machine_name!r} "
                    f"in registry {args.registry}")
            bundles = {routine: registry.load(routine, machine_name)
                       for routine in routines}
            shards = {routine: GemmService.from_bundle(
                bundle, _machine(machine_name, args.seed),
                repeats=args.repeats, cache_size=args.cache_size)
                for routine, bundle in bundles.items()}
            router = RoutineRouter()
            specs = parse_trace_file(
                args.shapes_file,
                dtype={routine: bundle.config.dtype
                       for routine, bundle in bundles.items()})
            if args.workers > 1:
                return _serve_fleet(args, machine_name, routines, specs)
        else:
            bundle = load_bundle(args.install)
            machines = args.machine or [bundle.config.machine]
            specs = parse_trace_file(args.shapes_file,
                                     dtype=bundle.config.dtype)
            shards = {name: GemmService.from_bundle(
                bundle, _machine(name, args.seed), repeats=args.repeats,
                cache_size=args.cache_size) for name in machines}
        trace = poisson_trace(specs, rate_hz=args.rate,
                              n_requests=args.requests,
                              n_clients=args.clients, seed=args.seed)
        tracing = args.trace or args.obs_dir is not None
        server = GemmServer(shards, router=router,
                            max_batch=args.max_batch,
                            max_wait_ms=args.max_wait_ms,
                            max_batch_cost=args.cost_budget,
                            max_queue=args.max_queue,
                            tracing=tracing)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"replaying {len(trace)} requests at ~{args.rate:g}/s "
          f"({args.clients} clients) across shards {sorted(shards)}")
    outcome = replay_trace(server, trace)

    from repro.bench.report import (batch_size_table,
                                    cache_effectiveness_table, format_table,
                                    latency_table)

    print()
    print(format_table([outcome.report_row("micro-batched")],
                       title="serve replay"))
    stats = outcome.stats
    if stats.get("latency_ms"):
        print()
        print(latency_table({"latency": server.telemetry.latency(),
                             "queue wait": server.telemetry.wait()},
                            title="request latency (ms)"))
    if stats["batch_size_histogram"]:
        print()
        print(batch_size_table(stats["batch_size_histogram"]))
    closes_by_shard = stats.get("batch_closes_by_shard", {})
    routine_rows = []
    for routine, entry in sorted(stats["routines"].items()):
        row = {"routine": routine,
               **{k: v for k, v in entry.items()
                  if k not in ("latency_ms", "queue_wait_ms")}}
        if args.cost_budget is not None:
            # Registry mode shards per routine, so a shard's batch-close
            # counters are its routine's.
            row["cost_closed"] = closes_by_shard.get(routine,
                                                     {}).get("cost", 0)
        routine_rows.append(row)
    if len(routine_rows) > 1:
        # Table keys appear only for routines a table answered for, so
        # the rows share the union of their keys, blank where absent.
        keys = list(dict.fromkeys(k for row in routine_rows for k in row))
        routine_rows = [{k: row.get(k, "") for k in keys}
                        for row in routine_rows]
        print()
        print(format_table(routine_rows, title="per-routine traffic"))
    if args.cost_budget is not None:
        cost_closed = stats.get("batch_close_reasons", {}).get("cost", 0)
        batch_cost = stats.get("batch_cost", {})
        line = (f"\ncost budget {args.cost_budget:g} FLOPs: "
                f"{cost_closed} cost-closed batches")
        if batch_cost.get("count"):
            line += (f", mean batch cost "
                     f"{batch_cost['mean']:.4g} FLOPs")
        print(line)
    for name in sorted(shards):
        print()
        print(cache_effectiveness_table(stats["shards"][name],
                                        title=f"shard {name}"))
    print(f"\nmodel passes: {stats['model_passes']} covering "
          f"{stats['evaluations']} evaluated shapes and {stats['served']} "
          f"served requests (per-request serving would pay "
          f"{stats['evaluations']} passes)")
    if server.collector is not None:
        trace_stats = server.collector.stats()
        print(f"trace: {trace_stats['complete']} complete span chains of "
              f"{trace_stats['traces']} finished traces "
              f"({trace_stats['dropped']} dropped)")
    if args.refine_after is not None:
        # Close the tier-0 loop: any predictor whose fallback counter
        # crossed the threshold donates its miss reservoir to a lattice
        # refinement, republished as a new immutable version.
        print()
        refined = 0
        for shard_name in sorted(shards):
            for routine, predictor in sorted(
                    shards[shard_name].predictors.items()):
                if getattr(predictor, "table", None) is None:
                    continue
                if predictor.n_table_fallbacks < args.refine_after \
                        or not len(predictor.fallback_shapes):
                    continue
                info = registry.refine_table(
                    routine, machine_name,
                    shapes=predictor.fallback_shapes.shapes())
                refined += 1
                if info.get("up_to_date"):
                    print(f"refine {routine}/{machine_name}: lattice "
                          f"already covers the observed misses "
                          f"(generation {info['generation']})")
                else:
                    print(f"refine {routine}/{machine_name}: "
                          f"{predictor.n_table_fallbacks} fallbacks >= "
                          f"{args.refine_after}; published version "
                          f"{info['version']} (generation "
                          f"{info['generation']}, "
                          f"{info['n_miss_shapes']} miss shapes)")
        if refined == 0:
            print(f"refine: no routine crossed {args.refine_after} table "
                  f"fallbacks with a new off-lattice shape")
    if args.obs_dir:
        from repro.obs.exporters import write_snapshot

        written = write_snapshot(server.registry, args.obs_dir,
                                 collector=server.collector, stats=stats)
        print("observability artefacts:")
        for role, path in sorted(written.items()):
            print(f"  {role:<10} {path}")
    return 0


def _span_ms(span: dict) -> float:
    return span.get("duration_s", 0.0) * 1e3


def cmd_obs(args) -> int:
    """Inspect an observability artefact directory (``serve --obs-dir``)."""
    import json

    from repro.bench.report import format_table
    from repro.obs.exporters import read_jsonl
    from repro.obs.tracing import CHAIN

    d = args.obs_dir
    stats_path = os.path.join(d, "stats.json")
    spans_path = os.path.join(d, "spans.jsonl")
    metrics_path = os.path.join(d, "metrics.jsonl")
    prom_path = os.path.join(d, "metrics.prom")
    if not os.path.isdir(d):
        print(f"error: {d} is not a directory (write one with "
              f"'repro serve ... --obs-dir {d}')", file=sys.stderr)
        return 2

    if args.dump:
        # Raw artefacts, machine-readable, ready to pipe elsewhere.
        for path in (prom_path, stats_path):
            if os.path.exists(path):
                print(f"# ---- {path}")
                with open(path) as fh:
                    sys.stdout.write(fh.read())
                print()
        return 0

    if args.tail:
        if not os.path.exists(spans_path):
            print(f"error: {spans_path} not found (serve with tracing "
                  f"enabled)", file=sys.stderr)
            return 2
        spans = read_jsonl(spans_path)
        by_trace: dict = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        recent = list(by_trace.items())[-args.tail:]
        for trace_id, chain in recent:
            root = next((s for s in chain if s["name"] == "request"),
                        chain[0])
            complete = "" if tuple(s["name"] for s in chain) == CHAIN \
                else "  [incomplete]"
            print(f"{trace_id}  client={root.get('client')} "
                  f"routine={root.get('routine', '-')} "
                  f"shard={root.get('shard')} "
                  f"status={root.get('status')}{complete}")
            for span in chain:
                if span["name"] == "request":
                    continue
                attrs = {k: v for k, v in span.items()
                         if k not in ("trace_id", "span_id", "parent_id",
                                      "name", "t_start", "t_end",
                                      "duration_s")}
                detail = " ".join(f"{k}={v}" for k, v in attrs.items()
                                  if v is not None)
                print(f"  {span['name']:<12} {_span_ms(span):9.3f} ms"
                      f"{'  ' + detail if detail else ''}")
        return 0

    # Default view: the stats table plus metric and event summaries.
    shown = False
    if os.path.exists(stats_path):
        with open(stats_path) as fh:
            payload = json.load(fh)
        stats = payload.get("stats") or {}
        rows = [{"metric": key, "value": value}
                for key, value in sorted(stats.items())
                if isinstance(value, (int, float, str))]
        if rows:
            print(format_table(rows, title=f"serve stats ({stats_path})"))
            shown = True
        trace_stats = payload.get("trace")
        if trace_stats:
            print(f"\ntrace: {trace_stats['complete']} complete chains of "
                  f"{trace_stats['traces']} traces "
                  f"({trace_stats['dropped']} dropped, capacity "
                  f"{trace_stats['capacity']})")
        events = payload.get("events") or []
        drifts = [e for e in events if e.get("event") == "drift"]
        if drifts:
            print()
            print(format_table(
                [{k: v for k, v in e.items() if k != "event"}
                 for e in drifts], title="drift events"))
    if os.path.exists(metrics_path):
        metrics = read_jsonl(metrics_path)
        kinds = {}
        for row in metrics:
            kinds[row.get("type", "?")] = kinds.get(row.get("type", "?"), 0) + 1
        summary = ", ".join(f"{n} {kind}s" for kind, n in sorted(kinds.items()))
        print(f"\nmetrics: {len(metrics)} series ({summary}) "
              f"in {metrics_path}")
        shown = True
    if not shown:
        print(f"error: no artefacts in {d} (expected stats.json / "
              f"metrics.jsonl from 'repro serve --obs-dir')",
              file=sys.stderr)
        return 2
    return 0


def cmd_demo(args) -> int:
    machine = _machine(args.machine, args.seed)
    workflow = InstallationWorkflow(
        machine, memory_cap_bytes=100 * MB, n_shapes=args.shapes,
        tune_iters=2, cv_folds=2, seed=args.seed)
    print(f"quick install on {args.machine}...")
    bundle = workflow.run()
    print(f"selected: {bundle.report.selected}")
    with AdsalaGemm(bundle, machine) as gemm:
        for dims in [(64, 2048, 64), (1024, 1024, 1024), (3000, 3000, 3000)]:
            spec = GemmSpec(*dims)
            record = gemm.run(spec)
            baseline = gemm.run_baseline(spec)
            print(f"  {str(dims):>20}: threads={record.n_threads:4d} "
                  f"speedup vs max = {baseline / record.runtime:6.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ADSALA: ML-guided GEMM thread selection")
    sub = parser.add_subparsers(dest="command", required=True)
    machines = sorted(PRESETS) + ["host"]

    p = sub.add_parser("install", help="run the staged training pipeline")
    p.add_argument("--machine", choices=machines, action="append",
                   default=None,
                   help="target machine; repeat with --matrix "
                        "(default: gadi)")
    p.add_argument("--routine", choices=sorted(ROUTINES), action="append",
                   default=None,
                   help="BLAS routine to train for; repeat with --matrix "
                        "(default: gemm)")
    p.add_argument("--matrix", action="store_true",
                   help="train every (routine, machine) cell and publish "
                        "versioned bundles into a registry at --out")
    p.add_argument("--jobs", type=int, default=1,
                   help="tuning workers; selection is bitwise identical "
                        "at any count")
    p.add_argument("--executor", choices=["thread", "process"],
                   default="thread",
                   help="worker kind for --jobs > 1")
    p.add_argument("--resume", action="store_true",
                   help="keep a stage cache under --out; an interrupted "
                        "install re-executes only unfinished stages")
    p.add_argument("--shapes", type=int, default=150)
    p.add_argument("--cap-mb", type=int, default=100)
    p.add_argument("--budget", choices=["fast", "full"], default="fast")
    p.add_argument("--label-transform", choices=["log", "sqrt", "identity"],
                   default="log")
    p.add_argument("--tune-iters", type=int, default=3)
    p.add_argument("--cv-folds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="artefact output directory (registry root "
                        "with --matrix)")
    p.set_defaults(func=cmd_install)

    p = sub.add_parser("models", help="list, inspect or retrofit registry "
                                      "entries")
    p.add_argument("--registry", required=True, help="registry root directory")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--inspect", default=None,
                        metavar="ROUTINE/MACHINE[@V]",
                        help="show one entry's manifest, decision-table "
                             "coverage and selection report")
    action.add_argument("--compile-table", dest="compile_table", default=None,
                        metavar="ROUTINE/MACHINE[@V]",
                        help="pre-evaluate one entry's compiled plan over "
                             "the campaign shape lattice into a tier-0 "
                             "decision table, published as a new version")
    action.add_argument("--refine-table", dest="refine_table", default=None,
                        metavar="ROUTINE/MACHINE[@V]",
                        help="densify one entry's table lattice where the "
                             "shapes in --shapes-file missed it, published "
                             "as a new version (no-op when the lattice "
                             "already covers them)")
    action.add_argument("--gc", type=int, default=None, metavar="N",
                        help="delete all but the newest N versions per "
                             "(routine, machine) cell; the version "
                             "'latest' points at is never collected")
    p.add_argument("--snap", choices=["exact", "plateau"],
                   default="exact",
                   help="--compile-table snap mode: 'plateau' also answers "
                        "off-lattice shapes from cells whose corners agree "
                        "(validated against the plan at build time)")
    p.add_argument("--shapes-file", default=None, metavar="FILE",
                   help="observed request shapes for --refine-table (same "
                        "format as the batch/serve trace files)")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("predict", help="query a saved installation")
    p.add_argument("--install", required=True, help="artefact directory")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("batch", help="serve a request file through the engine")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--install", help="artefact directory")
    source.add_argument("--registry",
                        help="model-registry root: serve mixed-routine "
                             "traffic, one predictor per routine")
    p.add_argument("--machine", choices=machines, default=None,
                   help="execution backend (default: the installed machine)")
    p.add_argument("--routine", choices=sorted(ROUTINES), action="append",
                   default=None,
                   help="with --registry: routines to serve (default: all "
                        "published for the machine)")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true",
                   help="also time the max-thread baseline per unique shape")
    p.add_argument("shapes_file",
                   help="text file with one request per line: 'm k n' "
                        "(GEMM) or '<routine> dims...' (e.g. 'gemv 2048 512')")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("serve", help="replay a request file through the "
                                     "async micro-batching server")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--install", help="artefact directory")
    source.add_argument("--registry",
                        help="model-registry root: one shard per routine, "
                             "routed by routine name")
    p.add_argument("--machine", choices=machines, action="append",
                   help="shard backend; repeat for multi-tenant shards "
                        "(default: the installed machine)")
    p.add_argument("--routine", choices=sorted(ROUTINES), action="append",
                   default=None,
                   help="with --registry: routines to shard (default: all "
                        "published for the machine)")
    p.add_argument("--workers", type=int, default=1,
                   help="with --registry: spawn a multi-process fleet of "
                        "this many workers instead of one in-process "
                        "server (default: 1)")
    p.add_argument("--router",
                   choices=["least_loaded", "cost_least_loaded", "hash"],
                   default="least_loaded",
                   help="fleet routing policy: live in-flight counts, "
                        "outstanding predicted FLOPs, or consistent-hash "
                        "shape affinity (--workers > 1)")
    p.add_argument("--watch-interval", dest="watch_interval", type=float,
                   default=None, metavar="SECONDS",
                   help="fleet workers poll the registry's latest refs "
                        "this often and hot-reload published versions "
                        "(--workers > 1)")
    p.add_argument("--rate", type=float, default=500.0,
                   help="Poisson arrival rate, requests/second")
    p.add_argument("--requests", type=int, default=None,
                   help="trace length (default: one per shape-file line)")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--cost-budget", dest="cost_budget", type=float,
                   default=None, metavar="FLOPS",
                   help="cost-aware batch formation: also close a "
                        "micro-batch when its summed predicted FLOPs "
                        "would exceed this budget (heavy requests form "
                        "small batches, light ones fill large ones; "
                        "thread selections are unchanged)")
    p.add_argument("--max-queue", type=int, default=128)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine-after", dest="refine_after", type=int,
                   default=None, metavar="N",
                   help="after the replay, refine and republish the "
                        "decision table of any routine that logged >= N "
                        "table fallbacks, densifying the lattice at its "
                        "recorded miss shapes (--registry mode only)")
    p.add_argument("--trace", action="store_true",
                   help="record a span chain per served request "
                        "(admission, queue wait, batch, predict tier, "
                        "execution)")
    p.add_argument("--obs-dir", default=None, metavar="DIR",
                   help="write observability artefacts (metrics.prom, "
                        "metrics.jsonl, spans.jsonl, stats.json) into DIR "
                        "after the replay; implies --trace")
    p.add_argument("shapes_file",
                   help="text file with one request per line: 'm k n' "
                        "(GEMM) or '<routine> dims...' (e.g. 'gemv 2048 512')")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fleet", help="inspect a multi-process serving "
                                     "fleet: spawn workers, report loaded "
                                     "versions, preview routing")
    p.add_argument("--registry", required=True,
                   help="model-registry root the workers load from")
    p.add_argument("--machine", choices=machines, default=None,
                   help="registry machine cell (default: the single "
                        "published machine)")
    p.add_argument("--routine", choices=sorted(ROUTINES), action="append",
                   default=None,
                   help="routines to serve (default: all published for "
                        "the machine)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--router",
                   choices=["least_loaded", "cost_least_loaded", "hash"],
                   default="least_loaded")
    p.add_argument("--route-file", dest="route_file", default=None,
                   metavar="FILE",
                   help="preview where this trace file's requests would "
                        "route (same format as the serve shape files)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("obs", help="inspect observability artefacts "
                                   "written by 'serve --obs-dir'")
    p.add_argument("obs_dir", metavar="DIR",
                   help="artefact directory (stats.json, spans.jsonl, "
                        "metrics.prom, metrics.jsonl)")
    view = p.add_mutually_exclusive_group()
    view.add_argument("--tail", type=int, default=None, metavar="N",
                      help="show the span chains of the N most recent "
                           "traces")
    view.add_argument("--dump", action="store_true",
                      help="print the raw Prometheus text and stats JSON "
                           "artefacts")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("demo", help="quick install + before/after comparison")
    p.add_argument("--machine", choices=machines, default="gadi")
    p.add_argument("--shapes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # A downstream reader (head, grep -q) closed the pipe early —
        # a normal way to consume `obs --dump` output, not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
