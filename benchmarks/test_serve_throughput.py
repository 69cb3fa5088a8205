"""Serving extension — micro-batched replay vs per-request serving.

Not a paper figure: this experiment quantifies what the serving
subsystem adds on top of the engine.  A Poisson-arrival request trace
is replayed twice through :class:`repro.serve.server.GemmServer` over
the same installed artefacts — once with dynamic micro-batching
(window/size scheduler) and once degenerated to one-request batches —
and the comparison reports sustained requests/second, the batch-size
distribution, latency percentiles (p50/p95/p99 through the shared
:func:`repro.bench.stats.latency_summary` helper) and, the acceptance
metric, the number of model passes each mode paid.

A second experiment compares the tier-0 **decision-table** serving
path against the compiled-plan path on an all-lattice trace: same
server, same trace, bitwise-identical thread selections, but the table
path answers every cache miss with an O(1) lattice lookup instead of a
fused model pass.  Acceptance: >= 3x sustained requests/second with
zero model passes.

A third experiment prices **request tracing**: the same
decision-dominated replay with the span collector on and off.  The
decision-table path with an instant backend is the worst case for the
observability layer — there is almost no real work per request to
hide the trace stamps behind.  Acceptance: thread selections bitwise
identical, zero extra model passes, every finished trace a complete
span chain, and <= 5% sustained-throughput overhead.

A fourth experiment measures the **plateau interpolation** win on an
off-lattice-heavy trace (75% of the pool drawn from the validated
off-lattice probe distribution, 25% lattice points): a
``snap="plateau"`` table answers the near-lattice tail from tier 0,
while the exact-snap table pays a compiled forest pass per off-lattice
shape.  Acceptance: >= 2x sustained requests/second with **zero**
selection divergence between the two paths.

A fifth experiment prices the slab-batched bulk submit path: a
256-request burst through ``max_batch=16`` must allocate exactly
``ceil(256/16) = 16`` slab futures (asserted by counting
``SlabRequest`` construction) while producing records bitwise
identical, and in the same order, as per-request ``submit`` calls.

A sixth experiment measures the **multi-process fleet**: the same
kernel-bound mixed-routine burst through a 4-worker
:class:`repro.fleet.FleetServer` and through one in-process server.
The :class:`repro.bench.loadgen.CpuBoundBackend` blocks each request's
worker for a real kernel-occupancy window (plus a GIL-holding spin),
so a single process serialises the burst while separate workers'
kernels overlap — genuine process parallelism, not simulator
arithmetic, and measurable even on a single-CPU host.  Acceptance:
>= 2.5x sustained requests/second with thread selections
bitwise-identical to single-process serving.

All experiments append machine-readable metrics to
``benchmarks/results/BENCH_serve.json`` (the artefact CI uploads).

Smoke mode for CI: ``SERVE_BENCH_SMOKE=1`` shrinks the installation and
the trace so scheduler regressions fail fast without a full campaign.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.report import batch_size_table, format_table, latency_table
from repro.engine import GemmService
from repro.gemm.interface import GemmSpec
from repro.serve import GemmServer, poisson_trace, replay_trace

SMOKE = os.environ.get("SERVE_BENCH_SMOKE") == "1"
N_POOL = 30 if SMOKE else 120          # distinct shapes in the trace
N_REQUESTS = 90 if SMOKE else 360      # trace length (pool cycles => repeats)
RATE_HZ = 1500.0                       # Poisson arrival rate
MAX_BATCH = 32
MAX_WAIT_MS = 5.0

N_TABLE_POOL = 200 if SMOKE else 600   # distinct lattice points in the trace
TABLE_RATE_HZ = 100000.0               # decision cost dominates at this rate
MB = 1024 * 1024


def _spec_pool(n: int, seed: int = 0) -> list:
    """Deterministic distinct shapes (the cache can't absorb the pool)."""
    rng = np.random.default_rng(seed)
    shapes = set()
    while len(shapes) < n:
        m, k, n_dim = (int(x) for x in rng.integers(16, 2048, size=3))
        shapes.add((m, k, n_dim))
    return [GemmSpec(m, k, n_dim) for m, k, n_dim in sorted(shapes)]


@pytest.fixture(scope="module")
def serve_bundle(ctx, request):
    if SMOKE:
        return ctx.bundle("gadi", n_shapes=50, memory_cap_mb=100,
                          budget="fast", label_transform="log",
                          tune_iters=1, cv_folds=2, eval_time_scale=0.025)
    return request.getfixturevalue("gadi_prod_bundle")


def _replay(ctx, bundle, trace, *, max_batch: int, max_wait_ms: float):
    service = GemmService.from_bundle(bundle, ctx.simulator("gadi"),
                                      cache_size=2 * N_POOL)
    server = GemmServer(service, max_batch=max_batch,
                        max_wait_ms=max_wait_ms, max_queue=512)
    return replay_trace(server, trace), server


def _bench_metrics(outcome) -> dict:
    """BENCH_serve.json entry: throughput, tail latency, model passes."""
    row = outcome.report_row()
    return {"req_per_s": row["req_per_s"],
            "p50_ms": row.get("p50_ms"),
            "p95_ms": row.get("p95_ms"),
            "served": row["served"],
            "model_passes": row["model_passes"]}


def test_serve_throughput_vs_per_request(ctx, serve_bundle, save_result,
                                         save_bench_json):
    trace = poisson_trace(_spec_pool(N_POOL), rate_hz=RATE_HZ,
                          n_requests=N_REQUESTS, n_clients=4, seed=0)

    batched, batched_server = _replay(ctx, serve_bundle, trace,
                                      max_batch=MAX_BATCH,
                                      max_wait_ms=MAX_WAIT_MS)
    single, _ = _replay(ctx, serve_bundle, trace,
                        max_batch=1, max_wait_ms=0.0)

    rows = [batched.report_row("micro-batched"),
            single.report_row("per-request")]
    report = "\n\n".join([
        format_table(rows, title="serve replay: Poisson trace "
                                 f"({N_REQUESTS} requests @ {RATE_HZ:g}/s, "
                                 f"{N_POOL} unique shapes)"),
        latency_table({"micro-batched": batched_server.telemetry.latency(),
                       "queue wait": batched_server.telemetry.wait()},
                      title="micro-batched latency (ms)"),
        batch_size_table(batched.stats["batch_size_histogram"],
                         title="micro-batched batch-size distribution"),
    ])
    save_result("serve_throughput", report)
    save_bench_json("serve", "micro_batched", _bench_metrics(batched))
    save_bench_json("serve", "per_request", _bench_metrics(single))

    # Nothing may be dropped at this load (backpressure, not rejection).
    assert batched.served == single.served == N_REQUESTS

    # Both modes evaluate each unique shape exactly once (LRU dedup)...
    assert batched.stats["evaluations"] == single.stats["evaluations"] == N_POOL
    # ...but micro-batching amortises them over far fewer model passes —
    # the acceptance metric for the serving subsystem.
    assert batched.stats["model_passes"] < single.stats["model_passes"]
    assert single.stats["model_passes"] == N_POOL

    # The scheduler genuinely formed multi-request batches under load.
    histogram = batched.stats["batch_size_histogram"]
    assert max(histogram) > 1
    assert sum(size * count for size, count in histogram.items()) == N_REQUESTS

    # Latency percentiles are reported for both modes.
    for outcome in (batched, single):
        row = outcome.report_row()
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(row)
        assert outcome.requests_per_sec > 0


# -- decision-table path vs compiled-plan path ---------------------------

class _InstantBackend:
    """Zero-cost execution: the replay measures decision overhead only.

    With a (simulated) GEMM in the loop both serving paths pay the same
    dominant execution cost and the tier-0 win drowns in it; an instant
    backend makes sustained throughput a pure function of the
    prediction tier.
    """

    def timed_run(self, spec, n_threads: int, repeats: int = 1, **kw) -> float:
        return 0.0


@pytest.fixture(scope="module")
def table_bundle():
    """A heavy-forest installation with a campaign decision table.

    The forest is deliberately expensive to evaluate (the paper's
    ruinous-RMSE-winner configuration, scaled to install quickly) so
    the compiled-plan pass has a realistic per-request cost for the
    table path to beat.
    """
    from repro.core.training import InstallationWorkflow
    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.registry import CandidateModel

    sim = MachineSimulator(by_name("tiny"), seed=0)
    forest = CandidateModel(
        name="Random Forest", factory=RandomForestRegressor,
        defaults={"n_estimators": 160, "max_leaves": 1024,
                  "min_samples_leaf": 1, "random_state": 0},
        search_space={"min_samples_leaf": [1]}, family="tree")
    workflow = InstallationWorkflow(
        sim, memory_cap_bytes=8 * MB, n_shapes=40, candidates=[forest],
        tune_iters=1, cv_folds=2, repeats=3, seed=0)
    bundle = workflow.run()
    bundle.compile_table()
    return bundle


def _lattice_pool(table, n: int, seed: int = 0) -> list:
    """Distinct lattice points — shapes the tier-0 table answers."""
    points = table.lattice_points()
    rng = np.random.default_rng(seed)
    index = rng.choice(len(points), size=min(n, len(points)), replace=False)
    return [GemmSpec(int(m), int(k), int(n_dim))
            for m, k, n_dim in points[np.sort(index)]]


def test_table_throughput_vs_compiled_plan(table_bundle, save_result,
                                           save_bench_json):
    import gc

    table = table_bundle.table
    pool = _lattice_pool(table, N_TABLE_POOL)
    trace = poisson_trace(pool, rate_hz=TABLE_RATE_HZ,
                          n_requests=len(pool), n_clients=4, seed=0)
    backend = _InstantBackend()

    def replay(with_table: bool):
        predictor = table_bundle.predictor(cache_size=2 * len(pool),
                                           compiled=True, table=with_table)
        service = GemmService(predictor, backend=backend)
        server = GemmServer(service, max_batch=MAX_BATCH,
                            max_wait_ms=MAX_WAIT_MS, max_queue=1024)
        # A replay lasts tens of milliseconds, so one stray GC pass
        # (over every object earlier benchmarks left alive) skews it;
        # collect up front and keep the collector out of the window.
        gc.collect()
        gc.disable()
        try:
            return replay_trace(server, trace)
        finally:
            gc.enable()

    def best(with_table: bool, trials: int = 3):
        outcomes = [replay(with_table) for _ in range(trials)]
        return max(outcomes, key=lambda o: o.requests_per_sec)

    plan_outcome = best(with_table=False)
    table_outcome = best(with_table=True)
    speedup = (table_outcome.requests_per_sec
               / plan_outcome.requests_per_sec)

    rows = [table_outcome.report_row("decision-table"),
            plan_outcome.report_row("compiled-plan")]
    for row, outcome in zip(rows, (table_outcome, plan_outcome)):
        row["speedup"] = round(outcome.requests_per_sec
                               / plan_outcome.requests_per_sec, 2)
    save_result("serve_table_throughput", format_table(
        rows, title="serve replay: decision table vs compiled plan "
                    f"({len(pool)} lattice-point requests "
                    f"@ {TABLE_RATE_HZ:g}/s, instant backend)"))
    save_bench_json("serve", "table_path", {
        **_bench_metrics(table_outcome),
        "table_hits": table_outcome.stats.get("table_hits", 0),
        "speedup_vs_plan": round(speedup, 2)})
    save_bench_json("serve", "plan_path", _bench_metrics(plan_outcome))

    # Nothing dropped, and both paths answered every request.
    assert plan_outcome.served == table_outcome.served == len(pool)

    # The acceptance bar of the tier hierarchy: selections bitwise
    # identical on lattice points...
    assert table_outcome.thread_choices() == plan_outcome.thread_choices()
    # ...with the whole trace answered from the table (zero model
    # passes; one table hit per distinct shape) ...
    assert table_outcome.stats["model_passes"] == 0
    assert table_outcome.stats["table_hits"] == len(pool)
    assert table_outcome.stats.get("table_fallbacks", 0) == 0
    assert plan_outcome.stats["model_passes"] > 0

    # ...at >= 3x the sustained request rate of the plan path.
    assert speedup >= 3.0, (
        f"table path only {speedup:.2f}x the plan path "
        f"({table_outcome.requests_per_sec:.0f} vs "
        f"{plan_outcome.requests_per_sec:.0f} req/s)")


# -- plateau interpolation on off-lattice traffic ------------------------

@pytest.fixture(scope="module")
def plateau_bundle(table_bundle):
    """The same installation with a ``snap="plateau"`` table."""
    import dataclasses

    bundle = dataclasses.replace(table_bundle, table=None)
    bundle.compile_table(snap="plateau")
    return bundle


def _off_lattice_pool(table, n: int, seed: int = 0) -> list:
    """Distinct off-lattice shapes the plateau table absorbs.

    Drawn from the *validated* probe distribution — exactly the traffic
    the build-time sweep vetted, so an interpolated answer is plan-equal
    by construction — and filtered to surviving (non-demoted) cells:
    the near-lattice tail this tier exists to serve.  An exact-snap
    table pays a plan pass for every one of these.
    """
    from repro.compile.table import PLATEAU_PROBES, _plateau_probe_points

    probes = _plateau_probe_points(table.axes, None, PLATEAU_PROBES)
    _, _, interpolated = table.lookup_batch_ex(probes)
    probes = probes[interpolated]
    rng = np.random.default_rng(seed)
    index = rng.choice(len(probes), size=min(n, len(probes)), replace=False)
    return [GemmSpec(int(m), int(k), int(n_dim))
            for m, k, n_dim in probes[np.sort(index)]]


def test_plateau_throughput_on_off_lattice_trace(table_bundle, plateau_bundle,
                                                 save_result,
                                                 save_bench_json):
    """Plateau tier-0 vs exact-table-with-plan-fallback, same trace."""
    import gc

    table = plateau_bundle.table
    pool = _off_lattice_pool(table, 3 * N_TABLE_POOL // 4, seed=3)
    pool += _lattice_pool(table, N_TABLE_POOL - len(pool), seed=5)
    trace = poisson_trace(pool, rate_hz=TABLE_RATE_HZ,
                          n_requests=len(pool), n_clients=4, seed=0)
    backend = _InstantBackend()

    def replay(bundle):
        predictor = bundle.predictor(cache_size=2 * len(pool),
                                     compiled=True, table=True)
        service = GemmService(predictor, backend=backend)
        server = GemmServer(service, max_batch=MAX_BATCH,
                            max_wait_ms=MAX_WAIT_MS, max_queue=1024)
        gc.collect()
        gc.disable()
        try:
            return replay_trace(server, trace)
        finally:
            gc.enable()

    def best(bundle, trials: int = 3):
        outcomes = [replay(bundle) for _ in range(trials)]
        return max(outcomes, key=lambda o: o.requests_per_sec)

    fallback_outcome = best(table_bundle)    # exact table: misses hit the plan
    plateau_outcome = best(plateau_bundle)   # plateau: misses absorbed
    speedup = (plateau_outcome.requests_per_sec
               / fallback_outcome.requests_per_sec)

    rows = [plateau_outcome.report_row("plateau table"),
            fallback_outcome.report_row("exact table + plan fallback")]
    for row, outcome in zip(rows, (plateau_outcome, fallback_outcome)):
        row["speedup"] = round(outcome.requests_per_sec
                               / fallback_outcome.requests_per_sec, 2)
    save_result("serve_plateau_throughput", format_table(
        rows, title="serve replay: plateau interpolation vs plan fallback "
                    f"({len(pool)} requests, 75% off-lattice "
                    f"@ {TABLE_RATE_HZ:g}/s, instant backend)"))
    save_bench_json("serve", "plateau_path", {
        **_bench_metrics(plateau_outcome),
        "table_interpolated": plateau_outcome.stats.get(
            "table_interpolated", 0),
        "table_fallbacks": plateau_outcome.stats.get("table_fallbacks", 0),
        "speedup_vs_fallback": round(speedup, 2)})
    save_bench_json("serve", "plan_fallback_path", {
        **_bench_metrics(fallback_outcome),
        "table_fallbacks": fallback_outcome.stats.get("table_fallbacks", 0)})

    # Nothing dropped on either path.
    assert plateau_outcome.served == fallback_outcome.served == len(pool)

    # Zero selection divergence: an interpolated answer is only ever
    # the one the plan-fallback path computes the long way round.
    assert plateau_outcome.thread_choices() == fallback_outcome.thread_choices()

    # The plateau genuinely absorbed off-lattice traffic into tier 0
    # (interpolated hits counted separately), while the exact table fell
    # back to the plan for it.  (Model *passes* are per batch, so they
    # need not differ — the fallback path's passes are just far bigger.)
    assert plateau_outcome.stats.get("table_interpolated", 0) > 0
    assert fallback_outcome.stats["table_fallbacks"] > 0
    assert plateau_outcome.stats.get("table_fallbacks", 0) \
        < fallback_outcome.stats["table_fallbacks"]

    # The acceptance bar: >= 2x sustained request rate on the
    # off-lattice-heavy trace.
    assert speedup >= 2.0, (
        f"plateau path only {speedup:.2f}x the plan-fallback path "
        f"({plateau_outcome.requests_per_sec:.0f} vs "
        f"{fallback_outcome.requests_per_sec:.0f} req/s)")


# -- slab-batched bulk submit --------------------------------------------

def test_slab_submit_future_economy(table_bundle, save_result,
                                    save_bench_json, monkeypatch):
    """One future per micro-batch on a 256-burst, records identical."""
    import asyncio
    import gc
    import time

    from repro.serve.request import SlabRequest

    burst = _lattice_pool(table_bundle.table, 256, seed=9)
    assert len(burst) == 256
    backend = _InstantBackend()

    def make_server():
        predictor = table_bundle.predictor(cache_size=2 * len(burst),
                                           compiled=True, table=True)
        service = GemmService(predictor, backend=backend)
        return GemmServer(service, max_batch=16, max_wait_ms=MAX_WAIT_MS,
                          max_queue=1024, max_pending=2048)

    created = []

    def counting_slab(*args, **kwargs):
        slab = SlabRequest(*args, **kwargs)
        created.append(slab)
        return slab

    monkeypatch.setattr("repro.serve.server.SlabRequest", counting_slab)

    async def bulk():
        async with make_server() as server:
            t0 = time.perf_counter()
            records = await server.submit_many(burst)
            return records, time.perf_counter() - t0

    async def streaming():
        async with make_server() as server:
            t0 = time.perf_counter()
            records = await asyncio.gather(*(server.submit(s)
                                             for s in burst))
            return records, time.perf_counter() - t0

    gc.collect()
    slab_records, slab_dt = asyncio.run(bulk())
    bulk_slabs = list(created)
    single_records, single_dt = asyncio.run(streaming())

    # The acceptance assertion: ceil(256 / 16) slabs, one future each.
    assert len(bulk_slabs) == 16
    assert all(slab.count == 16 for slab in bulk_slabs)
    assert len({id(slab.future) for slab in bulk_slabs}) == 16
    # Each per-request submit is a one-slot slab of its own.
    assert len(created) - len(bulk_slabs) == len(burst)

    # Bulk and streaming submission produce identical records in order.
    assert [(r.spec, r.n_threads) for r in slab_records] \
        == [(r.spec, r.n_threads) for r in single_records]

    slab_rps = len(burst) / slab_dt
    single_rps = len(burst) / single_dt
    save_result("serve_slab_submit", format_table(
        [{"mode": "submit_many (slabs)", "req_per_s": round(slab_rps, 1),
          "futures": len(created)},
         {"mode": "per-request submit", "req_per_s": round(single_rps, 1),
          "futures": len(burst)}],
        title="256-request burst: slab-batched vs per-request submission "
              "(max_batch=16, instant backend)"))
    save_bench_json("serve", "slab_submit", {
        "req_per_s": round(slab_rps, 1), "served": len(burst),
        "futures": len(bulk_slabs)})
    save_bench_json("serve", "per_request_submit", {
        "req_per_s": round(single_rps, 1), "served": len(burst),
        "futures": len(burst)})


# -- tracing overhead ----------------------------------------------------

def test_tracing_overhead(table_bundle, save_result, save_bench_json):
    """Span collection must cost <= 5% throughput in the worst case."""
    import gc

    table = table_bundle.table
    pool = _lattice_pool(table, N_TABLE_POOL)
    trace = poisson_trace(pool, rate_hz=TABLE_RATE_HZ,
                          n_requests=len(pool), n_clients=4, seed=0)
    backend = _InstantBackend()

    def replay(tracing: bool, with_table: bool = True):
        predictor = table_bundle.predictor(cache_size=2 * len(pool),
                                           compiled=True, table=with_table)
        service = GemmService(predictor, backend=backend)
        server = GemmServer(service, max_batch=MAX_BATCH,
                            max_wait_ms=MAX_WAIT_MS, max_queue=1024,
                            tracing=tracing)
        gc.collect()
        gc.disable()
        try:
            return replay_trace(server, trace), server
        finally:
            gc.enable()

    def best(tracing: bool, trials: int = 3):
        outcomes = [replay(tracing) for _ in range(trials)]
        return max(outcomes, key=lambda pair: pair[0].requests_per_sec)

    off_outcome, _ = best(tracing=False)
    on_outcome, on_server = best(tracing=True)
    overhead = 1.0 - (on_outcome.requests_per_sec
                      / off_outcome.requests_per_sec)
    trace_stats = on_server.collector.stats()

    rows = [off_outcome.report_row("tracing off"),
            on_outcome.report_row("tracing on")]
    rows[0]["overhead_pct"] = 0.0
    rows[1]["overhead_pct"] = round(100.0 * overhead, 2)
    save_result("serve_tracing_overhead", format_table(
        rows, title="serve replay: tracing on vs off "
                    f"({len(pool)} lattice-point requests "
                    f"@ {TABLE_RATE_HZ:g}/s, instant backend)"))
    save_bench_json("serve", "tracing_off", _bench_metrics(off_outcome))
    save_bench_json("serve", "tracing_on", {
        **_bench_metrics(on_outcome),
        "overhead_pct": round(100.0 * overhead, 2),
        "complete_chains": trace_stats["complete"]})

    # Observability must not change behaviour: selections bitwise
    # identical, and not one extra model pass.
    assert on_outcome.thread_choices() == off_outcome.thread_choices()
    assert on_outcome.stats["model_passes"] \
        == off_outcome.stats["model_passes"] == 0

    # Every finished request produced a complete six-span chain.
    assert trace_stats["traces"] == on_outcome.served
    assert trace_stats["complete"] == on_outcome.served
    assert trace_stats["dropped"] == 0

    # The compiled-plan path (model passes > 0) agrees too: tracing
    # adds zero model passes even when the model is in the loop.
    plan_on, _ = replay(tracing=True, with_table=False)
    plan_off, _ = replay(tracing=False, with_table=False)
    assert plan_on.thread_choices() == plan_off.thread_choices()
    assert plan_on.stats["model_passes"] \
        == plan_off.stats["model_passes"] > 0

    # The acceptance bar: <= 5% sustained-throughput overhead in the
    # decision-dominated worst case (best-of-3 each side).
    assert overhead <= 0.05, (
        f"tracing costs {100 * overhead:.1f}% throughput "
        f"({on_outcome.requests_per_sec:.0f} vs "
        f"{off_outcome.requests_per_sec:.0f} req/s)")


# -- multi-process fleet vs single server --------------------------------

FLEET_WORKERS = 4
FLEET_ITERS = 1000                          # CPU spin per request
FLEET_KERNEL_S = 0.004                      # blocking kernel time per request
N_FLEET_REQUESTS = 96 if SMOKE else 256


@pytest.fixture(scope="module")
def fleet_registry(tmp_path_factory):
    """A registry publishing a quick installation for gemm and gemv.

    Fleet workers are separate processes, so the control plane must be
    on disk — this is the only benchmark fixture that cannot hand the
    server a live bundle object.
    """
    from repro.core.training import InstallationWorkflow
    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator
    from repro.ml.registry import candidate_models
    from repro.train.registry import ModelRegistry

    sim = MachineSimulator(by_name("tiny"), seed=0)
    cands = [c for c in candidate_models(budget="fast")
             if c.name == "Linear Regression"]
    workflow = InstallationWorkflow(
        sim, memory_cap_bytes=8 * MB, n_shapes=40, candidates=cands,
        tune_iters=1, cv_folds=2, repeats=2, seed=0)
    bundle = workflow.run()
    root = tmp_path_factory.mktemp("fleet-bench") / "registry"
    registry = ModelRegistry(root)
    registry.publish(bundle, routine="gemm")
    registry.publish(bundle, routine="gemv")
    return root


def _fleet_pool(n: int, seed: int = 7) -> list:
    """Mixed GEMM/GEMV shapes (every third request is a GEMV)."""
    from repro.blas.gemv import GemvSpec

    rng = np.random.default_rng(seed)
    pool = []
    for i in range(n):
        m, k, n_dim = (int(x) for x in rng.integers(16, 512, size=3))
        if i % 3 == 2:
            pool.append(GemvSpec(m, 8 * k))
        else:
            pool.append(GemmSpec(m, k, n_dim))
    return pool


def test_fleet_throughput(fleet_registry, save_result, save_bench_json):
    """4-worker fleet vs one server on a kernel-bound mixed-routine burst.

    Per-request work is a small GIL-holding spin plus a blocking
    4 ms kernel-occupancy window (``CpuBoundBackend(sleep_s=...)``) —
    the window, like a real synchronous BLAS call, keeps one worker
    busy while *other workers'* kernels overlap, so the fleet's win is
    measurable even inside a single-CPU container where pure spin work
    cannot overlap across processes.
    """
    import asyncio
    import time

    from repro.bench.loadgen import CpuBoundBackend
    from repro.fleet import FleetServer
    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator
    from repro.train.registry import ModelRegistry

    burst = _fleet_pool(N_FLEET_REQUESTS)

    async def run_single():
        registry = ModelRegistry(fleet_registry)
        service = GemmService.from_registry(
            registry, MachineSimulator(by_name("tiny"), seed=0),
            machine_name="tiny",
            backend=CpuBoundBackend(iters=FLEET_ITERS,
                                    sleep_s=FLEET_KERNEL_S))
        server = GemmServer(service, max_batch=16, max_wait_ms=2.0,
                            max_queue=512)
        async with server:
            t0 = time.perf_counter()
            records = await server.submit_many(burst)
            return records, time.perf_counter() - t0

    async def run_fleet():
        server = FleetServer.from_registry(
            fleet_registry, "tiny", workers=FLEET_WORKERS,
            backend="repro.bench.loadgen:cpu_bound_backend",
            backend_args=(("iters", FLEET_ITERS),
                          ("sleep_s", FLEET_KERNEL_S)))
        async with server:
            # Untimed warmup fills each worker's prediction cache, so
            # both modes are measured with warm caches.
            await server.submit_many(burst)
            t0 = time.perf_counter()
            records = await server.submit_many(burst)
            return records, time.perf_counter() - t0

    single_records, single_dt = asyncio.run(run_single())
    fleet_records, fleet_dt = asyncio.run(run_fleet())

    single_rps = len(burst) / single_dt
    fleet_rps = len(burst) / fleet_dt
    speedup = fleet_rps / single_rps

    save_result("serve_fleet_throughput", format_table(
        [{"mode": f"fleet ({FLEET_WORKERS} workers)", "served": len(burst),
          "wall_ms": round(fleet_dt * 1e3, 1),
          "req_per_s": round(fleet_rps, 1), "speedup": round(speedup, 2)},
         {"mode": "single process", "served": len(burst),
          "wall_ms": round(single_dt * 1e3, 1),
          "req_per_s": round(single_rps, 1), "speedup": 1.0}],
        title=f"kernel-bound burst ({N_FLEET_REQUESTS} mixed gemm/gemv "
              f"requests, {FLEET_ITERS} spin iters + "
              f"{FLEET_KERNEL_S * 1e3:.0f} ms kernel each)"))
    save_bench_json("serve", "fleet_4w", {
        "req_per_s": round(fleet_rps, 1), "served": len(burst),
        "workers": FLEET_WORKERS, "speedup_vs_single": round(speedup, 2)})
    save_bench_json("serve", "single_process", {
        "req_per_s": round(single_rps, 1), "served": len(burst)})

    # Every request served on both paths.
    assert all(r is not None for r in single_records)
    assert all(r is not None for r in fleet_records)

    # Process distribution must not change behaviour: selections are
    # bitwise identical to single-process serving, request for request.
    assert [r.n_threads for r in fleet_records] \
        == [r.n_threads for r in single_records]

    # The acceptance bar: real parallel speedup on real CPU work.
    assert speedup >= 2.5, (
        f"{FLEET_WORKERS}-worker fleet only {speedup:.2f}x the single "
        f"process ({fleet_rps:.0f} vs {single_rps:.0f} req/s)")


# -- cost-aware batch formation ------------------------------------------

COST_RATE_HZ = 100.0                       # Poisson arrivals, mixed trace
N_COST_REQUESTS = 120 if SMOKE else 240
HEAVY_EVERY = 4                            # every 4th request is a heavy GEMM
COST_WINDOW_MS = 120.0                     # wide window: count-only batches
                                           # span several heavy arrivals
SECONDS_PER_FLOP = 7.5e-10                 # heavy ~25 ms, light ~6 us


class _CostProportionalBackend:
    """Blocks wall time proportional to the spec's FLOPs.

    A batch's execution window is then the *sum* of its members'
    predicted costs — exactly the quantity ``max_batch_cost`` budgets —
    so a light request stuck in a batch with heavy GEMMs pays their
    wall time, and the cost-budgeted scheduler's win is measurable.
    The *returned* runtime stays a pure function of the spec, keeping
    records bitwise-comparable across modes.  It sleeps, so it declares
    ``blocking``: the server runs its batches off the event loop.
    """

    blocking = True

    def __init__(self, seconds_per_flop: float):
        self.seconds_per_flop = float(seconds_per_flop)

    def timed_run(self, spec, n_threads: int, repeats: int = 1, **kw) -> float:
        import time as _time

        flops = float(getattr(spec, "flops", 1.0))
        _time.sleep(flops * self.seconds_per_flop)
        return flops / (float(n_threads) * 1e12)


def _mixed_pool(n: int) -> list:
    """Every ``HEAVY_EVERY``-th request a heavy GEMM, the rest light GEMVs."""
    from repro.blas.gemv import GemvSpec

    pool = []
    for i in range(n):
        if i % HEAVY_EVERY == HEAVY_EVERY - 1:
            pool.append(GemmSpec(256, 256, 256))       # ~33.7 MFLOP
        else:
            pool.append(GemvSpec(64, 64 + (i % 32)))   # ~8 kFLOP
    return pool


def test_cost_aware_batching(fleet_registry, save_result, save_bench_json):
    """FLOPs-budgeted batch formation vs count-only on a mixed trace.

    Acceptance: light-routine (gemv) p99 latency >= 2x better under
    ``max_batch_cost`` than count-only batching with the same window
    and size limits, and thread selections bitwise identical — the
    budget moves batch boundaries, never predictions.
    """
    import asyncio  # noqa: F401  (replay_trace drives its own loop)

    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator
    from repro.train.registry import ModelRegistry

    pool = _mixed_pool(N_COST_REQUESTS)
    trace = poisson_trace(pool, rate_hz=COST_RATE_HZ,
                          n_requests=N_COST_REQUESTS, n_clients=4, seed=2)
    heavy_flops = float(GemmSpec(256, 256, 256).flops)
    budget = 0.5 * heavy_flops  # a heavy always frames alone

    def replay(max_batch_cost):
        registry = ModelRegistry(fleet_registry)
        service = GemmService.from_registry(
            registry, MachineSimulator(by_name("tiny"), seed=0),
            machine_name="tiny",
            backend=_CostProportionalBackend(SECONDS_PER_FLOP))
        server = GemmServer(service, max_batch=64,
                            max_wait_ms=COST_WINDOW_MS, max_queue=1024,
                            max_pending=2048, max_batch_cost=max_batch_cost)
        return replay_trace(server, trace)

    count_only = replay(None)
    cost_aware = replay(budget)

    # Nothing dropped, and the budget never moved a thread selection.
    assert count_only.served == cost_aware.served == N_COST_REQUESTS
    assert cost_aware.thread_choices() == count_only.thread_choices()

    # The budget genuinely closed batches on predicted cost.
    closes = cost_aware.stats["batch_close_reasons"]
    assert closes.get("cost", 0) > 0
    assert "batch_cost" in cost_aware.stats

    light_cost_p99 = \
        cost_aware.stats["routines"]["gemv"]["latency_ms"]["p99_ms"]
    light_count_p99 = \
        count_only.stats["routines"]["gemv"]["latency_ms"]["p99_ms"]
    heavy_cost_p99 = \
        cost_aware.stats["routines"]["gemm"]["latency_ms"]["p99_ms"]
    heavy_count_p99 = \
        count_only.stats["routines"]["gemm"]["latency_ms"]["p99_ms"]
    improvement = light_count_p99 / light_cost_p99

    rows = []
    for label, outcome, light_p99, heavy_p99 in (
            ("cost-budgeted", cost_aware, light_cost_p99, heavy_cost_p99),
            ("count-only", count_only, light_count_p99, heavy_count_p99)):
        row = outcome.report_row(label)
        row["light_p99_ms"] = light_p99
        row["heavy_p99_ms"] = heavy_p99
        rows.append(row)
    save_result("serve_cost_aware", format_table(
        rows, title="serve replay: FLOPs-budgeted vs count-only batching "
                    f"({N_COST_REQUESTS} mixed gemm/gemv requests "
                    f"@ {COST_RATE_HZ:g}/s, cost-proportional backend, "
                    f"budget {budget:.3g} FLOPs)"))
    save_bench_json("serve", "cost_aware", {
        **_bench_metrics(cost_aware),
        "light_p99_ms": light_cost_p99, "heavy_p99_ms": heavy_cost_p99,
        "cost_closed_batches": closes.get("cost", 0),
        "light_p99_improvement": round(improvement, 2)})
    save_bench_json("serve", "count_only", {
        **_bench_metrics(count_only),
        "light_p99_ms": light_count_p99, "heavy_p99_ms": heavy_count_p99})

    # The acceptance bar: the budget shields light traffic from heavy
    # batch-mates — >= 2x better light-routine tail latency.
    assert improvement >= 2.0, (
        f"cost budget improved light p99 only {improvement:.2f}x "
        f"({light_count_p99:.1f} ms count-only vs "
        f"{light_cost_p99:.1f} ms budgeted)")


def test_cost_aware_fleet_routing_parity(fleet_registry, save_result,
                                         save_bench_json):
    """Cost-weighted routing must not tax a uniform trace.

    On uniform per-request cost the :class:`CostAwareLeastLoadedRouter`
    degenerates to least-loaded-by-count, so a 4-worker fleet must
    sustain the same throughput (0.7x floor absorbs process-spawn and
    scheduling noise) with bitwise-identical selections.
    """
    import asyncio
    import time

    from repro.fleet import FleetServer

    burst = [GemmSpec(64 + (i % 8), 128, 96) for i in range(N_FLEET_REQUESTS)]

    def run_fleet(router: str):
        async def go():
            server = FleetServer.from_registry(
                fleet_registry, "tiny", workers=FLEET_WORKERS,
                router=router,
                backend="repro.bench.loadgen:cpu_bound_backend",
                backend_args=(("iters", FLEET_ITERS),
                              ("sleep_s", FLEET_KERNEL_S)))
            async with server:
                await server.submit_many(burst)        # warm caches
                t0 = time.perf_counter()
                records = await server.submit_many(burst)
                dt = time.perf_counter() - t0
                return records, dt, server.stats()

        return asyncio.run(go())

    count_records, count_dt, _ = run_fleet("least_loaded")
    cost_records, cost_dt, cost_stats = run_fleet("cost_least_loaded")

    cost_rps = len(burst) / cost_dt
    count_rps = len(burst) / count_dt
    parity = cost_rps / count_rps

    # Routing policy must not change behaviour.
    assert [r.n_threads for r in cost_records] \
        == [r.n_threads for r in count_records]

    # The front priced every dispatch: outstanding-cost accounting
    # exists per worker and settled back to zero after the drain.
    workers = cost_stats["workers"]
    assert all("cost_in_flight" in w for w in workers.values())
    assert all(w["cost_in_flight"] == 0.0 for w in workers.values())
    assert all("outstanding_cost_flops" in w["counters"]
               for w in workers.values())

    save_result("serve_cost_routing", format_table(
        [{"router": "cost_least_loaded", "req_per_s": round(cost_rps, 1),
          "parity": round(parity, 2)},
         {"router": "least_loaded", "req_per_s": round(count_rps, 1),
          "parity": 1.0}],
        title=f"uniform burst ({N_FLEET_REQUESTS} requests, "
              f"{FLEET_WORKERS} workers): cost-weighted vs count routing"))
    save_bench_json("serve", "fleet_cost_router", {
        "req_per_s": round(cost_rps, 1), "served": len(burst),
        "parity_vs_least_loaded": round(parity, 2)})

    # The acceptance bar: no worse than least-loaded on uniform cost.
    assert parity >= 0.7, (
        f"cost-aware routing only {parity:.2f}x least-loaded "
        f"({cost_rps:.0f} vs {count_rps:.0f} req/s)")
