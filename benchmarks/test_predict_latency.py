"""Engine extension — compiled-plan prediction latency.

Not a paper figure: this experiment quantifies the compiled-inference
win on the model the paper shows being *erased* by evaluation cost — the
random forest of Tables III/IV, whose object path pays a full vectorised
traversal per tree per batch.  The compiled plan packs every tree into
one node array walked for all trees at once and folds the preprocessing
into a fused pass, so the same batch costs a handful of large-array
numpy calls instead of thousands of tiny ones.

The acceptance bar: compiled batch prediction at least 3x faster than
the object path on a forest bundle, with every thread choice bitwise
identical.  Smoke mode for CI: ``PREDICT_BENCH_SMOKE=1`` shrinks the
installation and the shape set.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.report import format_table

SMOKE = os.environ.get("PREDICT_BENCH_SMOKE") == "1"
MB = 1024 * 1024

N_SHAPES = 96 if SMOKE else 256    # distinct query shapes
BATCH = 32                         # shapes per predict_threads_batch call
REPEATS = 3 if SMOKE else 5        # timed passes (best wins)


def _forest_bundle():
    """A Random-Forest-only installation (the slow-to-evaluate model)."""
    from repro.core.training import InstallationWorkflow
    from repro.machine.presets import by_name
    from repro.machine.simulator import MachineSimulator
    from repro.ml.registry import candidate_models

    sim = MachineSimulator(by_name("tiny" if SMOKE else "gadi"), seed=0)
    cands = [c for c in candidate_models(budget="fast")
             if c.name == "Random Forest"]
    workflow = InstallationWorkflow(
        sim, memory_cap_bytes=(8 if SMOKE else 100) * MB,
        n_shapes=60 if SMOKE else 150, candidates=cands,
        tune_iters=1, cv_folds=2, repeats=3, seed=0)
    return workflow.run()


def _distinct_shapes(n: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    shapes = set()
    while len(shapes) < n:
        shapes.add(tuple(int(x) for x in rng.integers(16, 4096, 3)))
    return sorted(shapes)


def _best_pass_seconds(predictor, shapes, repeats: int) -> float:
    def one_pass() -> float:
        predictor.invalidate_memo()
        t0 = time.perf_counter()
        for start in range(0, len(shapes), BATCH):
            predictor.predict_threads_batch(shapes[start:start + BATCH])
        return time.perf_counter() - t0

    one_pass()  # warm-up
    return min(one_pass() for _ in range(repeats))


def test_compiled_forest_latency(save_result, save_bench_json):
    bundle = _forest_bundle()
    shapes = _distinct_shapes(N_SHAPES)
    obj = bundle.predictor(cache_size=1, compiled=False)
    comp = bundle.predictor(cache_size=1, compiled=True)

    # Parity first: the speedup is only meaningful if choices agree.
    obj.invalidate_memo()
    comp.invalidate_memo()
    np.testing.assert_array_equal(obj.predict_threads_batch(shapes),
                                  comp.predict_threads_batch(shapes))

    t_obj = _best_pass_seconds(obj, shapes, REPEATS)
    t_comp = _best_pass_seconds(comp, shapes, REPEATS)
    speedup = t_obj / t_comp

    plan = comp.plan.describe()
    rows = [
        {"path": "object", "per_shape_us":
            round(t_obj / len(shapes) * 1e6, 2),
         "total_ms": round(t_obj * 1e3, 3), "speedup": 1.0},
        {"path": "compiled", "per_shape_us":
            round(t_comp / len(shapes) * 1e6, 2),
         "total_ms": round(t_comp * 1e3, 3),
         "speedup": round(speedup, 2)},
    ]
    arrays = plan["model_arrays"]
    save_result("predict_latency", format_table(
        rows, title=f"forest predict latency, batch {BATCH} "
                    f"({arrays['n_trees']} trees, "
                    f"{arrays['n_nodes']} packed nodes)"))
    save_bench_json("predict", "compiled_forest", {
        "object_per_shape_us": rows[0]["per_shape_us"],
        "compiled_per_shape_us": rows[1]["per_shape_us"],
        "speedup": round(speedup, 2),
        "n_shapes": len(shapes), "batch": BATCH})

    assert plan["fully_lowered"]
    assert speedup >= 3.0, (
        f"compiled path only {speedup:.2f}x faster "
        f"({t_obj * 1e3:.1f} ms vs {t_comp * 1e3:.1f} ms)")
