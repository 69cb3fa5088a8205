"""The repository's benchmark: ADSALA thread selection end to end.

Usage::

    python3 perfbench/run.py --workload {library,serve,fleet} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The process pins itself to one CPU
before anything else, so the fleet workers it spawns share that CPU
too, then prepares its inputs (trained bundle, registry, replay table,
oracle; cached per source version, see ``prepare.py``).

Every number comes from child processes (``child.py``):

* ``setup_s`` is the median over :data:`SETUP_RUNS` cold starts, each a
  fresh process timed from spawn to its first answered request, half of
  them before the measured process and half after;
* one more fresh process drives the workload in a closed loop, one
  second untimed and then ``--seconds`` timed, and reports throughput,
  latency, peak memory and the paper's GEMM speedup; every record it
  got is checked against the object-path oracle;
* with ``--trace 1`` a further process repeats the measured phase with
  per-layer spans (``trace.py``) and the per-layer metrics are printed
  instead of the end-to-end ones.

``setup_s``, ``req_per_s``, ``p50_ms`` and ``tail_ms`` are in reference
time: the pinned CPU's speed is probed around each cold start and
between requests (the fleet's through a fixed multi-process relay,
``relay.py``), and wall time is converted to the time on a CPU of fixed
speed (``host.py``), because the speed of a shared virtual CPU moves by
up to 2.5x with its neighbours' load.  The wall-clock figures
and the probe's spread are kept in the run record.

The last line of standard output is the result as one JSON object.  The
line before it records the host, the workload's reason and, for each
per-layer metric, the end-to-end metrics it should move; the same
record is written to ``perfbench/.out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", ".out")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150

SETUP_PARTS = ("import_s", "load_s", "build_s", "first_s")

#: Layer -> the end-to-end metrics it should move.  A per-layer metric
#: belongs to the layer its name starts with (``cache.hit_ratio``:
#: ``cache``).
TARGETS = {
    "setup": "setup_s",
    "engine": "library p50_ms, req_per_s",
    "cache": "library p50_ms; serve req_per_s",
    "predictor": "req_per_s on all; optimal_share: gemm_speedup",
    "table": "serve p50_ms, req_per_s; library tail_ms",
    "model": "library tail_ms; serve, fleet req_per_s",
    "features": "library tail_ms; serve, fleet req_per_s",
    "plan": "library tail_ms; serve, fleet req_per_s",
    "backend": "none: stays about constant per request",
    "serve": "serve p50_ms, tail_ms, req_per_s",
    "fleet": "fleet req_per_s, p50_ms",
    "gc": "serve tail_ms; rss_mb on all",
    "heap": "serve tail_ms; rss_mb on all",
    "trace": "none: the cost of tracing and the time no layer accounts for",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_one_cpu() -> int:
    """Restrict this process (and every process it spawns) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(cfg: dict) -> dict:
    """Run one child process.

    Its cold-start times are converted to reference time between the
    CPU probes taken just before it starts and just after its first
    answer; the wall-clock times are kept under ``setup_wall``.
    """
    from perfbench import host

    before = host.probe_median()
    cfg = dict(cfg, t_spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(cfg)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{cfg['workload']} child timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"{cfg['workload']} child exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = out["setup"]
    scale = host.setup_scale(before, wall.pop("probe_after_s"))
    out["setup"] = {part: wall[part] * scale for part in SETUP_PARTS}
    out["setup_wall"] = dict(wall, scale=scale)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as fh:
        bench = json.load(fh)
    workloads = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {sorted(workloads)}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        fail("src/repro not found: the benchmark needs the program's source")

    cpu = pin_one_cpu()
    sys.path.insert(0, ROOT)
    from perfbench import prepare

    prepared = prepare.ensure(log=lambda msg: print(msg, file=sys.stderr))
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"workload": args.workload, "prepared": prepared,
            "seed": args.seed, "cpu": cpu}

    # Half the cold starts run before the measured process and half
    # after, so their median spans the run's stretch of host speed.
    cold = {**base, "seconds": 0}
    children = [run_child(cold) for _ in range(SETUP_RUNS // 2)]
    untraced = run_child({**base, "seconds": args.seconds})
    children.append(untraced)
    children += [run_child(cold) for _ in range((SETUP_RUNS - 1) // 2)]
    setups = [child["setup"] for child in children]
    measure = untraced["measure"]
    if args.trace:
        cfg = {**base, "seconds": args.seconds, "trace": True,
               "spans": os.path.join(OUT, f"spans-{tag}.jsonl")}
        if args.workload == "fleet":
            cfg["worker_trace"] = os.path.join(OUT, f"worker-{tag}")
        traced = run_child(cfg)
        children.append(traced)
        # Layers a workload does not cross (serve and fleet on library,
        # fleet on serve) read 0.
        layers = {m["name"]: 0.0 for m in bench["per_layer"]}
        for part in SETUP_PARTS:
            layers[f"setup.{part}"] = statistics.median(
                s[part] for s in setups)
        layers.update(traced["trace"]["layers"])
        layers["trace.overhead"] = (measure["req_per_s"]
                                    / traced["measure"]["req_per_s"] - 1.0)
        layers["trace.residual"] = traced["trace"]["residual"]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = layers
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "setup_s": statistics.median(
                sum(s[p] for p in SETUP_PARTS) for s in setups),
            "rss_mb": measure["rss_mb"],
            "req_per_s": measure["req_per_s"],
            "p50_ms": measure["p50_ms"],
            "tail_ms": measure["tail_ms"],
            "gemm_speedup": measure["gemm_speedup"],
        }
    if set(values) != set(units):
        fail(f"metric set {sorted(values)} does not match BENCHMARK.json "
             f"{sorted(units)}")
    # Every child's records passed the oracle gate, first answers of the
    # cold starts included; a failed request has no record to check.
    gates = [child["gate"] for child in children]
    result = {
        "correct": all(g["wrong"] == 0 and g["missing"] == 0 for g in gates),
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(g["failed"] + g["missing"] for g in gates),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    import numpy

    context = {
        "host": {"nproc": os.cpu_count(), "pinned_cpu": cpu,
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "workload": args.workload, "why": workloads[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_samples": setups,
        "setup_wall_samples": [child["setup_wall"] for child in children],
        "gates": gates,
        "latency_samples": measure["latency_n"],
        "tail_percentile": measure["tail_percentile"],
        "wall_clock": measure["wall"],
        "cpu_speed": measure["host"],
        "targets": {name: TARGETS[name.split(".")[0]]
                    for name in units} if args.trace else {},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({**context, **result}, fh, indent=2)
    print(json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
