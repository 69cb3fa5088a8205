"""One benchmark process: a cold start, then optionally a measured phase.

Run by ``run.py`` as ``python3 perfbench/child.py '<json config>'``.
Only the standard library is imported before the program, so the
cold-start clock sees exactly what a user's process pays:

* ``import_s``: spawn to ``import repro`` done (interpreter start
  included; the parent passes its spawn time on the shared monotonic
  clock);
* ``load_s``: ``ModelRegistry.load`` with checksum checks (fleet: 0,
  the workers load inside ``build_s``);
* ``build_s``: the runtime, server, or fleet with its worker spawn;
* ``first_s``: the first answered request.

The CPU's speed is probed once the first answer is in, for ``run.py``
to convert these times to reference time (``host.py``).

Loading the replay table and generating the stream happen between
``import_s`` and ``load_s`` and are not counted.  With ``seconds > 0``
the process then drives its workload in a closed loop, untimed for
:data:`WARMUP_S` and then timed for ``seconds``, with the CPU's speed
probed between requests (``host.py``; the fleet's through ``relay.py``),
checks every record against the oracle and prints one JSON line:
throughput and latency in reference time, and the same in wall-clock
time for the record.
"""

import asyncio
import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SERVE_CALLERS = 32
FLEET_BURST = 256
FLEET_WORKERS = 2
#: gemm_speedup is taken over this fixed prefix of the stream, so it is
#: identical in every run of one seed.
SPEEDUP_CALLS = 4096
#: Each measured phase first drives its loop this long untimed, so the
#: start-up transient (first model passes, first collections of the
#: freshly imported heap) stays out of the latency tail.
WARMUP_S = 1.0
#: rss_mb is read once this many requests have completed (or at the end
#: of a run that completes fewer): the engine keeps every record, so a
#: reading at the end of a timed run would grow with throughput.
RSS_AT = {"library": 100_000, "serve": 20_000, "fleet": 16_384}
#: tail_ms is this percentile of request latency: the highest of p99,
#: p95 and p90 with at least ten samples beyond it in every run.  A fleet
#: run times 190 to 400 bursts (fewer while the host is slow), so only
#: its p90 always has ten beyond it.
TAIL_PERCENTILE = {"library": 99, "serve": 99, "fleet": 90}


def _hwm_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise KeyError("VmHWM")


class Phase:
    """One process's run: setup times, gate counts, latencies, trace."""

    def __init__(self, cfg, universe, rows):
        from perfbench import host

        self.cfg = cfg
        self.universe = universe
        self.rows = rows.tolist()  # stream position -> universe row
        self.setup = {}
        self.records = []   # library and serve: positions 1, 2, ... in order
        self.sent = 0       # library and serve: requests sent after the first
        self.starts = array("d")     # timed requests' start (fleet: burst)
        self.latencies = array("d")  # and their wall seconds
        # A library or serve process always has work, so the share of
        # the wall time it ran shows the vCPU time the hypervisor stole.
        self.meter = host.Speedometer(host.ELASTICITY[cfg["workload"]],
                                      cpu_clock=time.process_time)
        self.completed = 0  # requests answered in the timed window
        self.timed = 0.0    # perf_counter() when the timed window began
        self.end = 0.0      # and ended
        self.wall = 0.0     # warm-up and timed window together
        self.steal = 0.0    # share of the measured phase stolen
        self.checked = Counter()
        self.attempted = 0
        self.kept = []      # records of positions 0 .. SPEEDUP_CALLS - 1
        self.stats = {}
        self.tracer = None
        self.rss_at = RSS_AT[cfg["workload"]]
        self.rss_mb = None

    def stamp(self, t0, t_load, t_build, t_first) -> None:
        from perfbench import host

        self.setup.update(load_s=t_load - t0, build_s=t_build - t_load,
                          first_s=t_first - t_build,
                          probe_after_s=host.probe_median())

    def read_rss(self, pids=()) -> None:
        self.rss_mb = _hwm_mb() + sum(_hwm_mb(pid) for pid in pids)

    def check(self, start, records, sent) -> None:
        """Gate ``records`` against the ``sent`` requests of stream
        positions ``start, start + 1, ...``."""
        from perfbench.oracle import gate

        n = len(self.rows)
        rows = [self.rows[(start + j) % n] for j in range(sent)]
        self.checked.update(gate(rows, records, self.universe))
        self.attempted += sent
        room = SPEEDUP_CALLS - len(self.kept)
        if room > 0:
            self.kept.extend(records[:room])

    def begin(self) -> float:
        """Start the measured phase (warm-up first); returns its start."""
        from perfbench import host

        self.begin_trace()
        self._steal_before = host.steal_ticks(self.cfg["cpu"])
        begin = time.perf_counter()
        self.meter.poll(begin)
        return begin

    def finish(self, begin, timed, end, completed) -> None:
        from perfbench import host

        self.wall = end - begin
        self.timed, self.end = timed, end
        self.completed = completed
        self.steal = host.steal_share(self.cfg["cpu"], self._steal_before,
                                      self.wall)
        self.end_trace()

    def measure(self) -> dict:
        """End-to-end numbers of the timed window, in reference time
        (see ``host.py``); wall-clock figures are kept alongside."""
        import numpy as np

        from perfbench.oracle import gemm_speedup

        meter = self.meter
        tail = TAIL_PERCENTILE[self.cfg["workload"]]
        starts = np.asarray(self.starts)
        wall = np.asarray(self.latencies)
        latency = wall * 1e3
        reference = (meter.clock(starts + wall) - meter.clock(starts)) * 1e3
        elapsed = self.end - self.timed
        return {
            "req_per_s": self.completed / meter.reference_s(self.timed,
                                                            self.end),
            "p50_ms": float(np.percentile(reference, 50)),
            "tail_ms": float(np.percentile(reference, tail)),
            "rss_mb": self.rss_mb,
            "gemm_speedup": gemm_speedup(self.rows[:len(self.kept)],
                                         self.kept, self.universe),
            "latency_n": int(latency.size),
            "tail_percentile": tail,
            "wall": {"req_per_s": self.completed / elapsed,
                     "p50_ms": float(np.percentile(latency, 50)),
                     "tail_ms": float(np.percentile(latency, tail))},
            "host": {**meter.summary(), "steal_share": self.steal},
        }

    def begin_trace(self) -> None:
        if self.cfg.get("trace"):
            from perfbench.trace import Tracer

            self.tracer = Tracer(self.universe.fastest()).install()

    def end_trace(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def trace_result(self) -> dict:
        from perfbench.trace import layer_metrics, merge, residual

        totals = self.tracer.process_totals()
        worker_trace = self.cfg.get("worker_trace")
        if worker_trace:
            # Fleet workers wrote their totals when they exited.
            directory, prefix = os.path.split(worker_trace)
            for name in sorted(os.listdir(directory)):
                if name.startswith(prefix + ".") and name.endswith(".json"):
                    path = os.path.join(directory, name)
                    with open(path) as fh:
                        totals = merge(totals, json.load(fh)["totals"])
                    os.remove(path)
        self.tracer.write_spans(self.cfg["spans"])
        return {"residual": residual(totals, self.wall),
                "layers": {**layer_metrics(totals), **self.stats}}


def _serve_layers(servers) -> dict:
    """Micro-batcher metrics from ``GemmServer.stats()`` dicts."""
    batches = sum(s["batches"] for s in servers)
    slots = sum(s["batches"] * s["mean_batch_size"] for s in servers)
    closes = Counter()
    for s in servers:
        closes.update(s.get("batch_close_reasons", {}))
    return {
        "serve.batches": batches,
        "serve.batch_mean": slots / batches,
        "serve.window_close_share": closes["window"] / sum(closes.values()),
        "serve.wait_p50_ms": statistics.median(
            s["queue_wait_ms"]["p50_ms"] for s in servers),
    }


# -- library ----------------------------------------------------------------
def run_library(phase, registry, backend, specs):
    from repro import AdsalaRuntime

    t0 = time.monotonic()
    bundle = registry.load("gemm", "gadi")
    t_load = time.monotonic()
    runtime = AdsalaRuntime(bundle, backend)
    t_build = time.monotonic()
    first = runtime.run(specs[0])
    phase.stamp(t0, t_load, t_build, time.monotonic())
    phase.check(0, [first], 1)
    seconds = phase.cfg["seconds"]
    if not seconds:
        return
    run = runtime.run
    records, starts, latencies = phase.records, phase.starts, phase.latencies
    poll = phase.meter.poll
    n = len(specs)
    clock = time.perf_counter
    i = ok = 0
    begin = now = phase.begin()
    timed = begin + WARMUP_S
    deadline = timed + seconds
    while now < deadline:
        poll(now)
        i += 1
        start = clock()
        try:
            record = run(specs[i % n])
        except Exception as exc:  # noqa: BLE001 - counted as failed
            record = exc
        now = clock()
        records.append(record)
        if start >= timed:
            starts.append(start)
            latencies.append(now - start)
            ok += not isinstance(record, Exception)
        if i == phase.rss_at:
            phase.read_rss()
    phase.sent = i
    phase.finish(begin, timed, now, ok)
    if phase.rss_mb is None:
        phase.read_rss()


# -- serve ------------------------------------------------------------------
async def run_serve(phase, registry, backend, specs):
    from perfbench.host import PROBE_EVERY_S
    from repro import GemmServer, GemmService

    t0 = time.monotonic()
    bundle = registry.load("gemm", "gadi")
    t_load = time.monotonic()
    server = GemmServer(GemmService.from_bundle(bundle, backend))
    await server.start()
    t_build = time.monotonic()
    first = await server.submit(specs[0])
    phase.stamp(t0, t_load, t_build, time.monotonic())
    phase.check(0, [first], 1)
    seconds = phase.cfg["seconds"]
    if seconds:
        results = {}
        starts, latencies = phase.starts, phase.latencies
        n = len(specs)
        clock = time.perf_counter
        state = {"next": 1, "ok": 0}
        begin = phase.begin()
        timed = begin + WARMUP_S
        deadline = timed + seconds

        async def caller():
            while clock() < deadline:
                i = state["next"]
                state["next"] = i + 1
                start = clock()
                try:
                    record = await server.submit(specs[i % n])
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record = exc
                if start >= timed:
                    starts.append(start)
                    latencies.append(clock() - start)
                    state["ok"] += not isinstance(record, Exception)
                results[i] = record
                if len(results) == phase.rss_at:
                    phase.read_rss()

        async def speedometer():
            # The probe runs on the event loop between the callers' steps.
            while clock() < deadline:
                await asyncio.sleep(PROBE_EVERY_S)
                phase.meter.poll(clock())

        await asyncio.gather(speedometer(),
                             *(caller() for _ in range(SERVE_CALLERS)))
        phase.finish(begin, timed, clock(), state["ok"])
        phase.sent = state["next"] - 1
        phase.records = [results.get(i) for i in range(1, state["next"])]
        if phase.rss_mb is None:
            phase.read_rss()
        phase.stats = _serve_layers([server.stats()])
    await server.close()


# -- fleet ------------------------------------------------------------------
async def run_fleet(phase, registry, universe_path, specs):
    from perfbench import host
    from perfbench.relay import Relay
    from repro.fleet import FleetServer

    args = (("path", universe_path),)
    if phase.cfg.get("worker_trace"):
        args += (("trace_path", phase.cfg["worker_trace"]),)
    t0 = time.monotonic()
    fleet = FleetServer.from_registry(
        registry.root, "gadi", workers=FLEET_WORKERS,
        backend="perfbench.replay:worker_backend", backend_args=args)
    await fleet.start()
    t_build = time.monotonic()
    first = await fleet.submit(specs[0])
    phase.stamp(t0, t0, t_build, time.monotonic())
    phase.check(0, [first], 1)
    seconds = phase.cfg["seconds"]
    if seconds:
        starts, latencies = phase.starts, phase.latencies
        n = len(specs)
        clock = time.perf_counter
        pids = [w["pid"] for w in fleet.stats()["workers"].values()]
        i, ok = 1, 0
        # The fleet's speed is probed through the relay (``relay.py``),
        # between bursts, while the workers are idle.
        relay = Relay()
        phase.meter = host.Speedometer(host.ELASTICITY["fleet"], relay.probe,
                                       host.RELAY_REFERENCE_S)
        try:
            begin = now = phase.begin()
            timed = begin + WARMUP_S
            deadline = timed + seconds
            while now < deadline:
                phase.meter.poll(now)
                if (phase.rss_mb is None
                        and phase.attempted >= phase.rss_at):
                    phase.read_rss(pids)
                burst = [specs[(i + j) % n] for j in range(FLEET_BURST)]
                start = clock()
                try:
                    records = await fleet.submit_many(burst)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    records = [exc] * FLEET_BURST
                now = clock()
                if start >= timed:
                    starts.append(start)
                    latencies.append(now - start)
                    ok += sum(not isinstance(r, Exception) for r in records)
                # A batch client consumes each burst's results: check
                # them now and keep only what the speedup prefix needs.
                phase.check(i, records, len(burst))
                i += FLEET_BURST
        finally:
            relay.close()
        phase.finish(begin, timed, now, ok)
        if phase.rss_mb is None:
            phase.read_rss(pids)
        if phase.tracer is not None:
            phase.stats = await _fleet_layers(fleet,
                                              phase.kept[1:1 + FLEET_BURST])
    await fleet.close()


async def _fleet_layers(fleet, burst) -> dict:
    """Fleet metrics from the front's and the workers' public stats.

    ``fleet.frame_bytes`` is computed: the pickled size of the slab and
    result frames one measured burst needs, per request.
    """
    import pickle

    from repro.fleet.spec import WorkerSpec
    from repro.fleet.transport import ResultFrame, SlabFrame, chunk_slots

    front = fleet.stats()
    servers = [w["server"] for w in (await fleet.worker_stats()).values()]
    worker_p50 = statistics.median(s["latency_ms"]["p50_ms"] for s in servers)
    slabs = list(chunk_slots(burst, WorkerSpec.max_batch))
    frame_bytes = sum(
        len(pickle.dumps(SlabFrame(1, tuple(r.spec for r in slab))))
        + len(pickle.dumps(ResultFrame(1, tuple(slab)))) for slab in slabs)
    return {
        **_serve_layers(servers),
        "fleet.frames": front["frames"],
        "fleet.frame_bytes": frame_bytes / len(burst),
        "fleet.worker_p50_ms": worker_p50,
        "fleet.transport_share":
            1.0 - worker_p50 / front["latency_ms"]["p50_ms"],
    }


# -- entry point ------------------------------------------------------------
def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path[:0] = [SRC, ROOT]
    import repro  # noqa: F401 - the cold-start import being timed

    if cfg["workload"] == "fleet":
        import repro.fleet  # noqa: F401
    t_import = time.monotonic()

    import numpy as np

    from perfbench import streams
    from perfbench.oracle import Universe
    from repro.gemm.interface import GemmSpec
    from repro.train.registry import ModelRegistry

    prepared = cfg["prepared"]
    universe_path = os.path.join(prepared, "universe.npz")
    universe = Universe.load(universe_path)
    rows = streams.stream(cfg["workload"], universe.on_lattice,
                          universe.gain, cfg["seed"])
    by_row = {row: GemmSpec(*universe.dims[row])
              for row in np.unique(rows).tolist()}
    specs = [by_row[row] for row in rows.tolist()]
    registry = ModelRegistry(os.path.join(prepared, "registry"))

    phase = Phase(cfg, universe, rows)
    if cfg["workload"] == "library":
        run_library(phase, registry, universe.backend(), specs)
    elif cfg["workload"] == "serve":
        asyncio.run(run_serve(phase, registry, universe.backend(), specs))
    else:
        asyncio.run(run_fleet(phase, registry, universe_path, specs))
    phase.setup["import_s"] = t_import - cfg["t_spawn"]
    if phase.sent:  # library and serve: checked once the clock stops
        phase.check(1, phase.records, phase.sent)
    out = {"setup": phase.setup, "gate": dict(phase.checked),
           "attempted": phase.attempted}
    if cfg["seconds"]:
        out["measure"] = phase.measure()
        if phase.tracer is not None:
            out["trace"] = phase.trace_result()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
