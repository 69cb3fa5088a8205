"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps public methods at class level, one set per layer,
and restores them on :meth:`Tracer.uninstall`.  Each call becomes a span
with a name, start, end, parent and request id; nested calls in one
thread nest through a thread-local stack, so a layer's self time is its
span minus its direct children.  Spans are folded into per-layer totals
as they end; the first :data:`SAMPLE_CAP` are also kept whole and
written out with the totals.

Front spans (``GemmServer.submit``/``submit_many``,
``FleetServer.submit_many``) are coroutines with many in flight at
once, so a front span's duration is mostly waiting.  Their self time is
the time spent inside the coroutine's own steps on the event loop (each
``send`` into it, minus wrapped calls it makes synchronously); the
micro-batcher, the executor hop and the pipes stay unattributed and
show in ``trace.residual``.  A ``run_batch`` span names the requests it
served, matched FIFO per spec object, which is the order the
micro-batcher takes them in.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import json
import os
import threading
import types
from collections import defaultdict, deque
from time import perf_counter

SAMPLE_CAP = 20000


class Tracer:
    """Class-level method wrappers feeding per-layer totals.

    ``fastest`` maps ``(m, k, n)`` to the simulator's fastest grid entry;
    it scores the predictor's choices (``predictor.optimal_share``).
    """

    def __init__(self, fastest: dict):
        self.fastest = fastest
        self.totals = defaultdict(float)
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pending = {}
        self._restore = []
        self._gc_start = 0.0

    # -- layers -----------------------------------------------------------
    def install(self) -> "Tracer":
        from repro.compile.table import DecisionTable
        from repro.core.features import FeatureBuilder
        from repro.core.predictor import ThreadPredictor
        from repro.engine.cache import PredictionCache
        from repro.engine.service import GemmService
        from repro.fleet.server import FleetServer
        from repro.serve.server import GemmServer

        from perfbench.replay import ReplayBackend

        t = self.totals
        fastest = self.fastest

        def lookups(args, result):
            t["cache.lookups"] += 1
            t["cache.hits"] += result is not None

        def lookups_many(args, result):
            t["cache.lookups"] += len(args[1])
            t["cache.hits"] += len(result)

        def evictions(args, result, before):
            t["cache.evictions"] += args[0].evictions - before

        def predict(args, result):
            t["predictor.shapes"] += 1
            t["predictor.optimal"] += fastest.get(args[1:4]) == result

        def predict_many(args, result):
            shapes = [tuple(s) for s in args[1]]
            t["predictor.shapes"] += len(shapes)
            t["predictor.optimal"] += sum(
                fastest.get(s) == c for s, c in zip(shapes, result.tolist()))

        def table(args, result):
            t["table.lookups"] += 1
            t["table.hits"] += result[0] is not None

        def table_many(args, result):
            t["table.lookups"] += len(result[1])
            t["table.hits"] += int(result[1].sum())

        def model(args, result):
            t["model.passes"] += 1
            t["model.rows"] += result.size

        def served(args, result):
            pending = self._pending
            names = []
            for spec in args[1]:
                queue = pending.get(id(spec))
                if queue:
                    names.append(queue.popleft())
            return names

        evicted = lambda args: args[0].evictions  # noqa: E731
        self._sync(GemmService, "run", "engine", "engine")
        self._sync(GemmService, "run_batch", "engine", "engine",
                   names=served)
        self._sync(PredictionCache, "get", "cache", "cache", lookups)
        self._sync(PredictionCache, "get_many", "cache", "cache",
                   lookups_many)
        self._sync(PredictionCache, "put", "cache", "cache",
                   evictions, pre=evicted)
        self._sync(PredictionCache, "put_many", "cache", "cache",
                   evictions, pre=evicted)
        self._sync(ThreadPredictor, "predict_threads", "predictor",
                   "predictor", predict)
        self._sync(ThreadPredictor, "predict_threads_batch", "predictor",
                   "predictor", predict_many)
        self._sync(DecisionTable, "lookup_ex", "table", "table", table)
        self._sync(DecisionTable, "lookup_batch_ex", "table", "table",
                   table_many)
        self._sync(ThreadPredictor, "predicted_runtimes", None, "plan",
                   model)
        self._sync(ThreadPredictor, "predicted_runtimes_batch", None,
                   "plan", model)
        self._sync(FeatureBuilder, "build_for_grid", None, "features")
        self._sync(FeatureBuilder, "build_for_batch", None, "features")
        self._sync(ReplayBackend, "timed_run", "backend", "backend")
        self._async(GemmServer, "submit", "serve", many=False)
        self._async(GemmServer, "submit_many", "serve", many=True)
        self._async(FleetServer, "submit_many", "fleet", many=True)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._restore):
            setattr(cls, name, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _sync(self, cls, name, counter, layer, note=None, pre=None,
              names=None):
        """Wrap ``cls.name``: ``note(args, result[, pre(args)])`` counts
        at the boundary; ``names(args, result)`` marks a batch span and
        returns the requests it served."""
        original = cls.__dict__[name]
        totals, local, ids, spans = (self.totals, self._local, self._ids,
                                     self.spans)
        calls_key = counter + ".calls" if counter else None
        self_key = layer + ".self_s"
        span_name = f"{cls.__name__}.{name}"

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            frame = [sid, parent[1] if parent else sid, 0.0]
            before = pre(args) if pre is not None else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            duration = t1 - t0
            totals[self_key] += duration - frame[2]
            if calls_key:
                totals[calls_key] += 1
            if parent is not None:
                parent[2] += duration
            if note is not None:
                if pre is not None:
                    note(args, result, before)
                else:
                    note(args, result)
            if len(spans) < SAMPLE_CAP:
                spans.append({"id": sid, "name": span_name, "start": t0,
                              "end": t1,
                              "parent": parent[0] if parent else None,
                              "request": frame[1],
                              **({"served": names(args, result)}
                                 if names else {})})
            elif names:
                names(args, result)
            return result

        setattr(cls, name, wrapper)
        self._restore.append((cls, name, original))

    def _async(self, cls, name, front, many):
        original = cls.__dict__[name]
        ids, spans, pending = self._ids, self.spans, self._pending
        local, totals = self._local, self.totals
        self_key = front + ".front_self_s"

        @types.coroutine
        def steps(sid, coro):
            """Drive ``coro`` step by step, timing each step as a frame
            of span ``sid`` so wrapped calls inside it are its children."""
            value = error = None
            while True:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                frame = [sid, sid, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    totals[self_key] += perf_counter() - t0 - frame[2]
                    stack.pop()
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # noqa: BLE001 - re-thrown
                    value, error = None, exc

        async def wrapper(server, specs, *args, **kwargs):
            sid = next(ids)
            if front == "serve":
                for key in ([id(s) for s in specs] if many else [id(specs)]):
                    pending.setdefault(key, deque()).append(sid)
            t0 = perf_counter()
            try:
                return await steps(sid, original(server, specs, *args,
                                                 **kwargs))
            finally:
                t1 = perf_counter()
                if len(spans) < SAMPLE_CAP:
                    spans.append({"id": sid, "name": f"{cls.__name__}.{name}",
                                  "start": t0, "end": t1, "parent": None,
                                  "request": sid})

        setattr(cls, name, wrapper)
        self._restore.append((cls, name, original))

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        pause = perf_counter() - self._gc_start
        t = self.totals
        t["gc.pause_s"] += pause
        t["gc.pause_max_ms"] = max(t["gc.pause_max_ms"], pause * 1e3)
        t["gc.gen2_count"] += info["generation"] == 2

    # -- results ----------------------------------------------------------
    def process_totals(self) -> dict:
        """This process's totals and its live heap size."""
        return {**self.totals, "heap.objects": len(gc.get_objects())}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"totals": self.process_totals()}, fh)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(totals, extra) -> dict:
    """Add another process's totals (fleet workers) into ``totals``."""
    out = dict(totals)
    for key, value in extra.items():
        if key == "gc.pause_max_ms":
            out[key] = max(out.get(key, 0.0), value)
        else:
            out[key] = out.get(key, 0.0) + value
    return out


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric values from (merged) totals."""
    t = defaultdict(float, totals)

    def ratio(num, den):
        return t[num] / t[den] if t[den] else 0.0

    return {
        "engine.calls": t["engine.calls"],
        "engine.self_s": t["engine.self_s"],
        "cache.lookups": t["cache.lookups"],
        "cache.hit_ratio": ratio("cache.hits", "cache.lookups"),
        "cache.evictions": t["cache.evictions"],
        "cache.self_s": t["cache.self_s"],
        "predictor.calls": t["predictor.calls"],
        "predictor.shapes": t["predictor.shapes"],
        "predictor.self_s": t["predictor.self_s"],
        "predictor.optimal_share": ratio("predictor.optimal",
                                         "predictor.shapes"),
        "table.lookups": t["table.lookups"],
        "table.hit_ratio": ratio("table.hits", "table.lookups"),
        "table.self_s": t["table.self_s"],
        "model.passes": t["model.passes"],
        "model.rows": t["model.rows"],
        "features.self_s": t["features.self_s"],
        "plan.self_s": t["plan.self_s"],
        "backend.calls": t["backend.calls"],
        "backend.self_s": t["backend.self_s"],
        "serve.front_self_s": t["serve.front_self_s"],
        "gc.gen2_count": t["gc.gen2_count"],
        "gc.pause_s": t["gc.pause_s"],
        "gc.pause_max_ms": t["gc.pause_max_ms"],
        "heap.objects": t["heap.objects"],
    }


def residual(totals: dict, wall_s: float) -> float:
    """1 - (sum of layer self times) / traced wall time.

    Every process of a run shares one CPU, so ``totals`` may be merged
    over the fleet's front and workers against the one wall clock.
    """
    attributed = sum(value for key, value in totals.items()
                     if key.endswith("self_s"))
    return 1.0 - attributed / wall_s


def trace_worker(universe_path: str, out_prefix: str) -> Tracer:
    """Trace inside a fleet worker; its totals are written at process
    exit to ``<out_prefix>.<pid>.json``."""
    from perfbench.oracle import Universe

    tracer = Tracer(Universe.load(universe_path).fastest()).install()
    atexit.register(tracer.dump, f"{out_prefix}.{os.getpid()}.json")
    return tracer
