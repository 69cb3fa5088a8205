"""The tracer counts at layer boundaries and leaves no wrapper behind."""

import asyncio
import time

import numpy as np
import pytest

from perfbench.trace import Tracer, layer_metrics, residual
from repro.compile.table import DecisionTable
from repro.engine.cache import PredictionCache
from repro.engine.service import GemmService


def test_install_counts_and_uninstall_restores():
    originals = (GemmService.run, PredictionCache.get, PredictionCache.put,
                 DecisionTable.lookup_batch_ex)
    tracer = Tracer(fastest={}).install()
    try:
        cache = PredictionCache(2)
        for key in ("a", "b", "c"):
            cache.put(key, 1)
        cache.get("c")
        cache.get("a")
        table = DecisionTable("gemm", [1, 2], [[1, 2], [1], [1]],
                              np.zeros((2, 1, 1)))
        table.lookup_batch_ex([(1, 1, 1), (2, 1, 1), (3, 1, 1)])
    finally:
        tracer.uninstall()
    assert (GemmService.run, PredictionCache.get, PredictionCache.put,
            DecisionTable.lookup_batch_ex) == originals
    metrics = layer_metrics(tracer.process_totals())
    assert metrics["cache.lookups"] == 2
    assert metrics["cache.hit_ratio"] == 0.5
    assert metrics["cache.evictions"] == 1
    assert metrics["table.lookups"] == 3
    assert metrics["table.hit_ratio"] == 2 / 3
    assert metrics["cache.self_s"] > 0


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Front:
    async def submit(self, spec):
        _busy(0.02)
        await asyncio.sleep(0.05)
        _busy(0.01)
        if spec is None:
            raise ValueError("rejected")
        return spec


def test_front_self_time_is_its_own_steps_not_its_waits():
    original = _Front.__dict__["submit"]
    tracer = Tracer(fastest={})
    tracer._async(_Front, "submit", "serve", many=False)
    try:
        assert asyncio.run(_Front().submit("spec")) == "spec"
        with pytest.raises(ValueError):
            asyncio.run(_Front().submit(None))
    finally:
        tracer.uninstall()
    # Two calls of 30 ms own work each; their 50 ms sleeps are waits.
    assert 0.055 < tracer.totals["serve.front_self_s"] < 0.09
    assert _Front.__dict__["submit"] is original


def test_residual_counts_every_layer_and_front():
    totals = {"engine.self_s": 1.0, "plan.self_s": 2.0,
              "serve.front_self_s": 4.0, "fleet.front_self_s": 2.0,
              "engine.calls": 99.0}
    assert residual(totals, 10.0) == 1.0 - 9.0 / 10.0
