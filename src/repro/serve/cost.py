"""Predicted-cost accounting for batch formation and fleet routing.

The scheduler and the fleet front both need the same number: *how
expensive is this request going to be?*  The stack already knows — every
:class:`~repro.core.routines.RoutineSpec` prices itself via ``flops``
(GEMM's ``2mkn + 2mn``, GEMV's bandwidth-bound ``2mn + 2m``, ...), and
SNIPPETS' WSE-2 SUMMA model shows a closed-form FLOPs decomposition
predicts runtime to ~1.5%.  :class:`CostModel` turns that accounting
into a single pricing surface:

* batch formation — :class:`~repro.serve.scheduler.BatchPolicy` can
  close a micro-batch on a predicted-FLOPs budget (``max_batch_cost``)
  instead of waiting for ``max_batch`` slots, so one heavy GEMM no
  longer defines the latency of the thirty cheap GEMVs sharing its
  window;
* slab framing — the server front
  (:func:`~repro.serve.front.chunk_slots`) chops a routed burst on the
  same budget, so slabs crossing a fleet pipe are cost-balanced, not
  merely count-balanced;
* routing — :class:`~repro.serve.router.CostAwareLeastLoadedRouter`
  weights a worker's in-flight load by outstanding predicted FLOPs, so
  "two huge requests" finally looks heavier than "three tiny ones".

Costs are *relative* weights, not wall-clock predictions: the default
model prices a spec at its raw FLOP count, and ``scales`` lets a
deployment calibrate per-routine multipliers (e.g. boost GEMV's weight
because it is bandwidth-bound and its FLOPs undercount its runtime)
without touching the accounting itself.  Pricing never changes *which*
threads are selected — the per-spec prediction is independent of batch
boundaries — so cost-budgeted serving stays bitwise identical to
count-only serving on the same arrival order.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.routines import routine_of
from repro.gemm.counts import gemm_flops


class CostModel:
    """Price specs by predicted FLOPs, with per-routine calibration.

    Parameters
    ----------
    scales:
        Optional ``{routine name: multiplier}`` applied on top of the
        spec's own FLOP count.  Unlisted routines use 1.0.
    default_cost:
        Cost charged for an object that exposes neither ``flops`` nor a
        bare ``(m, k, n)`` triple — every request must weigh *something*
        or a stream of them would never close a budgeted batch.
    """

    def __init__(self, scales: Optional[Dict[str, float]] = None,
                 default_cost: float = 1.0):
        self.scales: Dict[str, float] = {}
        if scales:
            for routine, scale in scales.items():
                self.calibrate(routine, scale)
        if default_cost <= 0:
            raise ValueError("default_cost must be > 0")
        self.default_cost = float(default_cost)

    def calibrate(self, routine: str, scale: float) -> "CostModel":
        """Set one routine's cost multiplier (chainable)."""
        if float(scale) <= 0:
            raise ValueError(
                f"cost scale for {routine!r} must be > 0, got {scale}")
        self.scales[str(routine)] = float(scale)
        return self

    def cost_of_one(self, spec) -> float:
        """Predicted cost of one spec (scaled FLOPs)."""
        flops = getattr(spec, "flops", None)
        if flops is None:
            try:  # a bare (m, k, n) triple is a GEMM by convention
                m, k, n = spec
                flops = gemm_flops(int(m), int(k), int(n))
            except (TypeError, ValueError):
                return self.default_cost
        scale = self.scales.get(routine_of(spec), 1.0)
        return float(flops) * scale

    def cost_of(self, specs) -> list:
        """Per-spec costs for a batch, one float per spec.

        Memoised by the spec's canonical ``key()``: a burst repeats
        shapes (that is what the prediction cache exists for), so each
        distinct shape is priced once.
        """
        memo: dict = {}
        out = []
        for spec in specs:
            key = spec.key() if hasattr(spec, "key") else None
            if key is not None:
                cost = memo.get(key)
                if cost is None:
                    cost = memo[key] = self.cost_of_one(spec)
            else:
                cost = self.cost_of_one(spec)
            out.append(cost)
        return out

    def total_cost(self, specs) -> float:
        """Summed predicted cost of a batch."""
        return sum(self.cost_of(specs))

