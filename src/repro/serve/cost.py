"""Predicted-cost accounting for batch formation and fleet routing.

The scheduler and the fleet front both need the same number: *how
expensive is this request going to be?*  The stack already knows — every
:class:`~repro.core.routines.RoutineSpec` prices itself via ``flops``
(GEMM's ``2mkn + 2mn``, GEMV's bandwidth-bound ``2mn + 2m``, ...), and
SNIPPETS' WSE-2 SUMMA model shows a closed-form FLOPs decomposition
predicts runtime to ~1.5%.  :func:`cost_of` turns that accounting into
a single pricing surface:

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

Costs are *relative* weights, not wall-clock predictions: a spec costs
its raw FLOP count.  Pricing never changes *which* threads are selected
— the per-spec prediction is independent of batch boundaries — so
cost-budgeted serving stays bitwise identical to count-only serving on
the same arrival order.
"""

from __future__ import annotations

from repro.gemm.counts import gemm_flops


def cost_of_one(spec) -> float:
    """Predicted cost of one spec: its FLOP count.

    A bare ``(m, k, n)`` triple is a GEMM by convention.  An object
    with neither ``flops`` nor such a triple costs 1.0: every request
    must weigh *something*, or a stream of them would never close a
    budgeted batch.
    """
    flops = getattr(spec, "flops", None)
    if flops is None:
        try:
            m, k, n = spec
            flops = gemm_flops(int(m), int(k), int(n))
        except (TypeError, ValueError):
            return 1.0
    return float(flops)


def cost_of(specs) -> list:
    """Per-spec costs for a batch, one float per spec.

    Memoised by the spec's canonical ``key()`` within the call: a burst
    repeats shapes (that is what the prediction cache exists for), so
    each distinct shape is priced once.
    """
    memo: dict = {}
    out = []
    for spec in specs:
        key = spec.key() if hasattr(spec, "key") else None
        if key is not None:
            cost = memo.get(key)
            if cost is None:
                cost = memo[key] = cost_of_one(spec)
        else:
            cost = cost_of_one(spec)
        out.append(cost)
    return out
