"""Cost-aware scheduling: pricing, budgeted batch formation, routing.

The acceptance invariant throughout: a predicted-FLOPs budget moves
*batch boundaries*, never thread selections — per-spec prediction is
independent of which batch a spec lands in.
"""

import asyncio

import pytest

from repro.blas.gemv import GemvSpec
from repro.gemm.counts import gemm_flops
from repro.gemm.interface import GemmSpec
from repro.serve import (BatchPolicy, CostAwareLeastLoadedRouter, CostModel,
                         GemmServer, LeastLoadedRouter, chunk_slots)

HEAVY = GemmSpec(256, 256, 256)   # ~33.6 MFLOP
LIGHT = GemmSpec(8, 8, 8)         # ~1.2 kFLOP


class TestCostModel:
    def test_gemm_priced_at_its_flops(self):
        assert CostModel().cost_of_one(HEAVY) == float(HEAVY.flops)
        assert HEAVY.flops == gemm_flops(256, 256, 256)

    def test_gemv_priced_at_its_flops(self):
        spec = GemvSpec(64, 64)
        assert CostModel().cost_of_one(spec) == float(spec.flops)

    def test_bare_triple_is_a_gemm(self):
        assert CostModel().cost_of_one((32, 64, 48)) == \
            float(gemm_flops(32, 64, 48))

    def test_unpriceable_object_costs_default(self):
        assert CostModel().cost_of_one(object()) == 1.0
        assert CostModel(default_cost=7.0).cost_of_one(object()) == 7.0

    def test_per_routine_scale_calibration(self):
        model = CostModel(scales={"gemv": 4.0})
        spec = GemvSpec(64, 64)
        assert model.cost_of_one(spec) == 4.0 * spec.flops
        assert model.cost_of_one(HEAVY) == float(HEAVY.flops)  # unscaled

    def test_calibrate_chains_and_validates(self):
        model = CostModel().calibrate("gemm", 2.0)
        assert model.cost_of_one(LIGHT) == 2.0 * LIGHT.flops
        with pytest.raises(ValueError):
            model.calibrate("gemm", 0.0)
        with pytest.raises(ValueError):
            CostModel(default_cost=0.0)

    def test_cost_of_matches_scalar_pricing(self):
        model = CostModel()
        specs = [HEAVY, LIGHT, HEAVY, GemvSpec(32, 32), LIGHT]
        assert model.cost_of(specs) == \
            [model.cost_of_one(s) for s in specs]
        assert model.total_cost(specs) == sum(model.cost_of(specs))


class TestChunkByCost:
    def test_empty_slots_yield_nothing(self):
        assert list(chunk_slots([], 4, [], 100.0)) == []

    def test_max_batch_one_yields_singletons(self):
        chunks = list(chunk_slots([0, 1, 2], 1, [1.0, 1.0, 1.0], None))
        assert chunks == [[0], [1], [2]]

    def test_count_only_boundaries_match_slicing(self):
        slots = list(range(10))
        chunks = list(chunk_slots(slots, 4, [1.0] * 10, None))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]  # ragged tail

    def test_budget_splits_before_overflow(self):
        chunks = list(chunk_slots([0, 1, 2], 16, [5.0, 5.0, 5.0], 10.0))
        assert chunks == [[0, 1], [2]]

    def test_oversized_slot_frames_alone(self):
        chunks = list(chunk_slots([0, 1], 16, [100.0, 1.0], 10.0))
        assert chunks == [[0], [1]]

    def test_every_slot_appears_once_in_order(self):
        slots = list(range(13))
        costs = [3.0, 9.0, 1.0, 1.0, 1.0, 20.0, 2.0, 2.0, 2.0, 2.0, 2.0,
                 1.0, 1.0]
        chunks = list(chunk_slots(slots, 4, costs, 10.0))
        assert [s for chunk in chunks for s in chunk] == slots
        assert all(len(chunk) <= 4 for chunk in chunks)
        assert all(sum(costs[s] for s in chunk) <= 10.0
                   for chunk in chunks if len(chunk) > 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(chunk_slots([0], 0, [1.0], None))
        with pytest.raises(ValueError):
            list(chunk_slots([0], 4, [1.0], 0.0))


class TestBatchPolicyCost:
    def test_default_is_count_only(self):
        assert BatchPolicy().max_batch_cost is None

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_cost=0.0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_cost=-1.0)
        assert BatchPolicy(max_batch_cost=1e6).max_batch_cost == 1e6


class TestCostAwareRouter:
    def test_burst_spreads_by_cost_not_count(self):
        """One heavy request weighs as much as thousands of light ones."""
        count_router = LeastLoadedRouter(["a", "b"])
        cost_router = CostAwareLeastLoadedRouter(["a", "b"])
        specs = [HEAVY, LIGHT, LIGHT]
        # Count-based: a, b, then back to a (1 slot each).
        assert count_router.route_batch(specs) == ["a", "b", "a"]
        # Cost-based: the heavy monopolises "a"; both lights fit on "b".
        assert cost_router.route_batch(specs) == ["a", "b", "b"]

    def test_uniform_costs_match_count_routing(self):
        specs = [LIGHT] * 7
        count_router = LeastLoadedRouter(["a", "b", "c"])
        cost_router = CostAwareLeastLoadedRouter(["a", "b", "c"])
        assert cost_router.route_batch(specs) == \
            count_router.route_batch(specs)

    def test_live_loads_weight_routing(self):
        loads = {"a": float(HEAVY.flops), "b": 0.0}
        router = CostAwareLeastLoadedRouter(["a", "b"], loads=loads)
        assert router.route(LIGHT) == "b"
        assert router.route_batch([LIGHT, LIGHT]) == ["b", "b"]

    def test_scalar_route_matches_parent_semantics(self):
        router = CostAwareLeastLoadedRouter(["a", "b"], loads={})
        assert router.route(HEAVY) == "a"  # ties break registration order


def _selections(records):
    return [r.n_threads for r in records]


class TestCostBudgetedServing:
    # Budget fits three lights (3L <= 3.5L) but not four; a heavy is
    # thousands of lights, so it always frames and batches alone.
    BUDGET = 3.5 * float(LIGHT.flops)

    def _replay(self, make_service, specs, **server_kwargs):
        server = GemmServer(make_service(), max_batch=16, max_wait_ms=50.0,
                            **server_kwargs)

        async def run():
            async with server:
                return await server.submit_many(specs)

        return server, asyncio.run(run())

    def test_selections_bitwise_identical_to_count_only(self, make_service):
        specs = [LIGHT] * 6 + [HEAVY] + [LIGHT] * 6
        _, budgeted = self._replay(make_service, specs,
                                   max_batch_cost=self.BUDGET)
        _, count_only = self._replay(make_service, specs)
        assert _selections(budgeted) == _selections(count_only)
        assert [r.spec for r in budgeted] == specs

    def test_budget_closes_batches_on_cost(self, make_service):
        specs = [LIGHT] * 9 + [HEAVY] + [LIGHT] * 3
        server, records = self._replay(make_service, specs,
                                       max_batch_cost=self.BUDGET)
        assert len(records) == len(specs)
        stats = server.stats()
        assert stats["max_batch_cost"] == self.BUDGET
        assert stats["batch_close_reasons"].get("cost", 0) > 0
        # Per-batch predicted-cost histogram is recorded under a budget.
        assert stats["batch_cost"]["count"] == stats["batches"]
        # No executed batch mixes the heavy with a light.
        assert max(server.telemetry.batch_sizes) <= 3

    def test_count_only_serving_records_no_cost(self, make_service):
        specs = [LIGHT] * 4
        server, _ = self._replay(make_service, specs)
        stats = server.stats()
        assert "max_batch_cost" not in stats
        assert "batch_cost" not in stats
        assert stats["batch_close_reasons"].get("cost", 0) == 0

    def test_per_routine_queue_wait_reported(self, make_service):
        server, _ = self._replay(make_service, [LIGHT] * 4,
                                 max_batch_cost=self.BUDGET)
        entry = server.stats()["routines"]["gemm"]
        assert entry["queue_wait_ms"]["n"] == 4
        assert server.telemetry.routine_wait("gemm").n == 4

    def test_server_cost_of_exposes_model_pricing(self, make_service):
        server = GemmServer(make_service())
        specs = [HEAVY, LIGHT, GemvSpec(64, 64)]
        assert server.cost_of(specs) == CostModel().cost_of(specs)

    def test_custom_cost_model_prices_batching(self, make_service):
        """A calibrated scale changes budgets, not selections."""
        scaled = CostModel(scales={"gemm": 2.0})
        specs = [LIGHT] * 8
        server, records = self._replay(make_service, specs,
                                       max_batch_cost=self.BUDGET,
                                       cost_model=scaled)
        # 2x scale halves how many lights fit: 1.75x budget -> 1 per
        # batch after the first admitted entry.
        assert len(records) == len(specs)
        assert max(server.telemetry.batch_sizes) <= 2
