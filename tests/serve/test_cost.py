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
from repro.serve import (BatchPolicy, CostAwareLeastLoadedRouter,
                         GemmServer, LeastLoadedRouter, chunk_slots)
from repro.serve.cost import cost_of, cost_of_one

HEAVY = GemmSpec(256, 256, 256)   # ~33.6 MFLOP
LIGHT = GemmSpec(8, 8, 8)         # ~1.2 kFLOP


class TestCostModel:
    def test_gemm_priced_at_its_flops(self):
        assert cost_of_one(HEAVY) == float(HEAVY.flops)
        assert HEAVY.flops == gemm_flops(256, 256, 256)

    def test_gemv_priced_at_its_flops(self):
        spec = GemvSpec(64, 64)
        assert cost_of_one(spec) == float(spec.flops)

    def test_bare_triple_is_a_gemm(self):
        assert cost_of_one((32, 64, 48)) == float(gemm_flops(32, 64, 48))

    def test_unpriceable_object_costs_default(self):
        assert cost_of_one(object()) == 1.0

    def test_cost_of_matches_scalar_pricing(self):
        specs = [HEAVY, LIGHT, HEAVY, GemvSpec(32, 32), LIGHT]
        assert cost_of(specs) == [cost_of_one(s) for s in specs]


# The one copy of the chunk_slots cases; tests/fleet/test_spec.py runs
# them through the fleet's import of the same function.
# name -> (slots, max_batch, costs, max_cost, expected runs or error)
CHUNK_CASES = {
    "empty_count_only": ([], 16, None, None, []),
    "empty_under_budget": ([], 4, [], 100.0, []),
    "small_input_in_one_chunk": ([1, 2], 16, None, None, [[1, 2]]),
    "count_only_boundaries_match_slicing": (
        list(range(10)), 4, None, None,
        [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]),
    "count_only_ignores_costs": (
        list(range(10)), 4, [1.0] * 10, None,
        [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]),
    "max_batch_one_yields_singletons": (
        [3, 1, 2], 1, None, None, [[3], [1], [2]]),
    "max_batch_one_under_budget": ([5, 6], 1, [1.0, 1.0], 10.0, [[5], [6]]),
    "budget_splits_before_overflow": (
        [7, 8, 9], 16, [5.0, 5.0, 5.0], 10.0, [[7, 8], [9]]),
    "oversized_slot_frames_alone": (
        [0, 1], 16, [100.0, 1.0], 10.0, [[0], [1]]),
    "ragged_tail_under_budget": (
        list(range(7)), 3, [2.0] * 7, 100.0, [[0, 1, 2], [3, 4, 5], [6]]),
    "zero_max_batch_rejected": ([1], 0, None, None, ValueError),
    "zero_budget_rejected": ([0], 4, [1.0], 0.0, ValueError),
    "negative_budget_rejected": ([1], 4, [1.0], -1.0, ValueError),
}


def check_chunk_cases(chunker, *names):
    """Run the named ``CHUNK_CASES`` through ``chunker``."""
    for name in names:
        slots, max_batch, costs, max_cost, expected = CHUNK_CASES[name]
        if expected is ValueError:
            with pytest.raises(ValueError):
                list(chunker(slots, max_batch, costs, max_cost))
        else:
            assert list(chunker(slots, max_batch, costs, max_cost)) \
                == expected, name


class TestChunkByCost:
    def test_empty_slots_yield_nothing(self):
        check_chunk_cases(chunk_slots, "empty_count_only",
                          "empty_under_budget")

    def test_small_input_in_one_chunk(self):
        check_chunk_cases(chunk_slots, "small_input_in_one_chunk")

    def test_count_only_boundaries_match_slicing(self):
        check_chunk_cases(chunk_slots, "count_only_boundaries_match_slicing",
                          "count_only_ignores_costs")

    def test_max_batch_one_yields_singletons(self):
        check_chunk_cases(chunk_slots, "max_batch_one_yields_singletons",
                          "max_batch_one_under_budget")

    def test_budget_splits_before_overflow(self):
        check_chunk_cases(chunk_slots, "budget_splits_before_overflow")

    def test_oversized_slot_frames_alone(self):
        check_chunk_cases(chunk_slots, "oversized_slot_frames_alone")

    def test_ragged_tail_under_budget(self):
        check_chunk_cases(chunk_slots, "ragged_tail_under_budget")

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
        check_chunk_cases(chunk_slots, "zero_max_batch_rejected",
                          "zero_budget_rejected", "negative_budget_rejected")


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
        assert max(stats["batch_size_histogram"]) <= 3

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
