"""Shard routing: determinism, ring membership, tenant mapping."""

import asyncio

import pytest

from repro.gemm.interface import GemmSpec
from repro.serve import (ConsistentHashRouter, GemmServer, ShardRouter,
                         SingleShardRouter, TenantRouter, default_router)


class TestShardRouter:
    def test_route_is_the_one_spec_batch(self):
        class Parity(ShardRouter):
            def route_batch(self, specs, client="default"):
                return ["even" if spec.m % 2 == 0 else "odd"
                        for spec in specs]

        router = Parity()
        assert router.route(GemmSpec(8, 8, 8)) == "even"
        assert router.route(GemmSpec(9, 8, 8)) == "odd"


class TestTenantRouter:
    def test_routes_by_client(self):
        router = TenantRouter({"team-a": "gadi", "team-b": "setonix"},
                              default="gadi")
        spec = GemmSpec(8, 8, 8)
        assert router.route(spec, client="team-b") == "setonix"
        assert router.route(spec, client="unknown") == "gadi"

    def test_unknown_client_without_default_raises(self):
        router = TenantRouter({"team-a": "gadi"})
        with pytest.raises(KeyError):
            router.route(GemmSpec(8, 8, 8), client="other")


class TestDefaultRouter:
    def test_single_shard_goes_direct(self):
        router = default_router(["only"])
        assert isinstance(router, SingleShardRouter)
        assert router.route(GemmSpec(8, 8, 8)) == "only"

    def test_many_shards_hash(self):
        assert isinstance(default_router(["a", "b"]), ConsistentHashRouter)


class TestServerSharding:
    """End-to-end: a two-shard server routes deterministically."""

    def _serve(self, make_service, specs):
        shards = {"east": make_service(), "west": make_service()}
        server = GemmServer(shards, max_batch=8, max_wait_ms=5.0)

        async def run():
            async with server:
                return await server.submit_many(specs)

        records = asyncio.run(run())
        per_shard = {name: service.n_requests
                     for name, service in shards.items()}
        return records, per_shard

    def test_replay_reproduces_shard_assignment(self, make_service,
                                                distinct_specs):
        records_1, shard_counts_1 = self._serve(make_service, distinct_specs)
        records_2, shard_counts_2 = self._serve(make_service, distinct_specs)
        assert shard_counts_1 == shard_counts_2
        assert [r.n_threads for r in records_1] == \
            [r.n_threads for r in records_2]
        # Both shards genuinely participated.
        assert all(count > 0 for count in shard_counts_1.values())

    def test_explicit_shard_override(self, make_service):
        shards = {"east": make_service(), "west": make_service()}
        server = GemmServer(shards, max_batch=4, max_wait_ms=1.0)

        async def run():
            async with server:
                for _ in range(3):
                    await server.submit(GemmSpec(64, 64, 64), shard="west")

        asyncio.run(run())
        assert shards["west"].n_requests == 3
        assert shards["east"].n_requests == 0


class TestConsistentHashRouter:
    def test_accepts_dims_triples(self):
        router = ConsistentHashRouter(["east", "west"])
        assert router.route((64, 64, 64)) == router.route(GemmSpec(64, 64, 64))

    def test_needs_shards(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter([])

    def test_deterministic_across_instances(self):
        a = ConsistentHashRouter(["w0", "w1", "w2"])
        b = ConsistentHashRouter(["w0", "w1", "w2"])
        specs = [GemmSpec(16 + i, 64, 64) for i in range(50)]
        assert [a.route(s) for s in specs] == [b.route(s) for s in specs]
        assert a.route_batch(specs) == [a.route(s) for s in specs]

    def test_spreads_across_shards(self):
        router = ConsistentHashRouter(["w0", "w1", "w2"])
        hit = {router.route(GemmSpec(16 + i, 64, 64)) for i in range(80)}
        assert hit == {"w0", "w1", "w2"}

    def test_removal_only_remaps_lost_shard_keys(self):
        router = ConsistentHashRouter(["w0", "w1", "w2"])
        specs = [GemmSpec(16 + i, 64, 64) for i in range(100)]
        before = [router.route(s) for s in specs]
        router.remove("w1")
        after = [router.route(s) for s in specs]
        for owner_before, owner_after in zip(before, after):
            if owner_before != "w1":
                # Keys that did not live on the removed shard stay put —
                # the property a plain hash % n router lacks.
                assert owner_after == owner_before
            else:
                assert owner_after in {"w0", "w2"}

    def test_add_restores_prior_assignment(self):
        router = ConsistentHashRouter(["w0", "w1", "w2"])
        specs = [GemmSpec(16 + i, 64, 64) for i in range(60)]
        before = [router.route(s) for s in specs]
        router.remove("w1")
        router.add("w1")
        assert [router.route(s) for s in specs] == before

    def test_cannot_empty_the_ring(self):
        router = ConsistentHashRouter(["only"])
        with pytest.raises(ValueError):
            router.remove("only")


class TestLeastLoadedRouter:
    def test_routes_to_minimum_with_stable_ties(self):
        from repro.serve import LeastLoadedRouter

        loads = {"w0": 2, "w1": 0, "w2": 0}
        router = LeastLoadedRouter(["w0", "w1", "w2"], loads=loads)
        # Tie between w1 and w2 breaks by registration order.
        assert router.route(GemmSpec(8, 8, 8)) == "w1"
        loads["w1"] = 5
        assert router.route(GemmSpec(8, 8, 8)) == "w2"

    def test_accepts_callable_loads(self):
        from repro.serve import LeastLoadedRouter

        live = {"w0": 3, "w1": 1}
        router = LeastLoadedRouter(["w0", "w1"], loads=lambda: live)
        assert router.route(GemmSpec(8, 8, 8)) == "w1"

    def test_batch_spreads_by_simulated_admission(self):
        from repro.serve import LeastLoadedRouter

        router = LeastLoadedRouter(["w0", "w1"],
                                   loads={"w0": 0, "w1": 0})
        specs = [GemmSpec(8 + i, 8, 8) for i in range(6)]
        assignment = router.route_batch(specs)
        # Each assignment counts toward the load the next one sees, so
        # an even burst splits evenly instead of all landing on w0.
        assert assignment.count("w0") == 3
        assert assignment.count("w1") == 3

    def test_removed_shard_leaves_routing(self):
        """A dead fleet worker drops out of the live loads, so it reads
        as load 0, the least of all: only removal keeps it unrouted."""
        from repro.serve import LeastLoadedRouter

        router = LeastLoadedRouter(["w0", "w1"], loads={"w0": 5})
        router.remove("w1")
        assert set(router.route_batch([GemmSpec(8, 8, 8)] * 4)) == {"w0"}
        with pytest.raises(ValueError):
            router.remove("w0")
