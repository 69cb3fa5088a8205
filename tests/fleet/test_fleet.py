"""Multi-process fleet: spawn, parity, hot-reload, worker death.

Every test here spawns real worker processes, so the suite keeps the
process count small (2-worker fleets) and folds related assertions
into shared scenarios rather than paying a spawn per claim.
"""

import asyncio

import pytest

from repro.bench.loadgen import bias_bundle
from repro.blas.gemv import GemvSpec
from repro.engine.service import GemmService
from repro.fleet import FleetServer, WorkerFailed, WorkerSpec
from repro.gemm.interface import GemmSpec
from repro.machine.presets import by_name
from repro.machine.simulator import MachineSimulator
from repro.obs.metrics import MetricsRegistry
from repro.serve.request import ServerOverloaded
from repro.train.registry import ModelRegistry
from tests.conftest import CountingExecutor


def run(coro):
    return asyncio.run(coro)


def mixed_specs(n, base=24):
    """Deterministic gemm/gemv mix exercising both routing cells."""
    specs = []
    for i in range(n):
        if i % 3 == 2:
            specs.append(GemvSpec(base + 8 * i, 4 * base + 8 * i))
        else:
            specs.append(GemmSpec(base + 8 * i, 2 * base, base + 4 * i))
    return specs


def make_fleet(registry_root, workers=2, **kwargs):
    kwargs.setdefault("max_wait_ms", 1.0)
    return FleetServer.from_registry(
        registry_root, "tiny", workers=workers,
        routines=("gemm", "gemv"), **kwargs)


def versions(fleet, routine="gemm") -> dict:
    """Each worker's loaded version of ``routine``, from public stats."""
    return {name: entry["versions"].get(routine)
            for name, entry in fleet.stats()["workers"].items()}


class TestFleetServing:
    def test_parity_overload_and_stats(self, fleet_registry):
        specs = mixed_specs(30)
        reference = GemmService.from_registry(
            ModelRegistry(fleet_registry),
            MachineSimulator(by_name("tiny"), seed=0), machine_name="tiny")
        expected = [r.n_threads for r in reference.run_batch(specs)]

        async def scenario():
            fleet = make_fleet(fleet_registry)
            async with fleet:
                records = await fleet.submit_many(specs)
                # A tiny admission window must reject a burst whole,
                # not strand a prefix of it on worker queues.
                fleet.max_pending = 4
                with pytest.raises(ServerOverloaded):
                    await fleet.submit_many(mixed_specs(8))
                fleet.max_pending = 1024
                rejected = {routine: fleet.telemetry.registry.total(
                    "fleet_rejected", instance=fleet.telemetry.instance,
                    reason="overload", routine=routine)
                    for routine in ("gemm", "gemv")}

                class Local:  # a local class does not pickle
                    pass

                # A frame that cannot cross the socket fails its own
                # request only; the worker's socket keeps working (the
                # stats round trip below).
                with pytest.raises(AttributeError, match="pickle"):
                    await fleet._serve([Local()], "default", "worker-0")
                assert fleet.stats()["pending"] == 0
                ws = await fleet.worker_stats()
            return records, ws, fleet.stats(), rejected

        records, worker_stats, stats, rejected = run(scenario())
        assert [r.n_threads for r in records] == expected
        served = [w["server"]["served"] for w in worker_stats.values()]
        assert sum(served) == len(specs)
        assert all(s > 0 for s in served), "router starved a worker"
        assert stats["served"] == len(specs)
        assert stats["rejected"] == 8
        assert rejected == {"gemm": 6, "gemv": 2}  # counted per routine
        assert stats["n_workers"] == 2 and stats["batches"] >= 2
        assert stats["latency_ms"]["count"] > 0
        for entry in stats["workers"].values():
            assert entry["counters"]["completed"] > 0
            assert entry["versions"] == {"gemm": 1, "gemv": 1}

    def test_watcher_rolls_fleet_without_drops(self, fleet_registry,
                                               tiny_bundle):
        bundle, _ = tiny_bundle
        registry = ModelRegistry(fleet_registry)

        async def scenario():
            fleet = make_fleet(fleet_registry, watch_interval_s=0.05)
            async with fleet:
                before = await fleet.submit_many(mixed_specs(12))
                # Publish-to-registry is the rollout: no fleet API call.
                registry.publish(bias_bundle(bundle, target=1),
                                 routine="gemm")
                deadline = asyncio.get_running_loop().time() + 10.0
                after = []
                while asyncio.get_running_loop().time() < deadline:
                    after = await fleet.submit_many(mixed_specs(12))
                    if set(versions(fleet).values()) == {2}:
                        break
                    await asyncio.sleep(0.05)
                else:
                    pytest.fail("watcher never rolled the fleet to v2")
                stats = fleet.telemetry.stats()
            return before, after, stats

        before, after, stats = run(scenario())
        assert all(r is not None for r in before + after)
        assert stats["failed"] == 0 and stats["rejected"] == 0
        # Both workers picked the publish up on their own.
        assert stats["reloads"] >= 2
        # The biased bundle pins gemm to 1 thread — proof the new
        # version is actually serving, not just acknowledged.
        gemm_after = [r.n_threads for r in after
                      if isinstance(r.spec, GemmSpec)]
        assert set(gemm_after) == {1}

    def test_worker_death_drains_and_survivor_serves(self, fleet_registry):
        async def scenario():
            fleet = make_fleet(fleet_registry, registry=MetricsRegistry())
            async with fleet:
                await fleet.submit_many(mixed_specs(6))
                victim = fleet._workers["worker-0"]
                # In-flight work on the victim when it dies...
                doomed = asyncio.ensure_future(
                    fleet._serve([GemmSpec(64, 64, 64)], "default",
                                 "worker-0"))
                await asyncio.sleep(0)
                victim.process.kill()
                with pytest.raises(WorkerFailed):
                    await doomed
                # ...while the survivor keeps serving the fleet.
                survivors = await fleet.submit_many(mixed_specs(9))
                with pytest.raises((WorkerFailed, KeyError)):
                    await fleet._serve([GemmSpec(32, 32, 32)], "default",
                                       "worker-0")
                events = fleet.telemetry.registry.events(
                    "fleet_worker_death")
            return survivors, events

        survivors, events = run(scenario())
        assert all(r is not None for r in survivors)
        assert len(events) == 1 and events[0]["worker"] == "worker-0"

    def test_cancelled_burst_releases_every_slot(self, fleet_registry):
        """Cancelling a burst mid-flight leaks no admission slot, in-flight
        count or outstanding cost; the next full burst is served."""
        specs = mixed_specs(256)

        async def scenario():
            fleet = make_fleet(fleet_registry, registry=MetricsRegistry())
            async with fleet:
                fleet.max_pending = len(specs)  # any leak rejects the next
                burst = asyncio.ensure_future(fleet.submit_many(specs))
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                burst.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await burst
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while (fleet.stats()["pending"]
                       and loop.time() < deadline):
                    await asyncio.sleep(0.01)
                stats = fleet.stats()
                records = await fleet.submit_many(specs)
            return stats, records

        stats, records = run(scenario())
        assert stats["pending"] == 0
        for entry in stats["workers"].values():
            assert entry["in_flight"] == 0
            assert entry["cost_in_flight"] == 0.0
        assert [r.spec for r in records] == specs

    def test_front_admitted_burst_is_served_on_one_worker(self,
                                                          fleet_registry):
        """The front is the fleet's only pending-count limit.  A
        hash-routed single-shape burst lands whole on one worker; one
        above 2 x max_queue (a standalone server's default cap for that
        queue) but within the front's cap is served there, not
        refused."""
        spec = GemmSpec(64, 128, 64)
        n = 1000
        reference = GemmService.from_registry(
            ModelRegistry(fleet_registry),
            MachineSimulator(by_name("tiny"), seed=0), machine_name="tiny")
        expected = reference.run(spec).n_threads

        async def scenario():
            fleet = make_fleet(fleet_registry, router="hash",
                               registry=MetricsRegistry())
            async with fleet:
                assert 2 * WorkerSpec.max_queue < n <= fleet.max_pending
                records = await fleet.submit_many([spec] * n)
                ws = await fleet.worker_stats()
            return records, ws

        records, worker_stats = run(scenario())
        assert [r.n_threads for r in records] == [expected] * n
        served = sorted(w["server"]["served"] for w in worker_stats.values())
        assert served == [0, n]
        assert all(w["server"]["rejected"] == 0
                   for w in worker_stats.values())

    def test_burst_makes_no_executor_submissions(self, fleet_registry):
        """A burst's frames are written and read on the event loop: no
        thread-pool hop per frame, on the way out or back."""
        specs = mixed_specs(256)

        async def scenario():
            executor = CountingExecutor()
            asyncio.get_running_loop().set_default_executor(executor)
            fleet = make_fleet(fleet_registry, registry=MetricsRegistry())
            async with fleet:
                await fleet.submit_many(specs)  # warm the workers
                submitted = executor.submitted
                frames = fleet.stats()["frames"]
                records = await fleet.submit_many(specs)
                hops = executor.submitted - submitted
                frames = fleet.stats()["frames"] - frames
            return hops, frames, records

        hops, frames, records = run(scenario())
        assert [r.spec for r in records] == specs
        assert frames == 16  # 2 workers x 128 slots / max_batch 16
        assert hops == 0

    def test_send_to_a_dead_worker_fails_only_its_request(self,
                                                          fleet_registry):
        """A frame written to a worker that died before its reader saw
        EOF fails with ``WorkerFailed``, leaks no admission slot or
        in-flight count, and leaves the survivor serving."""

        async def scenario():
            fleet = make_fleet(fleet_registry, registry=MetricsRegistry())
            async with fleet:
                await fleet.submit_many(mixed_specs(6))
                victim = fleet._workers["worker-0"].process
                victim.kill()
                victim.join(10.0)  # blocks the loop: no EOF read yet
                assert not victim.is_alive()
                with pytest.raises(WorkerFailed):
                    await fleet._serve([GemmSpec(64, 64, 64)], "default",
                                       "worker-0")
                stats = fleet.stats()
                survivors = await fleet.submit_many(mixed_specs(9))
            return stats, survivors

        stats, survivors = run(scenario())
        assert stats["pending"] == 0
        assert stats["workers"]["worker-0"]["in_flight"] == 0
        assert stats["workers"]["worker-0"]["cost_in_flight"] == 0.0
        assert not stats["workers"]["worker-0"]["alive"]
        assert all(r is not None for r in survivors)


class TestFleetConstruction:
    def test_from_registry_builds_named_specs(self, fleet_registry):
        fleet = make_fleet(fleet_registry, workers=3)
        specs = [w.spec for w in fleet._workers.values()]
        assert [s.name for s in specs] == ["worker-0", "worker-1",
                                           "worker-2"]
        assert all(s.registry_root == str(fleet_registry) for s in specs)

    def test_duplicate_names_rejected(self, fleet_registry):
        spec = WorkerSpec(name="w", registry_root=str(fleet_registry),
                          machine="tiny")
        with pytest.raises(ValueError, match="duplicate"):
            FleetServer([spec, spec])

    def test_unknown_router_rejected(self, fleet_registry):
        with pytest.raises(ValueError):
            make_fleet(fleet_registry, router="zigzag")
