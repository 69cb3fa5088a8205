"""GemmService with per-routine predictors: dispatch, isolation, reload."""

from collections import Counter

import numpy as np
import pytest

from repro.blas.gemv import GemvSpec
from repro.blas.syrk import SyrkSpec
from repro.blas.trsm import TrsmSpec
from repro.gemm.interface import GemmSpec
from tests.routines.conftest import (GRID, ROUTINE_TARGETS,
                                     RoutineOracleModel, oracle_predictor)

MIXED = [GemmSpec(64, 512, 64), GemvSpec(m=64, n=512),
         SyrkSpec(n=96, k=64), TrsmSpec(m=128, n=32),
         GemmSpec(64, 512, 64), GemvSpec(m=64, n=512)]


class TestPerRoutineDispatch:
    def test_each_routine_answered_by_its_own_model(self, make_mixed_service):
        service = make_mixed_service()
        for spec in [GemmSpec(32, 32, 32), GemvSpec(m=32, n=32),
                     SyrkSpec(n=32, k=32), TrsmSpec(m=32, n=32)]:
            assert service.predict(spec) == ROUTINE_TARGETS[spec.routine]

    def test_same_dims_different_routines_no_collision(self, make_mixed_service):
        """GEMV (64, 512) and GEMM (64, 512, 1) share a feature triple
        but resolve through different predictors and cache entries."""
        service = make_mixed_service()
        gemm, gemv = GemmSpec(64, 512, 1), GemvSpec(m=64, n=512)
        assert gemm.dims == gemv.dims
        assert service.predict(gemm) == ROUTINE_TARGETS["gemm"]
        assert service.predict(gemv) == ROUTINE_TARGETS["gemv"]
        # Second round answers each from its own cache, not the other's.
        assert service.predict(gemm) == ROUTINE_TARGETS["gemm"]
        assert service.predict(gemv) == ROUTINE_TARGETS["gemv"]

    def test_unregistered_routine_falls_back_to_default(self, tiny_sim):
        from repro.engine import GemmService

        service = GemmService(oracle_predictor("gemm"),
                              backend=tiny_sim)
        # No syrk predictor registered: the default (gemm) model scores
        # the dims triple — the historic single-predictor behaviour.
        assert service.predict(SyrkSpec(n=48, k=48)) == \
            ROUTINE_TARGETS["gemm"]
        assert service.run(SyrkSpec(n=48, k=48)).runtime > 0

    def test_register_routine_validates_arguments(self, make_mixed_service):
        service = make_mixed_service()
        with pytest.raises(ValueError, match="exactly one"):
            service.register_routine("gemv")
        with pytest.raises(ValueError, match="exactly one"):
            service.register_routine(
                "gemv", bundle=object(), predictor=oracle_predictor("gemv"))


class TestMixedBatches:
    def test_batch_matches_dedicated_single_routine_services(
            self, make_mixed_service, tiny_sim):
        """Mixed-stream choices are bitwise identical to serving each
        routine's sub-stream through its own dedicated service."""
        mixed = make_mixed_service()
        batch = [r.n_threads for r in mixed.run_batch(MIXED)]

        from repro.engine import GemmService

        dedicated = []
        for spec in MIXED:
            service = GemmService(oracle_predictor(spec.routine),
                                  backend=tiny_sim)
            dedicated.append(service.run(spec).n_threads)
        assert batch == dedicated

    def test_one_model_pass_per_routine(self, make_mixed_service):
        service = make_mixed_service()
        service.run_batch(MIXED)
        for routine, predictor in service.predictors.items():
            expected = 1 if any(s.routine == routine for s in MIXED) else 0
            assert predictor.n_model_passes == expected

    def test_memoised_flags_per_routine(self, make_mixed_service):
        service = make_mixed_service()
        records = service.run_batch(MIXED)
        # First occurrence of each routine's shape is fresh, repeats hit.
        assert [r.memoised for r in records] == \
            [False, False, False, False, True, True]

    def test_batch_equals_scalar(self, make_mixed_service):
        scalar = make_mixed_service()
        batch = make_mixed_service()
        a = [batch.run(s).n_threads for s in MIXED]
        b = [r.n_threads for r in scalar.run_batch(MIXED)]
        assert a == b

    def test_stats_segmented_by_routine(self, make_mixed_service):
        service = make_mixed_service()
        service.run_batch(MIXED)
        stats = service.stats()
        routines = stats["routines"]
        assert routines["gemm"]["requests"] == 2
        assert routines["gemv"]["requests"] == 2
        assert routines["syrk"]["requests"] == 1
        assert routines["gemm"]["evaluations"] == 1
        # Aggregate counters cover every routine's predictor.
        assert stats["evaluations"] == 4
        assert stats["model_passes"] == 4


class TestCountersMatchRecords:
    def test_stats_equal_the_walk_over_records(self, tiny_sim):
        """The engine's counters give what a walk over every record it
        returned gives: requests, batches, per-routine requests and
        memo_hit_rate, across scalar calls, in-batch duplicates, a reload
        and a routine served by the default predictor."""
        from repro.core.config import AdsalaConfig
        from repro.core.routines import routine_of
        from repro.core.training import TrainedBundle
        from repro.engine import GemmService

        service = GemmService(oracle_predictor("gemm"),
                              backend=tiny_sim)
        service.register_routine("gemv", predictor=oracle_predictor("gemv"))
        # No syrk predictor: SYRK calls fall back to the gemm model.
        gemv_bundle = TrainedBundle(
            config=AdsalaConfig(machine="tiny", routine="gemv",
                                thread_grid=list(GRID), model_name="gemv-1"),
            pipeline=None, model=RoutineOracleModel(1))

        records = [service.run(GemmSpec(64, 512, 64)),
                   service.run(GemvSpec(m=64, n=512)),
                   service.run(SyrkSpec(n=96, k=64))]
        records += service.run_batch(
            [GemmSpec(64, 512, 64), GemvSpec(m=128, n=256),
             GemvSpec(m=128, n=256), SyrkSpec(n=96, k=64),
             SyrkSpec(n=48, k=32), SyrkSpec(n=48, k=32)])
        records.append(service.run(GemmSpec(64, 512, 64)))
        service.reload(gemv_bundle)
        records += service.run_batch(
            [GemvSpec(m=64, n=512), GemvSpec(m=64, n=512),
             GemmSpec(32, 32, 32)])
        records.append(service.run(GemvSpec(m=64, n=512)))

        stats = service.stats()
        requests = Counter(routine_of(r.spec) for r in records)
        memo_hit_rate = sum(r.memoised for r in records) / len(records)
        assert 0 < memo_hit_rate < 1 and requests["syrk"] == 4
        assert stats["requests"] == len(records) == 14
        assert stats["batches"] == 2
        assert stats["memo_hit_rate"] == round(memo_hit_rate, 4)
        assert {name: row["requests"]
                for name, row in stats["routines"].items()} == \
            {name: requests.get(name, 0) for name in service.predictors}


class TestRoutineScopedReload:
    @pytest.fixture
    def registry_service(self, routine_bundles, tiny_sim, tmp_path):
        from repro.engine import GemmService
        from repro.train.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        for routine, bundle in routine_bundles.items():
            registry.publish(bundle, routine=routine, machine="tiny")
        return GemmService.from_registry(registry, tiny_sim), registry

    def test_reload_swaps_only_the_target_routine(self, registry_service,
                                                  routine_bundles):
        service, _ = registry_service
        before = {name: p for name, p in service.predictors.items()}
        info = service.reload(routine_bundles["gemv"])
        assert info["routine"] == "gemv"
        after = service.predictors
        assert after["gemv"] is not before["gemv"]
        for name in ("gemm", "syrk", "trsm"):
            assert after[name] is before[name]

    def test_reload_routine_tag_comes_from_bundle_config(
            self, registry_service, routine_bundles):
        service, _ = registry_service
        # No explicit routine argument: the syrk bundle targets syrk.
        old_syrk = service.predictors["syrk"]
        service.reload(routine_bundles["syrk"])
        assert service.predictors["syrk"] is not old_syrk

    def test_choices_unchanged_for_untouched_routines(self, registry_service,
                                                      routine_bundles):
        from tests.routines.conftest import routine_specs

        service, _ = registry_service
        specs = routine_specs("trsm", n=6)
        before = [service.predict(s) for s in specs]
        service.reload(routine_bundles["gemv"])
        assert [service.predict(s) for s in specs] == before

    def test_reload_can_install_a_new_routine_with_execution(
            self, routine_bundles, tiny_sim):
        """A routine the service never served can arrive via reload();
        its calls run on the routine oracle like a registered one's."""
        from repro.blas.adapter import RoutineSimulator
        from repro.engine import GemmService

        service = GemmService.from_bundle(routine_bundles["gemm"], tiny_sim)
        service.reload(routine_bundles["gemv"])
        spec = GemvSpec(m=256, n=256)
        record = service.run(spec)
        assert service.predictor_for(spec) is service.predictors["gemv"]
        assert record.runtime == RoutineSimulator(tiny_sim).timed_run(
            spec, record.n_threads, repeats=service.repeats)

    def test_counters_monotonic_across_routine_reload(self, registry_service,
                                                      routine_bundles):
        from tests.routines.conftest import routine_specs

        service, _ = registry_service
        service.run_batch(routine_specs("gemv", n=5))
        before = service.stats()["evaluations"]
        service.reload(routine_bundles["gemv"])
        service.run_batch(routine_specs("gemv", n=5))
        after = service.stats()
        assert after["evaluations"] == before + 5
        assert after["reloads"] == 1


ROUTINE_SPECS = {"gemm": GemmSpec(64, 512, 64), "gemv": GemvSpec(m=2048, n=512),
                 "syrk": SyrkSpec(n=96, k=64), "trsm": TrsmSpec(m=128, n=32)}


class TestExecutionRouting:
    """What runs a call: the machine simulator for GEMM and the routine
    oracle over it for every other routine, whichever predictor answers
    the call; an override backend runs every routine."""

    @pytest.fixture(scope="class")
    def registry(self, routine_bundles, tmp_path_factory):
        from repro.train.registry import ModelRegistry

        registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
        for routine, bundle in routine_bundles.items():
            registry.publish(bundle, routine=routine, machine="tiny")
        return registry

    @pytest.mark.parametrize("execution", ["simulator", "override"])
    @pytest.mark.parametrize("answered_by", ["own", "default"])
    @pytest.mark.parametrize("routine", sorted(ROUTINE_SPECS))
    def test_runtime_comes_from_the_expected_executor(
            self, registry, tiny_sim, routine, answered_by, execution):
        from repro.bench.loadgen import CpuBoundBackend
        from repro.blas.adapter import RoutineSimulator
        from repro.engine import GemmService

        override = CpuBoundBackend(iters=1) if execution == "override" \
            else None
        # "default": only another routine's model is loaded, so the
        # service's default predictor answers this routine's calls.
        routines = None if answered_by == "own" \
            else ["gemv" if routine == "gemm" else "gemm"]
        service = GemmService.from_registry(registry, tiny_sim,
                                            routines=routines, repeats=2,
                                            backend=override)
        spec = ROUTINE_SPECS[routine]
        assert (routine in service.predictors) == (answered_by == "own")
        if override is not None:
            expected = override
        elif routine == "gemm":
            expected = tiny_sim
        else:
            expected = RoutineSimulator(tiny_sim)

        records = [service.run(spec)] + service.run_batch([spec, spec])
        for record in records:
            assert record.runtime == expected.timed_run(
                spec, record.n_threads, repeats=service.repeats)
        top = int(service.predictor_for(spec).thread_grid.max())
        assert service.run_baseline(spec) == expected.timed_run(
            spec, top, repeats=service.repeats)
