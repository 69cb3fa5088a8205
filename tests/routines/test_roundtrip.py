"""Every registered routine: install -> serialize -> load -> predict.

The property the registry layers rely on: a routine bundle survives the
full persistence cycle (plain directory and versioned registry) with
bitwise-identical predictions, on both the object path and the compiled
plan, and its routine tag rides along everywhere.
"""

import numpy as np
import pytest

from repro.core.routines import routine_names
from repro.core.serialize import load_bundle, save_bundle
from tests.routines.conftest import routine_specs


@pytest.mark.parametrize("routine", routine_names())
class TestRoundTrip:
    def test_config_carries_the_routine_tag(self, routine_bundles, routine):
        assert routine_bundles[routine].config.routine == routine

    def test_save_load_predicts_bitwise(self, routine_bundles, routine,
                                        tmp_path):
        bundle = routine_bundles[routine]
        save_bundle(bundle, tmp_path / routine)
        loaded = load_bundle(tmp_path / routine)
        assert loaded.config.routine == routine
        specs = routine_specs(routine)
        fresh = loaded.predictor(cache_size=64, compiled=True)
        orig = bundle.predictor(cache_size=64)
        for spec in specs:
            assert fresh.predict_threads(*spec.dims) == \
                orig.predict_threads(*spec.dims)

    def test_predictor_cache_keys_are_routine_qualified(
            self, routine_bundles, routine):
        predictor = routine_bundles[routine].predictor(cache_size=8)
        spec = routine_specs(routine, n=1)[0]
        predictor.predict_threads(*spec.dims)
        (key,) = predictor.cache.keys()
        assert key[0] == routine

    def test_compiled_plan_matches_object_path_bitwise(
            self, routine_bundles, routine):
        """The compile layer lowers per routine: thread choices through
        the fused plan equal the object pipeline/model walk exactly."""
        bundle = routine_bundles[routine]
        specs = routine_specs(routine, n=10)
        compiled = bundle.predictor(cache_size=64, compiled=True)
        objects = bundle.predictor(cache_size=64, compiled=False)
        assert compiled.compiled and not objects.compiled
        dims = [s.dims for s in specs]
        np.testing.assert_array_equal(
            compiled.predict_threads_batch(dims),
            objects.predict_threads_batch(dims))
        for spec in specs:
            np.testing.assert_array_equal(
                compiled.predicted_runtimes(*spec.dims),
                objects.predicted_runtimes(*spec.dims))

    def test_registry_publish_load_predict(self, routine_bundles, routine,
                                           tmp_path):
        from repro.train.registry import ModelRegistry

        registry = ModelRegistry(tmp_path / "reg")
        bundle = routine_bundles[routine]
        record = registry.publish(bundle, routine=routine, machine="tiny")
        assert record.routine == routine and record.version == 1
        loaded = registry.load(routine, "tiny")
        specs = routine_specs(routine)
        a = loaded.predictor(cache_size=64)
        b = bundle.predictor(cache_size=64)
        for spec in specs:
            assert a.predict_threads(*spec.dims) == \
                b.predict_threads(*spec.dims)


class TestDatasetTagging:
    def test_gathered_datasets_are_routine_tagged(self):
        from repro.blas.adapter import RoutineSimulator, _RoutineGatherer
        from repro.blas.syrk import SyrkSpec
        from repro.machine.noise import QUIET
        from repro.machine.presets import tiny_test_node
        from repro.machine.simulator import MachineSimulator

        oracle = RoutineSimulator(
            MachineSimulator(tiny_test_node(), noise=QUIET))
        gatherer = _RoutineGatherer(oracle, [1, 2, 4], repeats=2)
        data = gatherer.gather_for_specs([SyrkSpec(n=32, k=16)])
        assert data.routine == "syrk"
        assert all(r.routine == "syrk" for r in data.records())
        assert isinstance(data.records()[0].spec, SyrkSpec)

    def test_json_roundtrip_keeps_routine(self):
        from repro.core.dataset import TimingDataset, TimingRecord

        data = TimingDataset.from_records(
            [TimingRecord(8, 4, 1, 2, 0.5, routine="gemv")])
        again = TimingDataset.from_json(data.to_json())
        assert again.routine == "gemv"
        assert again.select([True]).routine == "gemv"

    def test_mixed_routine_records_rejected(self):
        from repro.core.dataset import TimingDataset, TimingRecord

        with pytest.raises(ValueError, match="mixed-routine"):
            TimingDataset.from_records([
                TimingRecord(8, 4, 1, 2, 0.5, routine="gemv"),
                TimingRecord(8, 4, 1, 2, 0.5, routine="gemm")])

    def test_merge_rejects_cross_routine(self):
        from repro.core.dataset import TimingDataset, TimingRecord

        a = TimingDataset.from_records([TimingRecord(8, 4, 1, 2, 0.5)])
        b = TimingDataset.from_records(
            [TimingRecord(8, 4, 1, 2, 0.5, routine="gemv")])
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(b)
