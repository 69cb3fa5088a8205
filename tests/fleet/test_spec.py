"""WorkerSpec, factory resolution and slab framing — no processes spawned."""

import pickle

import pytest

from repro.fleet import WorkerSpec, chunk_slots, resolve_factory, transport
from repro.serve import front
from tests.serve.test_cost import check_chunk_cases


class TestWorkerSpec:
    def _spec(self, **overrides):
        base = dict(name="w0", registry_root="/tmp/reg", machine="tiny")
        base.update(overrides)
        return WorkerSpec(**base)

    def test_pickle_round_trip(self):
        spec = self._spec(routines=("gemm", "gemv"),
                          backend="repro.bench.loadgen:cpu_bound_backend",
                          backend_args=(("iters", 100),))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.routines == ("gemm", "gemv")
        assert dict(clone.backend_args) == {"iters": 100}

    def test_dict_round_trip(self):
        spec = self._spec(routines=["gemm"], version=3,
                          backend_args=[("iters", 7)])
        data = spec.as_dict()
        assert data["routines"] == ("gemm",)
        assert WorkerSpec.from_dict(data) == spec

    def test_validate_accepts_plain_data(self):
        spec = self._spec()
        assert spec.validate() is spec

    def test_validate_rejects_unpicklable_version(self):
        spec = self._spec(version=lambda: 1)
        with pytest.raises(ValueError, match="not picklable"):
            spec.validate()

    def test_validate_rejects_bad_backend_path(self):
        with pytest.raises(ValueError, match="module:attr"):
            self._spec(backend="no-colon-here").validate()
        with pytest.raises(ModuleNotFoundError):
            self._spec(backend="no.such.module:thing").validate()

    def test_build_backend(self):
        spec = self._spec(backend="repro.bench.loadgen:cpu_bound_backend",
                          backend_args=(("iters", 11),))
        backend = spec.build_backend()
        assert backend.iters == 11
        assert self._spec().build_backend() is None


class TestResolveFactory:
    def test_resolves_dotted_attr(self):
        fn = resolve_factory("repro.bench.loadgen:cpu_bound_backend")
        assert callable(fn)

    def test_rejects_malformed_path(self):
        for bad in ("", "just_module", ":attr", "mod:"):
            with pytest.raises(ValueError):
                resolve_factory(bad)


class TestChunkSlots:
    """The fleet frames slabs with the serve chunker.  Its cases live once,
    in tests/serve/test_cost.py; these run them through the fleet's import."""

    def test_fleet_frames_with_the_serve_chunker(self):
        assert transport.chunk_slots is front.chunk_slots

    def test_chunks_preserve_order_and_cover(self):
        check_chunk_cases(chunk_slots, "count_only_boundaries_match_slicing")

    def test_single_chunk_when_small(self):
        check_chunk_cases(chunk_slots, "small_input_in_one_chunk",
                          "empty_count_only")

    def test_max_batch_one_yields_singletons(self):
        check_chunk_cases(chunk_slots, "max_batch_one_yields_singletons")

    def test_rejects_bad_max_batch(self):
        check_chunk_cases(chunk_slots, "zero_max_batch_rejected")


class TestChunkSlotsByCost:
    def test_no_budget_matches_count_chunking(self):
        check_chunk_cases(chunk_slots, "count_only_ignores_costs",
                          "count_only_boundaries_match_slicing")

    def test_budget_splits_before_overflow(self):
        check_chunk_cases(chunk_slots, "budget_splits_before_overflow")

    def test_oversized_slot_frames_alone(self):
        check_chunk_cases(chunk_slots, "oversized_slot_frames_alone")

    def test_empty_and_singleton_edges(self):
        check_chunk_cases(chunk_slots, "empty_under_budget",
                          "max_batch_one_under_budget")

    def test_ragged_tail_covers_in_order(self):
        check_chunk_cases(chunk_slots, "ragged_tail_under_budget")

    def test_validation(self):
        check_chunk_cases(chunk_slots, "zero_max_batch_rejected",
                          "negative_budget_rejected")
