"""WorkerSpec, factory resolution and slab framing — no processes spawned."""

import pickle

import pytest

from repro.fleet import WorkerSpec, chunk_slots, resolve_factory


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
    def test_chunks_preserve_order_and_cover(self):
        slots = list(range(10))
        chunks = list(chunk_slots(slots, 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_single_chunk_when_small(self):
        assert list(chunk_slots([1, 2], 16)) == [[1, 2]]
        assert list(chunk_slots([], 16)) == []

    def test_max_batch_one_yields_singletons(self):
        assert list(chunk_slots([3, 1, 2], 1)) == [[3], [1], [2]]

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            list(chunk_slots([1], 0))


class TestChunkSlotsByCost:
    def test_no_budget_matches_count_chunking(self):
        slots = list(range(10))
        assert list(chunk_slots(slots, 4, [1.0] * 10, None)) \
            == list(chunk_slots(slots, 4))

    def test_budget_splits_before_overflow(self):
        chunks = list(chunk_slots([7, 8, 9], 16, [5.0, 5.0, 5.0], 10.0))
        assert chunks == [[7, 8], [9]]

    def test_oversized_slot_frames_alone(self):
        assert list(chunk_slots([0, 1], 16, [99.0, 1.0], 10.0)) \
            == [[0], [1]]

    def test_empty_and_singleton_edges(self):
        assert list(chunk_slots([], 4, [], 10.0)) == []
        assert list(chunk_slots([5, 6], 1, [1.0, 1.0], 10.0)) \
            == [[5], [6]]

    def test_ragged_tail_covers_in_order(self):
        slots = list(range(7))
        costs = [2.0] * 7
        chunks = list(chunk_slots(slots, 3, costs, 100.0))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]]

    def test_validation(self):
        with pytest.raises(ValueError):
            list(chunk_slots([1], 0, [1.0], None))
        with pytest.raises(ValueError):
            list(chunk_slots([1], 4, [1.0], -1.0))
