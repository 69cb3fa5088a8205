"""Plateau interpolation, lattice refinement and the fallback reservoir.

The PR-8 tier-0 invariants: an interpolated table answer is only ever
one the compiled plan itself would have given (corner-agreeing,
probe-validated cells); disagreeing or demoted cells fall through to
the plan unchanged; refinement densifies the lattice deterministically
from recorded fallback shapes and republishes through the registry
without breaking version idempotence.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.compile import DecisionTable, compile_table
from repro.compile.table import MAX_LATTICE_POINTS, refine_axes
from repro.core.predictor import ShapeReservoir, ThreadPredictor
from repro.core.routines import REGISTRY
from repro.train.registry import ModelRegistry, RegistryError

from tests.compile.conftest import GRID
from tests.compile.test_table import (ALL_CANDIDATES, AXES, lattice_shapes,
                                      off_lattice_shapes)

#: Bounding box of AXES, for drawing in-box interior probes.
BOX = [(int(axis[0]), int(axis[-1])) for axis in
       (np.asarray(a) for a in AXES)]


def interior_probes(n: int, seed: int) -> np.ndarray:
    """Random in-box (m, k, n) triples, most of them off-lattice."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.integers(lo, hi + 1, size=n, dtype=np.int64)
        for lo, hi in BOX])


def plan_choices(predictor, dims) -> np.ndarray:
    """The compiled plan's argmin choices, bypassing every cache tier."""
    scores = predictor.predicted_runtimes_batch(
        [tuple(int(v) for v in d) for d in dims])
    return predictor.thread_grid[np.argmin(scores, axis=1)]


@pytest.fixture(scope="module")
def plateau_pairs(feature_setup, fitted_pipeline):
    """(compiled predictor, plateau table) per candidate model."""
    builder, _, _ = feature_setup
    pipeline, Z, y = fitted_pipeline
    pairs = {}
    for cand in ALL_CANDIDATES:
        model = cand.build().fit(Z, y)
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=64).compile()
        pairs[cand.name] = (comp, compile_table(comp, axes=AXES,
                                                snap="plateau"))
    return pairs


@pytest.mark.parametrize("name", [c.name for c in ALL_CANDIDATES])
class TestPlateauEveryModel:
    def test_interpolated_answers_bitwise_equal_to_plan(self, plateau_pairs,
                                                        name):
        """Every answer a plateau table gives on randomised probes —
        exact hit or interpolated — is the plan's own answer."""
        comp, table = plateau_pairs[name]
        probes = interior_probes(300, seed=17)
        choices, resolved, interpolated = table.lookup_batch_ex(probes)
        assert (interpolated <= resolved).all()
        if not resolved.any():  # fully-demoted table: everything falls through
            return
        got = choices[resolved]
        expected = plan_choices(comp, probes[resolved])
        np.testing.assert_array_equal(got, expected)

    def test_exact_hits_are_not_interpolated(self, plateau_pairs, name):
        comp, table = plateau_pairs[name]
        points = table.lattice_points()
        choices, resolved, interpolated = table.lookup_batch_ex(points)
        assert resolved.all() and not interpolated.any()
        np.testing.assert_array_equal(choices, plan_choices(comp, points))

    def test_out_of_box_falls_through(self, plateau_pairs, name):
        _, table = plateau_pairs[name]
        outside = [(2048, 128, 90),   # m above the box
                   (64, 16, 90),      # k below the box
                   (15, 30, 6)]       # everything below the box
        _, resolved, interpolated = table.lookup_batch_ex(outside)
        assert not resolved.any() and not interpolated.any()

    def test_scalar_path_matches_batch_path(self, plateau_pairs, name):
        _, table = plateau_pairs[name]
        probes = interior_probes(60, seed=23)
        choices, resolved, interpolated = table.lookup_batch_ex(probes)
        for i, (m, k, n) in enumerate(probes):
            choice, interp = table.lookup_ex(int(m), int(k), int(n))
            if resolved[i]:
                assert choice == int(choices[i])
                assert interp == bool(interpolated[i])
            else:
                assert choice is None and not interp


class TestCornerAgreement:
    """Hand-built lattices where the plateau geometry is known exactly."""

    AXES2 = ([10, 100], [10, 100], [10, 100])

    def _table(self, grid_index, **kwargs):
        return DecisionTable("gemm", GRID, self.AXES2,
                             np.asarray(grid_index, dtype=np.int16),
                             snap="plateau", **kwargs)

    def test_agreeing_cell_answers_its_interior(self):
        table = self._table(np.zeros((2, 2, 2)))
        assert table.cell_ok.shape == (1, 1, 1) and table.cell_ok.all()
        choice, interpolated = table.lookup_ex(50, 50, 50)
        assert choice == GRID[0] and interpolated

    def test_disagreeing_corner_demotes_the_cell(self):
        grid_index = np.zeros((2, 2, 2))
        grid_index[0, 0, 0] = 3
        table = self._table(grid_index)
        assert not table.cell_ok.any()
        assert table.lookup(50, 50, 50) is None        # interior falls through
        assert table.lookup(10, 10, 10) == GRID[3]     # exact hits still answer
        assert table.lookup(100, 10, 10) == GRID[0]

    def test_explicit_mask_can_only_demote(self):
        # All corners agree, but the mask vetoes the cell...
        table = self._table(np.zeros((2, 2, 2)),
                            cell_ok=np.zeros((1, 1, 1), dtype=bool))
        assert table.lookup(50, 50, 50) is None
        # ...and a permissive mask cannot resurrect a disagreeing cell.
        grid_index = np.zeros((2, 2, 2))
        grid_index[1, 1, 1] = 2
        table = self._table(grid_index,
                            cell_ok=np.ones((1, 1, 1), dtype=bool))
        assert not table.cell_ok.any()

    def test_mask_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="cell_ok"):
            self._table(np.zeros((2, 2, 2)),
                        cell_ok=np.ones((2, 2, 2), dtype=bool))

    def test_degenerate_axis_never_blocks_agreement(self):
        table = DecisionTable("gemv", GRID, ([10, 100], [10, 100], [1]),
                              np.zeros((2, 2, 1), dtype=np.int16),
                              snap="plateau")
        assert table.cell_ok.shape == (1, 1, 1) and table.cell_ok.all()
        choice, interpolated = table.lookup_ex(50, 50, 1)
        assert choice == GRID[0] and interpolated

    def test_non_plateau_modes_carry_no_mask(self):
        table = DecisionTable("gemm", GRID, self.AXES2,
                              np.zeros((2, 2, 2), dtype=np.int16),
                              snap="exact")
        assert table.cell_ok is None


class _CarvedPredictor:
    """Corners agree; the plan changes its mind strictly inside the cell.

    Piecewise models can carve a cell without moving its corners — the
    build-time probe sweep must catch that and demote the cell instead
    of shipping a wrong interpolation.
    """

    routine = "gemm"
    thread_grid = np.asarray(GRID, dtype=np.int64)

    def predicted_runtimes_batch(self, shapes):
        corner = {10, 100}
        scores = []
        for m, k, n in shapes:
            on_corner = {m, k, n} <= corner
            scores.append([0.0, 1.0, 2.0, 3.0, 4.0, 5.0] if on_corner
                          else [1.0, 0.0, 2.0, 3.0, 4.0, 5.0])
        return np.asarray(scores)


class TestBuildTimeDemotion:
    def test_carved_cell_is_demoted_not_shipped(self):
        table = compile_table(_CarvedPredictor(),
                              axes=([10, 100], [10, 100], [10, 100]),
                              snap="plateau")
        assert table.meta["demoted_cells"] == 1
        assert table.meta["validation_probes"] > 0
        assert not table.cell_ok.any()
        assert table.lookup(50, 50, 50) is None      # would have been wrong
        assert table.lookup(10, 100, 10) == GRID[0]  # corners still exact

    def test_validation_metadata_lands_in_describe(self):
        table = compile_table(_CarvedPredictor(),
                              axes=([10, 100], [10, 100], [10, 100]),
                              snap="plateau")
        info = table.describe()
        assert info["snap"] == "plateau"
        assert info["cells"] == 1 and info["plateau_cells"] == 0
        assert info["demoted_cells"] == 1
        assert info["validation_probes"] == table.meta["validation_probes"]


class TestPlateauPersistence:
    @pytest.fixture(scope="class")
    def table(self, feature_setup, fitted_pipeline):
        builder, _, _ = feature_setup
        pipeline, Z, y = fitted_pipeline
        model = ALL_CANDIDATES[0].build().fit(Z, y)
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=64).compile()
        return compile_table(comp, axes=AXES, snap="plateau")

    def test_pickle_roundtrip_preserves_answers(self, table):
        clone = pickle.loads(pickle.dumps(table))
        assert clone.snap == "plateau"
        np.testing.assert_array_equal(clone.cell_ok, table.cell_ok)
        probes = interior_probes(200, seed=31)
        for a, b in zip(clone.lookup_batch_ex(probes),
                        table.lookup_batch_ex(probes)):
            np.testing.assert_array_equal(a, b)

    def test_pickles_deterministically(self, table):
        """Scratch state stays out of the pickle, so bytes are stable —
        the registry's idempotence checks hang off this."""
        payload = pickle.dumps(table)
        clone = pickle.loads(payload)
        clone.lookup(33, 44, 55)  # dirty the scratch buffer
        assert pickle.dumps(clone) == payload


class TestRefineAxes:
    AXES3 = ([10, 100], [10, 100], [10, 100])

    def test_deterministic(self):
        misses = [(50, 20, 30), (50, 20, 90), (60, 20, 30)]
        first = refine_axes(self.AXES3, misses)
        second = refine_axes(self.AXES3, misses)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_most_frequent_misses_win_the_budget(self):
        misses = [(50, 10, 10)] * 3 + [(60, 10, 10)] * 2 + [(70, 10, 10)]
        out = refine_axes(self.AXES3, misses, max_new_per_axis=2)
        assert out[0].tolist() == [10, 50, 60, 100]
        np.testing.assert_array_equal(out[1], [10, 100])

    def test_frequency_ties_break_toward_smaller_value(self):
        misses = [(60, 10, 10), (50, 10, 10)] * 2
        out = refine_axes(self.AXES3, misses, max_new_per_axis=1)
        assert out[0].tolist() == [10, 50, 100]

    def test_on_lattice_misses_are_a_no_op(self):
        out = refine_axes(self.AXES3, [(10, 100, 10), (100, 10, 100)])
        for old, new in zip(self.AXES3, out):
            np.testing.assert_array_equal(new, old)

    def test_out_of_box_miss_extends_the_box(self):
        out = refine_axes(self.AXES3, [(500, 10, 10)])
        assert out[0].tolist() == [10, 100, 500]

    def test_budget_shrinks_to_respect_the_point_bound(self):
        edge = np.arange(1, 101, dtype=np.int64)
        axes = (edge, edge, edge)  # exactly MAX_LATTICE_POINTS
        assert int(np.prod([a.size for a in axes])) == MAX_LATTICE_POINTS
        out = refine_axes(axes, [(1000, 2000, 3000)])
        for old, new in zip(axes, out):
            np.testing.assert_array_equal(new, old)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_new_per_axis"):
            refine_axes(self.AXES3, [(50, 50, 50)], max_new_per_axis=-1)
        with pytest.raises(ValueError, match=">= 1"):
            refine_axes(self.AXES3, [(0, 50, 50)])

    def test_empty_misses(self):
        out = refine_axes(self.AXES3, [])
        for old, new in zip(self.AXES3, out):
            np.testing.assert_array_equal(new, old)

    def test_accepts_spec_like_objects(self):
        class Dims:
            dims = (55, 10, 10)

        out = refine_axes(self.AXES3, [Dims()])
        assert 55 in out[0].tolist()


class TestShapeReservoir:
    def test_fixed_seed_determinism(self):
        stream = [(i % 37 + 1, i % 11 + 1, i % 7 + 1) for i in range(1000)]
        a, b = ShapeReservoir(capacity=16), ShapeReservoir(capacity=16)
        for shape in stream:
            a.add(shape)
            b.add(shape)
        assert a.shapes() == b.shapes()
        assert a.seen == b.seen == 1000

    def test_bounded_memory(self):
        reservoir = ShapeReservoir(capacity=8)
        for i in range(10_000):
            reservoir.add((i + 1, 1, 1))
        assert len(reservoir) == 8 and reservoir.seen == 10_000

    def test_keeps_everything_below_capacity(self):
        reservoir = ShapeReservoir(capacity=64)
        offered = [(i + 1, 2, 3) for i in range(10)]
        for shape in offered:
            reservoir.add(shape)
        assert reservoir.shapes() == offered

    def test_sample_is_a_subset_of_the_stream(self):
        reservoir = ShapeReservoir(capacity=4)
        offered = {(i + 1, 5, 5) for i in range(200)}
        for shape in sorted(offered):
            reservoir.add(shape)
        assert set(reservoir.shapes()) <= offered

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ShapeReservoir(capacity=0)

    def test_draws_only_on_replacements(self):
        """Past capacity, draws scale with k ln(n/k), not with n."""

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.calls = {"random": 0, "randrange": 0}

            def random(self):
                self.calls["random"] += 1
                return self.rng.random()

            def randrange(self, stop):
                self.calls["randrange"] += 1
                return self.rng.randrange(stop)

        k, n = 64, 64_000
        reservoir = ShapeReservoir(capacity=k)
        rng = reservoir._rng = CountingRng(reservoir._rng)
        for i in range(n):
            reservoir.add((np.int64(i + 1), 2, 3))
        # One randrange picks the slot each replacement overwrites; two
        # uniforms then shrink the weight and draw the next skip.
        replacements = rng.calls["randrange"]
        assert rng.calls["random"] == 2 * replacements
        # Offer i > k replaces with probability k / i.
        expected = sum(k / i for i in range(k + 1, n + 1))
        assert abs(replacements - expected) <= 5 * math.sqrt(expected)
        # Algorithm R would have drawn once per offer past k.
        assert 3 * replacements < (n - k) / 30
        assert reservoir.seen == n and len(reservoir) == k
        assert all(type(v) is int for shape in reservoir.shapes()
                   for v in shape)

    def test_predictor_records_fallbacks(self, feature_setup,
                                         fitted_pipeline):
        builder, _, _ = feature_setup
        pipeline, Z, y = fitted_pipeline
        model = ALL_CANDIDATES[0].build().fit(Z, y)
        comp = ThreadPredictor(builder, pipeline, model, GRID,
                               cache_size=64).compile()
        table = compile_table(comp, axes=AXES)  # snap=exact: misses abound
        tab = ThreadPredictor(builder, pipeline, model, GRID, cache_size=64,
                              plan=comp.plan, table=table)
        misses = off_lattice_shapes(7, seed=5)
        tab.predict_threads_batch(misses)
        m, k, n = misses[0]
        tab.predict_threads(m, k, n)  # cached: must not re-record
        assert tab.fallback_shapes.seen == len(set(misses))
        assert set(tab.fallback_shapes.shapes()) == set(misses)


class TestRegistryRefine:
    MISSES = [(333, 77, 41)] * 3 + [(219, 77, 41)] * 2 + [(333, 135, 260)]

    @pytest.fixture()
    def tabled_registry(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(bundle, routine="gemm")
        registry.compile_table("gemm", "tiny", resolution=6, snap="plateau")
        return registry

    def test_refine_publishes_next_generation(self, tabled_registry):
        registry = tabled_registry
        info = registry.refine_table("gemm", "tiny", shapes=self.MISSES)
        assert not info.get("up_to_date")
        assert info["version"] == 3 and info["refined_from_version"] == 2
        assert info["generation"] == 1
        assert info["n_miss_shapes"] == len(self.MISSES)

        table = registry.load("gemm", "tiny").table
        assert table.snap == "plateau"  # snap mode survives refinement
        assert table.meta["source"] == "refined"
        assert table.meta["generation"] == 1
        assert table.meta["refined_from_version"] == 2
        for axis, col in zip(table.axes, np.asarray(self.MISSES).T):
            assert np.isin(col, axis).all()  # misses are lattice ticks now
        # The pre-refinement version is immutable and still resolvable.
        assert registry.resolve("gemm", "tiny", version=2).version == 2

    def test_refine_is_idempotent_on_stable_traffic(self, tabled_registry):
        registry = tabled_registry
        registry.refine_table("gemm", "tiny", shapes=self.MISSES)
        n_versions = len(registry.entries())
        info = registry.refine_table("gemm", "tiny", shapes=self.MISSES)
        assert info["up_to_date"] and info["generation"] == 1
        assert len(registry.entries()) == n_versions  # no version minted

    def test_generations_accumulate(self, tabled_registry):
        registry = tabled_registry
        registry.refine_table("gemm", "tiny", shapes=self.MISSES)
        info = registry.refine_table("gemm", "tiny",
                                     shapes=[(477, 91, 310)])
        assert info["generation"] == 2
        table = registry.load("gemm", "tiny").table
        assert table.meta["generation"] == 2
        assert table.meta["refined_from_version"] == 3

    def test_refined_lattice_serves_the_recorded_misses(self,
                                                        tabled_registry):
        registry = tabled_registry
        registry.refine_table("gemm", "tiny", shapes=self.MISSES)
        predictor = registry.load("gemm", "tiny").predictor(cache_size=64)
        before = predictor.n_model_passes
        predictor.predict_threads_batch(sorted(set(self.MISSES)))
        assert predictor.n_table_fallbacks == 0  # former misses now tier-0
        assert predictor.n_model_passes == before

    def test_refine_without_table_raises(self, tiny_bundle, tmp_path):
        bundle, _ = tiny_bundle
        bundle = dataclasses.replace(bundle, table=None)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(bundle, routine="gemm")
        with pytest.raises(RegistryError, match="no decision table"):
            registry.refine_table("gemm", "tiny", shapes=self.MISSES)
