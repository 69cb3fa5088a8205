"""The future-work extension: SYRK and GEMV thread selection."""

import numpy as np
import pytest

from repro.blas.adapter import RoutineSimulator, install_for_routine
from repro.blas.gemv import GemvSpec, gemv_reference
from repro.blas.syrk import SyrkSpec, syrk_reference
from repro.machine.noise import QUIET
from repro.machine.presets import tiny_test_node
from repro.machine.simulator import MachineSimulator
from repro.ml.registry import candidate_models


class TestSyrkSpec:
    def test_flops_half_of_gemm(self):
        spec = SyrkSpec(n=1000, k=200)
        gemm = spec.equivalent_gemm()
        assert spec.flops < 0.55 * gemm.flops
        assert spec.work_fraction == pytest.approx(0.5, abs=0.01)

    def test_reference_correct_lower(self, rng):
        spec = SyrkSpec(n=6, k=4, dtype="float64", alpha=2.0, beta=0.5)
        a = rng.standard_normal((6, 4))
        c0 = rng.standard_normal((6, 6))
        c = c0.copy()
        syrk_reference(spec, a, c)
        expected = 2.0 * a @ a.T + 0.5 * c0
        tri = np.tril_indices(6)
        np.testing.assert_allclose(c[tri], expected[tri], rtol=1e-12)
        # Upper triangle (strictly) untouched.
        upper = np.triu_indices(6, k=1)
        np.testing.assert_array_equal(c[upper], c0[upper])

    def test_reference_upper_mode(self, rng):
        spec = SyrkSpec(n=4, k=3, dtype="float64", lower=False)
        a = rng.standard_normal((4, 3))
        c = np.zeros((4, 4))
        syrk_reference(spec, a, c)
        assert c[1, 0] == 0.0 and c[0, 1] != 0.0

    def test_shape_validation(self, rng):
        spec = SyrkSpec(n=4, k=3)
        with pytest.raises(ValueError):
            syrk_reference(spec, np.zeros((3, 4), dtype=np.float32),
                           np.zeros((4, 4), dtype=np.float32))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyrkSpec(n=0, k=1)


class TestGemvSpec:
    def test_reference_correct(self, rng):
        spec = GemvSpec(m=5, n=3, dtype="float64", alpha=1.5, beta=-1.0)
        a = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        y0 = rng.standard_normal(5)
        y = y0.copy()
        gemv_reference(spec, a, x, y)
        np.testing.assert_allclose(y, 1.5 * a @ x - y0, rtol=1e-12)

    def test_memory_bound_character(self):
        """GEMV's equivalent GEMM has n=1: the cost model should show
        thread saturation far below the core count."""
        sim = RoutineSimulator(MachineSimulator(tiny_test_node(), noise=QUIET))
        spec = GemvSpec(m=4000, n=4000)
        best = sim.optimal_threads(spec, [1, 2, 4, 8, 16])
        assert best <= 8

    def test_equivalent_gemm_dims(self):
        assert GemvSpec(m=10, n=20).equivalent_gemm().dims == (10, 20, 1)


class TestRoutineSimulator:
    def setup_method(self):
        self.oracle = RoutineSimulator(
            MachineSimulator(tiny_test_node(), noise=QUIET, seed=0))

    def test_syrk_cheaper_than_equivalent_gemm(self):
        spec = SyrkSpec(n=800, k=400)
        t_syrk = self.oracle.true_time(spec, 4)
        t_gemm = self.oracle.simulator.true_time(spec.equivalent_gemm(), 4)
        assert t_syrk < t_gemm

    def test_overheads_not_scaled(self):
        """Sync/copy follow the full schedule; only FLOPs are scaled, so
        SYRK time exceeds half the GEMM time."""
        spec = SyrkSpec(n=800, k=400)
        t_syrk = self.oracle.true_time(spec, 8)
        t_gemm = self.oracle.simulator.true_time(spec.equivalent_gemm(), 8)
        assert t_syrk > 0.5 * t_gemm

    def test_timed_run_reduces(self):
        spec = SyrkSpec(n=100, k=50)
        t = self.oracle.timed_run(spec, 4, repeats=3)
        assert t > 0

    def test_passthrough_properties(self):
        assert self.oracle.name == "tiny"
        assert self.oracle.max_threads() == 16


class TestInstallForRoutine:
    @pytest.fixture(scope="class")
    def syrk_install(self):
        sim = MachineSimulator(tiny_test_node(), seed=0)
        rng = np.random.default_rng(5)
        specs = [SyrkSpec(n=int(n), k=int(k))
                 for n, k in zip(rng.integers(8, 900, 40),
                                 rng.integers(8, 900, 40))]
        cands = [c for c in candidate_models(budget="fast")
                 if c.name in ("Bayes Regression", "XGBoost")]
        bundle, oracle = install_for_routine(
            sim, specs, thread_grid=[1, 2, 4, 8, 16], candidates=cands,
            tune_iters=2, cv_folds=2, repeats=3, seed=0)
        return bundle, oracle

    def test_produces_working_predictor(self, syrk_install):
        bundle, oracle = syrk_install
        predictor = bundle.predictor()
        spec = SyrkSpec(n=64, k=512)
        m, k, n = spec.dims
        p = predictor.predict_threads(m, k, n)
        assert p in [1, 2, 4, 8, 16]

    def test_selection_beats_max_threads_on_average(self, syrk_install):
        bundle, oracle = syrk_install
        predictor = bundle.predictor()
        rng = np.random.default_rng(99)
        speedups = []
        for _ in range(20):
            spec = SyrkSpec(n=int(rng.integers(8, 600)),
                            k=int(rng.integers(8, 600)))
            m, k, n = spec.dims
            p = predictor.predict_threads(m, k, n)
            speedups.append(oracle.true_time(spec, 16)
                            / oracle.true_time(spec, p))
        assert float(np.mean(speedups)) > 1.1


class TestTrsmSpec:
    def test_reference_solves_system(self, rng):
        from repro.blas.trsm import TrsmSpec, trsm_reference

        spec = TrsmSpec(m=8, n=5, dtype="float64", alpha=2.0)
        l_mat = np.tril(rng.standard_normal((8, 8))) + 4.0 * np.eye(8)
        b0 = rng.standard_normal((8, 5))
        b = b0.copy()
        trsm_reference(spec, l_mat, b)
        # L @ X == alpha * B
        np.testing.assert_allclose(np.tril(l_mat) @ b, 2.0 * b0, rtol=1e-9)

    def test_upper_part_of_l_ignored(self, rng):
        from repro.blas.trsm import TrsmSpec, trsm_reference

        spec = TrsmSpec(m=5, n=3, dtype="float64")
        l_mat = np.tril(rng.standard_normal((5, 5))) + 3.0 * np.eye(5)
        noisy = l_mat + np.triu(rng.standard_normal((5, 5)), k=1)
        b0 = rng.standard_normal((5, 3))
        a, b = b0.copy(), b0.copy()
        trsm_reference(spec, l_mat, a)
        trsm_reference(spec, noisy, b)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_singular_diagonal_rejected(self, rng):
        from repro.blas.trsm import TrsmSpec, trsm_reference

        spec = TrsmSpec(m=3, n=2, dtype="float64")
        l_mat = np.tril(rng.standard_normal((3, 3)))
        l_mat[1, 1] = 0.0
        with pytest.raises(ValueError, match="singular"):
            trsm_reference(spec, l_mat, np.zeros((3, 2)))

    def test_cost_mapping(self):
        from repro.blas.trsm import TrsmSpec

        spec = TrsmSpec(m=100, n=50)
        assert spec.equivalent_gemm().dims == (100, 100, 50)
        assert 0.5 <= spec.work_fraction <= 0.51
        assert spec.flops < spec.equivalent_gemm().flops

    def test_adapter_accepts_trsm(self):
        from repro.blas.trsm import TrsmSpec
        from repro.machine.noise import QUIET
        from repro.machine.presets import tiny_test_node
        from repro.machine.simulator import MachineSimulator

        oracle = RoutineSimulator(MachineSimulator(tiny_test_node(), noise=QUIET))
        t = oracle.true_time(TrsmSpec(m=400, n=200), 4)
        assert t > 0


class TestRoutineCorrections:
    """The oracle's per-routine corrections pinned against the machine
    simulator's cost-model breakdown (the contract the routine-generic
    engine backends execute through)."""

    def setup_method(self):
        self.sim = MachineSimulator(tiny_test_node(), noise=QUIET, seed=0)
        self.oracle = RoutineSimulator(self.sim)

    def _breakdown(self, gemm, p):
        return self.sim.cost_model.breakdown(gemm, p, self.sim.affinity,
                                             self.sim.hyperthreading)

    def test_syrk_work_fraction_pinned_to_breakdown(self):
        """SYRK time == sync + copy + work_fraction * kernel, exactly:
        only the arithmetic scales, overheads follow the full
        schedule."""
        spec = SyrkSpec(n=600, k=300)
        for p in (1, 2, 4, 8, 16):
            bd = self._breakdown(spec.equivalent_gemm(), p)
            expected = bd.sync + bd.copy + bd.kernel * spec.work_fraction
            assert self.oracle.true_time(spec, p) == pytest.approx(
                expected, rel=1e-12)

    def test_gemv_is_the_uncorrected_equivalent_gemm(self):
        """GEMV needs no correction (work_fraction == 1): its n=1
        equivalent GEMM already sits on the cost model's bandwidth
        roofline."""
        spec = GemvSpec(m=3000, n=3000)
        assert spec.work_fraction == 1.0
        for p in (1, 2, 4, 8, 16):
            bd = self._breakdown(spec.equivalent_gemm(), p)
            assert self.oracle.true_time(spec, p) == pytest.approx(
                bd.total, rel=1e-12)

    def test_gemv_bandwidth_roofline_saturates_early(self):
        """The bandwidth-bound regime: GEMV's optimal thread count sits
        well below a compute-bound GEMM of the same footprint, and
        adding threads past it buys (almost) nothing."""
        gemv = GemvSpec(m=4000, n=4000)
        best_gemv = self.oracle.optimal_threads(gemv, [1, 2, 4, 8, 16])
        from repro.gemm.interface import GemmSpec

        cubic = GemmSpec(1200, 1200, 1200)  # compute-bound, saturates late
        best_gemm = self.sim.optimal_threads(cubic, [1, 2, 4, 8, 16])
        assert best_gemv < best_gemm
        # Past the roofline, more threads actively hurt GEMV (the
        # regime the extension exposes) while the cubic GEMM gains.
        t_best = self.oracle.true_time(gemv, best_gemv)
        t_max = self.oracle.true_time(gemv, 16)
        assert t_max > 1.5 * t_best

    def test_trsm_triangle_fraction_pinned(self):
        from repro.blas.trsm import TrsmSpec

        spec = TrsmSpec(m=500, n=250)
        bd = self._breakdown(spec.equivalent_gemm(), 8)
        expected = bd.sync + bd.copy + bd.kernel * spec.work_fraction
        assert self.oracle.true_time(spec, 8) == pytest.approx(
            expected, rel=1e-12)

    def test_gemm_spec_satisfies_oracle_protocol(self):
        """GemmSpec itself now answers the oracle protocol (identity
        equivalent, unit work fraction), so a RoutineSimulator can serve
        stray GEMM traffic consistently."""
        from repro.gemm.interface import GemmSpec

        spec = GemmSpec(200, 100, 50)
        assert spec.equivalent_gemm() is spec
        assert spec.work_fraction == 1.0
        assert self.oracle.true_time(spec, 4) == pytest.approx(
            self._breakdown(spec, 4).total, rel=1e-12)
