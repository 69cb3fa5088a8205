"""Workload streams are seeded, distinct per seed, and keep their mix."""

import numpy as np
import pytest

from perfbench import streams

N_LATTICE, N_POOL = 600, 4000


@pytest.fixture(scope="module")
def universe():
    on_lattice = np.zeros(N_LATTICE + N_POOL, dtype=bool)
    on_lattice[:N_LATTICE] = True
    gain = np.random.default_rng(7).lognormal(1.5, 1.2, on_lattice.size)
    return on_lattice, gain


def counts(rows):
    values, n = np.unique(rows, return_counts=True)
    return dict(zip(values.tolist(), n.tolist()))


@pytest.mark.parametrize("workload", ["library", "serve", "fleet"])
def test_same_seed_same_stream(universe, workload):
    a = streams.stream(workload, *universe, seed=3)
    b = streams.stream(workload, *universe, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, streams.stream(workload, *universe, seed=4))


def test_workloads_differ_for_one_seed(universe):
    assert not np.array_equal(streams.stream("serve", *universe, seed=3),
                              streams.stream("fleet", *universe, seed=3))


def library_mix(rows, on_lattice):
    hot = {r for r, n in counts(rows).items() if n > 100}
    working_share = np.isin(rows, list(hot)).mean()
    return len(hot), working_share, on_lattice[rows].mean()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_library_mix(universe, seed):
    on_lattice, _ = universe
    rows = streams.stream("library", *universe, seed=seed)
    working, share, lattice_share = library_mix(rows, on_lattice)
    assert working == streams.WORKING_SET
    assert share == pytest.approx(1 - streams.COLD_SHARE, abs=0.01)
    assert lattice_share == 0.0


def mixed_mix(rows, on_lattice):
    hot = {r for r, n in counts(rows).items() if n > 100}
    return (len(hot), np.isin(rows, list(hot)).mean(),
            on_lattice[rows].mean())


@pytest.mark.parametrize("workload", ["serve", "fleet"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_mix(universe, workload, seed):
    on_lattice, _ = universe
    rows = streams.stream(workload, *universe, seed=seed)
    hot, hot_share, lattice_share = mixed_mix(rows, on_lattice)
    assert hot == streams.HOT_SET
    assert hot_share == pytest.approx(streams.HOT_SHARE, abs=0.01)
    assert lattice_share == pytest.approx((1 - streams.HOT_SHARE) / 2,
                                          abs=0.01)


def test_working_set_spans_the_gain_range(universe):
    on_lattice, gain = universe
    pool_gain = np.sort(gain[~on_lattice])
    bin_size = pool_gain.size // streams.WORKING_SET
    for seed in (0, 1):
        rows = streams.stream("library", *universe, seed=seed)
        hot = sorted(r for r, n in counts(rows).items() if n > 100)
        chosen = np.sort(gain[hot])
        assert chosen[0] <= pool_gain[bin_size]
        assert chosen[-1] >= pool_gain[-bin_size - 1]
