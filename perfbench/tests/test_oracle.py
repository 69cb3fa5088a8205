"""The oracle gate catches any selection or runtime that differs."""

import numpy as np
import pytest

from perfbench.oracle import Universe, gate, gemm_speedup
from repro.engine.service import GemmCallRecord
from repro.gemm.interface import GemmSpec

GRID = [1, 4, 16]


@pytest.fixture
def universe():
    times = [(3e-3, 1e-3, 2e-3), (8e-3, 4e-3, 1e-3)]
    return Universe(dims=[(10, 20, 30), (400, 500, 600)], grid=GRID,
                    times=times, oracle=[4, 16],
                    on_lattice=np.asarray([False, True]),
                    gain=np.asarray([1.0, 1.0]))


def record(universe, row, threads=None):
    threads = universe.oracle[row] if threads is None else threads
    runtime = universe.times[row][GRID.index(threads)]
    return GemmCallRecord(spec=GemmSpec(*universe.dims[row]),
                          n_threads=threads, runtime=runtime, memoised=False)


def test_oracle_records_pass(universe):
    rows = [0, 1, 0]
    result = gate(rows, [record(universe, r) for r in rows], universe)
    assert result == {"checked": 3, "missing": 0, "wrong": 0, "failed": 0}


def test_planted_wrong_choice_trips_the_gate(universe):
    # A feasible grid entry with its own genuine replay time: only the
    # choice differs from the oracle's.
    rows = [0, 1]
    records = [record(universe, 0), record(universe, 1, threads=4)]
    assert gate(rows, records, universe)["wrong"] == 1


def test_wrong_runtime_or_shape_trips_the_gate(universe):
    good = record(universe, 0)
    slower = GemmCallRecord(good.spec, good.n_threads, good.runtime * 2, False)
    swapped = record(universe, 1)
    assert gate([0, 0], [slower, swapped], universe)["wrong"] == 2


def test_missing_and_failed_are_counted(universe):
    result = gate([0, 1], [None, RuntimeError("overloaded")], universe)
    assert result == {"checked": 0, "missing": 1, "wrong": 0, "failed": 1}


def test_short_or_long_burst_trips_the_gate(universe):
    # A burst of four requests answered with three aligned records: the
    # records present are right, the request left over is missing.
    rows = [0, 1, 0, 1]
    records = [record(universe, r) for r in rows]
    short = gate(rows, records[:3], universe)
    assert short == {"checked": 3, "missing": 1, "wrong": 0, "failed": 0}
    assert gate(rows[:3], records, universe)["wrong"] == 1


def test_gemm_speedup_is_the_geometric_mean(universe):
    rows = [0, 1]
    value = gemm_speedup(rows, [record(universe, r) for r in rows], universe)
    assert value == pytest.approx(np.sqrt((2e-3 / 1e-3) * (1e-3 / 1e-3)))
