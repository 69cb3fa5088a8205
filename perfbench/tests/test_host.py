"""Wall time converts to reference time by the probed CPU speed."""

import pytest

from perfbench.host import (REFERENCE_S, SETUP_ELASTICITY, Speedometer,
                            probe, setup_scale)


def meter(at, cost):
    out = Speedometer()
    out.at.extend(at)
    out.cost.extend(c * REFERENCE_S for c in cost)
    return out


def test_speed_between_probes_is_by_their_mean_cost():
    # Probes at t = 1, 2, 3 costing 1x, 3x, 3x the reference: half speed
    # between the first two, a third after.
    m = meter([1.0, 2.0, 3.0], [1.0, 3.0, 3.0])
    assert m.clock([0.5, 1.0, 2.0, 9.0]) == pytest.approx(
        [-0.25, 0.0, 0.5, 0.5 + 7 / 3])
    assert m.reference_s(0.0, 2.0) == pytest.approx(1.0)
    assert m.reference_s(1.5, 4.0) == pytest.approx(0.25 + 2 / 3)


def test_a_request_spanning_intervals_converts_by_each():
    m = meter([1.0, 2.0, 3.0], [1.0, 3.0, 3.0])
    start = [1.5]
    end = [2.5]
    assert (m.clock(end) - m.clock(start)) == pytest.approx([0.25 + 1 / 6])


def test_elasticity_is_the_exponent_of_the_conversion():
    m = meter([1.0, 2.0], [4.0, 4.0])
    m.elasticity = 0.5
    assert m.reference_s(1.5, 1.7) == pytest.approx(0.1)
    assert m.reference_s(1.0, 3.0) == pytest.approx(1.0)


def test_time_the_process_did_not_run_is_not_counted():
    # The process ran half of the first second (the rest was stolen)
    # and all of the second.
    m = meter([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    m.cpu.extend([10.0, 10.5, 11.5])
    assert m.reference_s(1.0, 3.0) == pytest.approx(1.5)
    assert m.reference_s(2.0, 3.0) == pytest.approx(1.0)


def test_poll_reads_the_cpu_clock_with_each_probe():
    ticks = iter([5.0, 6.0])
    m = Speedometer(cpu_clock=lambda: next(ticks))
    m.poll(0.0)
    m.poll(m.at[0] + 1.0)
    assert m.cpu.tolist() == [5.0, 6.0]


def test_cold_start_converts_by_the_mean_of_its_two_probes():
    assert setup_scale(REFERENCE_S, REFERENCE_S) == 1.0
    assert setup_scale(REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(
        0.5 ** SETUP_ELASTICITY)


def test_any_probe_converts_against_its_own_reference_cost():
    m = Speedometer(probe=lambda: 3e-3, reference_cost=1.5e-3)
    m.poll(0.0)
    assert m.reference_s(m.at[0], m.at[0] + 1.0) == pytest.approx(0.5)


def test_poll_probes_only_when_due():
    m = Speedometer()
    m.poll(0.0)
    m.poll(0.0)
    assert len(m.cost) == 1 and m.cost[0] > 0
    m.poll(m.at[0] + 1.0)
    assert len(m.cost) == 2
    assert set(m.summary()) == {"probes", "probe_p10_us", "probe_p50_us",
                                "probe_p90_us"}


def test_probe_is_a_short_fixed_unit_of_work():
    assert 0 < probe() < 0.05
