"""The benchmark's percentile, sample-count and outcome arithmetic."""

import pytest

from stats import Outcomes, Rep, percentile, position_medians, samples_beyond, steady_reps


def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))  # unsorted on purpose
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 1.0) == 10
    assert percentile(values, 0.01) == 1
    assert percentile([7.5], 0.9) == 7.5


@pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
def test_percentile_rejects_q_outside_unit_interval(q):
    with pytest.raises(ValueError):
        percentile([1, 2, 3], q)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_ten_samples_beyond_p90_needs_a_hundred():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(20, 0.5) == 10
    assert samples_beyond(999, 0.99) == 9


def test_position_medians_drop_one_slow_repetition():
    reps = [[1.0, 2.0, 3.0], [1.2, 2.2, 9.0], [0.9, 50.0, 3.1]]
    assert position_medians(reps) == [1.0, 2.2, 3.1]


def test_position_with_any_bad_outcome_has_no_latency():
    reps = [[1.0, 2.0], [1.0, None], [1.0, 2.0]]
    assert position_medians(reps) == [1.0, None]


def test_rate_and_latency_share_one_time_base():
    from run import _timings

    # wall time reads twice the reference time throughout
    ref = [0.010] * 100 + [0.030] * 20 + [None]
    wall = [None if x is None else 2 * x for x in ref]
    reps = [Rep(ref, wall, 1e-3)] * 3

    def back_to_back(lat):
        return sum(x for x in lat if x is not None)

    r, w = (_timings(reps, base, 0.015, back_to_back) for base in ("ref", "wall"))
    assert r["jobs_per_s"] == pytest.approx(2 * w["jobs_per_s"]) == pytest.approx(75.0)
    assert r["latency_p50_ms"] == pytest.approx(10.0)
    assert w["latency_p90_ms"] == pytest.approx(60.0)
    # the position without a correct result misses the limit
    assert r["slo_met_ratio"] == pytest.approx(100 / 121)
    assert w["slo_met_ratio"] == 0.0


def test_slow_repetitions_are_set_aside_while_enough_remain():
    reps = [Rep([1.0], [1.0], yard) for yard in (1.0, 1.1, 1.7, 1.05, 1.8)]
    assert [r.yard for r in steady_reps(reps, 3)] == [1.0, 1.1, 1.05]
    assert [r.yard for r in steady_reps(reps, 4)] == [1.0, 1.05, 1.1, 1.7]
    # a slowdown in every repetition sets none aside
    slow = [Rep([1.0], [1.0], 2 * r.yard) for r in reps[:2]]
    assert steady_reps(slow, 2) == slow


def test_outcomes_balance_and_failed_ratio():
    out = Outcomes(attempted=10, ok=6, wrong=1, failed=1, rejected=1, cancelled=1)
    assert out.completed == 7
    assert out.balanced()
    assert out.bad == 4
    assert out.failed_ratio == pytest.approx(0.4)
    assert out.as_dict()["completed"] == 7


def test_outcomes_that_lose_a_job_do_not_balance():
    out = Outcomes(attempted=5, ok=3, failed=1)
    assert not out.balanced()
    assert Outcomes().failed_ratio == 0.0
