"""Reference-time scaling from the yardstick probes nearest an interval."""

import pytest

from yardstick import NEAREST, REF_S, Speed


def test_factor_uses_the_nearest_probes():
    speed = Speed()
    # a fast phase (REF_S per probe) then a slow one (twice as long)
    for t in range(10):
        speed.record(float(t), REF_S)
    for t in range(10, 20):
        speed.record(float(t), 2 * REF_S)
    assert speed.factor(2.0, 3.0) == pytest.approx(1.0)
    assert speed.factor(15.0, 16.0) == pytest.approx(0.5)
    # the same 40 ms job reads the same in reference time in either phase
    assert speed.scaled(4.0, 4.04) == pytest.approx(0.04)
    assert speed.scaled(15.0, 15.08) == pytest.approx(0.04)


def test_factor_at_the_edges_and_with_few_probes():
    speed = Speed()
    with pytest.raises(ValueError):
        speed.factor(0.0, 1.0)
    speed.record(5.0, 2 * REF_S)
    assert speed.factor(100.0, 101.0) == pytest.approx(0.5)
    for t in range(NEAREST):
        speed.record(10.0 + t, REF_S)
    assert speed.factor(-50.0, -40.0) == pytest.approx(1.0)  # 1 slow, 4 fast nearest


def test_median_between_uses_the_probes_inside_the_interval():
    speed = Speed()
    for t, d in enumerate((1.0, 3.0, 2.0, 9.0)):
        speed.record(float(t), d)
    assert speed.median_between(0.0, 2.0) == 2.0
    assert speed.median_between(3.0, 3.0) == 9.0
    with pytest.raises(ValueError):
        speed.median_between(3.5, 4.0)


def test_probe_times_the_yardstick():
    speed = Speed()
    speed.probe()
    assert len(speed) == 1
    summary = speed.summary()
    assert summary["probes"] == 1 and summary["min_ms"] > 0
