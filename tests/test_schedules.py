import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cminverse.schedules import NoiseSchedule, make_karras_schedule


def test_default_endpoints_pinned_exactly():
    sched = make_karras_schedule(18)
    assert sched.levels[0] == 80.0
    assert sched.levels[-1] == 0.002


def test_interior_levels_match_direct_formula():
    # Frozen from an independent evaluation of
    # (t_max^(1/rho) + i/(n-1) * (t_min^(1/rho) - t_max^(1/rho)))^rho.
    sched = make_karras_schedule(18, 0.002, 80.0, 7.0)
    assert sched.levels[1] == pytest.approx(57.58598472124816, rel=1e-12)
    assert sched.levels[16] == pytest.approx(0.0075280199627840785, rel=1e-12)
    other = make_karras_schedule(5, 0.01, 10.0, 7.0)
    assert other.levels[2] == pytest.approx(0.7177132302454148, rel=1e-12)


def test_strictly_decreasing():
    sched = make_karras_schedule(40)
    assert np.all(np.diff(sched.levels) < 0.0)


def test_two_level_schedule_is_just_endpoints():
    sched = make_karras_schedule(2, 0.01, 10.0)
    assert list(sched.levels) == [10.0, 0.01]


@given(
    n=st.integers(2, 64),
    rho=st.floats(0.5, 10.0),
    t_min=st.floats(1e-3, 0.5),
    span=st.floats(1.0, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_levels_stay_in_range_and_decrease(n, rho, t_min, span):
    t_max = t_min + span
    sched = make_karras_schedule(n, t_min, t_max, rho)
    assert sched.levels[0] == t_max and sched.levels[-1] == t_min
    assert np.all(np.diff(sched.levels) < 0.0)
    assert np.all((sched.levels >= t_min) & (sched.levels <= t_max))


def test_custom_schedule_validation():
    NoiseSchedule(levels=np.array([5.0, 1.0, 0.05]), t_min=0.05, t_max=5.0)
    with pytest.raises(ValueError):
        NoiseSchedule(levels=np.array([1.0, 1.0]), t_min=0.1, t_max=2.0)
    with pytest.raises(ValueError):
        NoiseSchedule(levels=np.array([1.0]), t_min=0.1, t_max=2.0)
    with pytest.raises(ValueError):
        NoiseSchedule(levels=np.array([3.0, 0.01]), t_min=0.1, t_max=2.0)


def test_make_karras_rejects_bad_params():
    with pytest.raises(ValueError):
        make_karras_schedule(1)
    with pytest.raises(ValueError):
        make_karras_schedule(4, t_min=2.0, t_max=1.0)
    with pytest.raises(ValueError):
        make_karras_schedule(4, rho=0.0)
