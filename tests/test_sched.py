import numpy as np
import pytest

from fsdm.sched import ScheduleParams, time_steps

# Closed-form interpolant at m=16 with default parameters, evaluated
# independently at 40-digit precision and rounded to double.
T16_DEFAULTS = 0.7408230048763242


def test_default_grid_endpoints_exact():
    ts = time_steps(ScheduleParams())
    assert ts.shape == (33,)
    assert ts[0] == 40.0
    assert ts[31] == 0.0001
    assert ts[32] == 0.0


def test_default_grid_interior_value():
    ts = time_steps(ScheduleParams())
    assert abs(ts[16] - T16_DEFAULTS) <= 1e-12 * T16_DEFAULTS


def test_linear_case_rho_one():
    ts = time_steps(ScheduleParams(sigma_min=1.0, sigma_max=2.0, rho=1.0, M=2))
    np.testing.assert_allclose(ts, [2.0, 1.0, 0.0], rtol=0, atol=0)


def test_strictly_decreasing():
    for params in (ScheduleParams(), ScheduleParams(sigma_min=0.01, sigma_max=5, rho=3, M=7)):
        ts = time_steps(params)
        assert np.all(np.diff(ts) < 0)


@pytest.mark.parametrize("kwargs", [
    {"sigma_min": 0.0},
    {"sigma_min": 2.0, "sigma_max": 1.0},
    {"rho": 0.0},
    {"M": 1},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ScheduleParams(**kwargs)
