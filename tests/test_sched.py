import numpy as np
import pytest

from fsdm.checks import random_world
from fsdm.oracle import exact_bank
from fsdm.sampler import SamplerConfig, sample_many
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import Features

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


@pytest.mark.parametrize("field, value", [
    ("sigma_min", 1e-170), ("sigma_min", 1e-300), ("sigma_max", 1e200),
])
def test_sigma_whose_square_is_not_normal_rejected(field, value):
    # σ² underflows below ~1.5e-154 and overflows above ~1.3e154; the
    # denoisers divide by it.
    with pytest.raises(ValueError, match=f"^{field}="):
        ScheduleParams(**{field: value})


@pytest.mark.parametrize("kwargs", [{"sigma_min": 1e-12}, {"sigma_max": 1e150}])
def test_extreme_normal_sigmas_still_sample(kwargs):
    rng = np.random.default_rng(4)
    bank = exact_bank(random_world(3, 1, rng))
    cfg = SamplerConfig(schedule=ScheduleParams(M=8, **kwargs), n_samples=2)
    obs = [("s0", Features(np.array([0.0, 2.0, 4.0])))]
    states = sample_many(bank, obs, cfg, 3).states
    assert np.all(states >= 0)
    np.testing.assert_allclose(states.sum(axis=1), 1.0, rtol=0, atol=1e-12)
