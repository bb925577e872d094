import numpy as np
import pytest

from fsdm.checks import near_vertex_states, oracle_bank, random_world, stage_observations
from fsdm.hypno import Hypnodensity, Hypnogram, one_hot
from fsdm.oracle import PRIOR, exact_denoiser, exact_smoothed_score
from fsdm.scorekit import (
    ABSENT,
    Features,
    SensorBank,
    fsdm_combine,
    fsdm_denoise,
    fsdm_score,
    tweedie_score,
)


class ConstantDenoiser:
    """Stub denoiser returning a fixed simplex matrix (per conditioning)."""

    def __init__(self, out_cond, out_absent):
        self.out_cond = out_cond
        self.out_absent = out_absent

    def evaluate(self, y_noisy, cond, sigma):
        values = self.out_absent if cond is ABSENT else self.out_cond
        return Hypnodensity(values)

    def evaluate_batch(self, ys, cond, sigma):
        values = self.out_absent if cond is ABSENT else self.out_cond
        return np.broadcast_to(values, ys.shape).copy()


def _simplex(rng, n_epochs=3):
    raw = rng.uniform(0.1, 1.0, (5, n_epochs))
    return raw / raw.sum(axis=0)


def test_tweedie_fixed_point_is_zero():
    y = Hypnodensity(np.full((5, 2), 0.2))
    np.testing.assert_array_equal(tweedie_score(y, y, 0.7), np.zeros((5, 2)))


def test_tweedie_unit_sigma_returns_difference():
    diff = np.array([0.5, -0.5, 0, 0, 0])[:, None]
    y = np.full((5, 1), 0.2)
    out = tweedie_score(y + diff, y, 1.0)
    np.testing.assert_allclose(out, diff)


def test_tweedie_sigma_two_quarters_difference():
    diff = np.array([0.4, -0.4, 0, 0, 0])[:, None]
    y = np.full((5, 1), 0.2)
    out = tweedie_score(y + diff, y, 2.0)
    np.testing.assert_allclose(out, diff / 4)


def test_tweedie_rejects_nonpositive_sigma():
    y = np.full((5, 1), 0.2)
    with pytest.raises(ValueError):
        tweedie_score(y, y, 0.0)


def test_tweedie_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        tweedie_score(np.zeros((5, 2)), np.zeros((5, 3)), 1.0)


def test_sensor_bank_rejects_duplicate_names():
    rng = np.random.default_rng(0)
    d = ConstantDenoiser(_simplex(rng), _simplex(rng))
    with pytest.raises(ValueError):
        SensorBank(d, (("a", d), ("a", d)))


def test_unknown_sensor_name_rejected():
    rng = np.random.default_rng(0)
    d = ConstantDenoiser(_simplex(rng), _simplex(rng))
    bank = SensorBank(d, (("a", d),))
    y = Hypnodensity(_simplex(rng))
    with pytest.raises(KeyError):
        fsdm_denoise(y, 1.0, bank, [("b", ABSENT)])


def test_no_observations_returns_projected_prior():
    rng = np.random.default_rng(1)
    prior_out = _simplex(rng)
    bank = SensorBank(ConstantDenoiser(prior_out, prior_out), ())
    y = Hypnodensity(rng.standard_normal((5, 3)))
    out = fsdm_denoise(y, 1.0, bank, [])
    np.testing.assert_allclose(out.values, prior_out / prior_out.sum(axis=0), atol=1e-15)


def test_n1_identity_with_matched_exact_priors():
    rng = np.random.default_rng(2)
    world = random_world(4, 1, rng)
    bank = oracle_bank(world)
    obs_seq = stage_observations(world, Hypnogram.from_indices([0, 1, 2, 3]))["s0"]
    cond = Features(obs_seq)
    likelihood = exact_denoiser(world, "s0")
    for _ in range(5):
        y = Hypnodensity(rng.standard_normal((5, 4)))
        sigma = float(rng.uniform(0.2, 5.0))
        combined = fsdm_denoise(y, sigma, bank, [("s0", cond)])
        direct = likelihood.evaluate(y, cond, sigma)
        np.testing.assert_allclose(combined.values, direct.values, rtol=0, atol=1e-12)


def test_duplicated_sensor_with_auto_lambda_changes_nothing():
    rng = np.random.default_rng(3)
    world = random_world(3, 1, rng)
    bank = oracle_bank(world)
    cond = Features(np.array([0.0, 3.0, 1.0]))
    y = Hypnodensity(rng.standard_normal((5, 3)))
    single = fsdm_denoise(y, 0.8, bank, [("s0", cond)])
    for k in (2, 4, 8):
        dup = fsdm_denoise(y, 0.8, bank, [("s0", cond)] * k)
        np.testing.assert_allclose(dup.values, single.values, rtol=0, atol=1e-12)


def test_column_sums_preserved_before_projection():
    rng = np.random.default_rng(4)
    bank = SensorBank(
        ConstantDenoiser(_simplex(rng), _simplex(rng)),
        (("a", ConstantDenoiser(_simplex(rng), _simplex(rng))),
         ("b", ConstantDenoiser(_simplex(rng), _simplex(rng)))),
    )
    y = Hypnodensity(rng.standard_normal((5, 3)))
    combined = fsdm_combine(y, 1.3, bank, [("a", ABSENT), ("b", ABSENT)], lam=0.7)
    np.testing.assert_allclose(combined.values.sum(axis=0), 1.0, rtol=0, atol=1e-9)


def test_score_zero_at_combined_fixed_point():
    rng = np.random.default_rng(5)
    out = _simplex(rng)
    bank = SensorBank(ConstantDenoiser(out, out), ())
    score = fsdm_score(Hypnodensity(out), 0.9, bank, [])
    np.testing.assert_allclose(score, 0.0, atol=1e-12)


def test_single_atom_score_closed_form():
    from fsdm.checks import single_atom_world

    h = Hypnogram.from_indices([1, 4, 0])
    bank = oracle_bank(single_atom_world(h))
    rng = np.random.default_rng(6)
    y = Hypnodensity(rng.standard_normal((5, 3)))
    sigma = 0.7
    expected = (one_hot(h).values - y.values) / sigma**2
    np.testing.assert_allclose(fsdm_score(y, sigma, bank, []), expected, atol=1e-10)


def test_factorization_matches_joint_score_at_small_sigma():
    rng = np.random.default_rng(7)
    errors = []
    world = random_world(4, 2, rng)
    h = Hypnogram.from_indices(rng.integers(0, 5, 4))
    obs = stage_observations(world, h)
    bank = oracle_bank(world)
    obs_list = [(name, Features(seq)) for name, seq in obs.items()]
    for y in near_vertex_states(rng, h, 25):
        s_f = fsdm_score(y, 0.01, bank, obs_list, lam=1.0)
        s_j = exact_smoothed_score(world, obs, y, 0.01)
        errors.append(np.linalg.norm(s_f - s_j) / np.linalg.norm(s_j))
    assert np.median(errors) <= 1e-3


def test_absent_is_a_singleton_distinct_from_zero_features():
    zeros = Features(np.zeros((1, 3)))
    assert zeros is not ABSENT
    assert ABSENT is type(ABSENT)()


def test_rejects_nonpositive_sigma():
    rng = np.random.default_rng(8)
    out = _simplex(rng)
    bank = SensorBank(ConstantDenoiser(out, out), ())
    with pytest.raises(ValueError):
        fsdm_denoise(Hypnodensity(out), 0.0, bank, [])
