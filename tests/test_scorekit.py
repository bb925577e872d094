import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdm import oracle
from fsdm.checks import random_world
from fsdm.hypno import Hypnogram, one_hot
from fsdm.neural import ReferenceDenoiser
from fsdm.oracle import (
    PRIOR, CategoricalEmission, MarkovPrior, WorldModel, exact_bank, exact_denoiser,
    world_from_dict, world_to_dict,
)
from fsdm.sampler import SamplerConfig, sample_many
from fsdm.sched import ScheduleParams
from fsdm.scorekit import (
    ABSENT,
    Features,
    SensorBank,
    cosine_distance,
    fsdm_combine_batch,
    fsdm_denoise_batch,
    tweedie_score,
)


class ConstantDenoiser:
    """Stub denoiser returning a fixed simplex matrix (per conditioning)."""

    def __init__(self, out_cond, out_absent):
        self.out_cond = out_cond
        self.out_absent = out_absent

    def evaluate_batch(self, ys, cond, sigma):
        values = self.out_absent if cond is ABSENT else self.out_cond
        return np.broadcast_to(values, ys.shape).copy()


def _simplex(rng, n_epochs=3):
    raw = rng.uniform(0.1, 1.0, (5, n_epochs))
    return raw / raw.sum(axis=0)


def test_tweedie_fixed_point_is_zero():
    y = np.full((3, 5, 2), 0.2)
    np.testing.assert_array_equal(tweedie_score(y, y, 0.7), np.zeros((3, 5, 2)))


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
    with pytest.raises(KeyError):
        fsdm_denoise_batch(_simplex(rng)[None], 1.0, bank, [("b", ABSENT)])


def test_no_observations_returns_projected_prior():
    rng = np.random.default_rng(1)
    prior_out = _simplex(rng)
    bank = SensorBank(ConstantDenoiser(prior_out, prior_out), ())
    out = fsdm_denoise_batch(rng.standard_normal((2, 5, 3)), 1.0, bank, [])
    np.testing.assert_allclose(out, np.broadcast_to(prior_out / prior_out.sum(axis=0), out.shape),
                               atol=1e-15)


def test_column_sums_preserved_before_projection():
    rng = np.random.default_rng(4)
    bank = SensorBank(
        ConstantDenoiser(_simplex(rng), _simplex(rng)),
        (("a", ConstantDenoiser(_simplex(rng), _simplex(rng))),
         ("b", ConstantDenoiser(_simplex(rng), _simplex(rng)))),
    )
    ys = rng.standard_normal((2, 5, 3))
    combined = fsdm_combine_batch(ys, 1.3, bank, [("a", ABSENT), ("b", ABSENT)], lam=0.7)
    np.testing.assert_allclose(combined.sum(axis=1), 1.0, rtol=0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 6),
       batch=st.integers(1, 4), log_sigma=st.floats(np.log(1e-3), np.log(40.0)))
def test_combination_rule_identities_on_random_markov_worlds(seed, n_epochs, batch, log_sigma):
    rng = np.random.default_rng(seed)
    world = random_world(n_epochs, 2, rng)
    bank = exact_bank(world)
    conds = [Features(rng.integers(0, 5, n_epochs).astype(float)) for _ in range(2)]
    ys = rng.standard_normal((batch, 5, n_epochs))
    sigma = float(np.exp(log_sigma))
    s0 = [("s0", conds[0])]
    # N = 1 with λ = 1/N: the combined estimate is the sensor's own denoiser.
    single = fsdm_denoise_batch(ys, sigma, bank, s0)
    direct = exact_denoiser(world, "s0").evaluate_batch(ys, conds[0], sigma)
    assert np.abs(single - direct).max() <= 1e-12
    for k in (2, 3, 8):
        dup = fsdm_denoise_batch(ys, sigma, bank, s0 * k)
        assert np.abs(dup - single).max() <= 1e-12
    both = [("s0", conds[0]), ("s1", conds[1])]
    for lam in (None, 1.0):
        combined = fsdm_combine_batch(ys, sigma, bank, both, lam=lam)
        assert np.abs(combined.sum(axis=1) - 1.0).max() <= 1e-9


def test_score_zero_at_combined_fixed_point():
    rng = np.random.default_rng(5)
    out = _simplex(rng)
    bank = SensorBank(ConstantDenoiser(out, out), ())
    ys = out[None]
    score = tweedie_score(fsdm_denoise_batch(ys, 0.9, bank, []), ys, 0.9)
    np.testing.assert_allclose(score, 0.0, atol=1e-12)


def test_single_atom_score_closed_form():
    from fsdm.checks import single_atom_world

    h = Hypnogram.from_indices([1, 4, 0])
    bank = exact_bank(single_atom_world(h))
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((2, 5, 3))
    sigma = 0.7
    expected = (one_hot(h).values - ys) / sigma**2
    score = tweedie_score(fsdm_denoise_batch(ys, sigma, bank, []), ys, sigma)
    np.testing.assert_allclose(score, expected, atol=1e-10)


def test_absent_is_a_singleton_distinct_from_zero_features():
    zeros = Features(np.zeros((1, 3)))
    assert zeros is not ABSENT
    assert ABSENT is type(ABSENT)()


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_features_reject_infinite_values(bad):
    values = np.array([[0.5, np.nan, 1.0]])
    assert np.isnan(Features(values).values[0, 1])  # NaN marks a missing epoch
    values[0, 2] = bad
    with pytest.raises(ValueError, match="infinite value .NaN marks a missing epoch"):
        Features(values)


def test_rejects_nonpositive_sigma():
    rng = np.random.default_rng(8)
    out = _simplex(rng)
    bank = SensorBank(ConstantDenoiser(out, out), ())
    with pytest.raises(ValueError):
        fsdm_denoise_batch(out[None], 0.0, bank, [])


# -- bank-level evaluation ----------------------------------------------------


def _separate_terms(bank, ys, sigma, obs):
    """The combination rule's N+1 terms as separate evaluate_batch calls."""
    prior = bank.global_prior.evaluate_batch(ys, ABSENT, sigma)
    return prior, [bank.get(name).evaluate_batch(ys, cond, sigma) for name, cond in obs]


def _assert_bank_matches_separate_calls(bank, ys, sigma, obs, lam):
    prior, liks = bank.evaluate(ys, sigma, obs)
    liks = list(liks)
    want_prior, want_liks = _separate_terms(bank, ys, sigma, obs)
    assert np.array_equal(prior, want_prior)
    assert len(liks) == len(want_liks)
    for lik, want_lik in zip(liks, want_liks):
        assert np.array_equal(lik, want_lik)
    gains = {name: np.zeros((ys.shape[0], ys.shape[2])) for name, _ in obs}
    combined = fsdm_combine_batch(ys, sigma, bank, obs, lam=lam, gains=gains)
    want = want_prior
    for lik in want_liks:
        want = want + lam * (lik - want_prior)
    assert np.array_equal(combined, want)
    # Each sensor's sum holds its first observation's distance from the prior.
    names = [name for name, _ in obs]
    assert list(gains) == list(dict.fromkeys(names))
    for name, sums in gains.items():
        want_lik = want_liks[names.index(name)]
        assert np.array_equal(sums, cosine_distance(want_lik, want_prior))


@pytest.mark.parametrize("n_epochs, markov", [(5, True), (240, True), (6, False)])
def test_exact_bank_evaluation_equals_separate_calls(n_epochs, markov):
    rng = np.random.default_rng(n_epochs)
    bank = exact_bank(random_world(n_epochs, 2, rng, markov=markov))
    seq = rng.integers(0, 5, n_epochs).astype(float)
    seq[::3] = np.nan
    obs = [("s0", Features(seq)), ("s1", ABSENT),
           ("s1", Features(rng.integers(0, 5, n_epochs).astype(float)))]
    ys = rng.standard_normal((3, 5, n_epochs))
    for sigma in (1e-3, 0.7, 30.0):
        _assert_bank_matches_separate_calls(bank, ys, sigma, obs, lam=0.3)


def _count_markov_calls(monkeypatch):
    calls = []
    kernel = oracle.markov_marginals

    def counted(log_init, log_trans, a):
        calls.append(a.shape[0])
        return kernel(log_init, log_trans, a)

    monkeypatch.setattr(oracle, "markov_marginals", counted)
    return calls


def test_mixed_bank_evaluation_equals_separate_calls(monkeypatch):
    rng = np.random.default_rng(11)
    world = random_world(4, 1, rng)
    net = ReferenceDenoiser.init(1, rng)
    bank = SensorBank(exact_denoiser(world, PRIOR),
                      (("s0", exact_denoiser(world, "s0")), ("net", net)))
    x = rng.standard_normal((1, 4))
    x[0, 2] = np.nan
    obs = [("s0", Features(np.array([0.0, 2.0, np.nan, 4.0]))), ("net", Features(x))]
    ys = rng.standard_normal((3, 5, 4))
    # The general path: one kernel call for the prior, one for the exact sensor.
    calls = _count_markov_calls(monkeypatch)
    list(bank.evaluate(ys, 0.8, obs)[1])
    assert calls == [3] * 2
    _assert_bank_matches_separate_calls(bank, ys, 0.8, obs, lam=1.0)


def test_exact_two_sensor_denoise_makes_one_kernel_call(monkeypatch):
    rng = np.random.default_rng(12)
    world = random_world(5, 2, rng)
    obs = [(name, Features(rng.integers(0, 5, 5).astype(float))) for name in ("s0", "s1")]
    ys = rng.standard_normal((4, 5, 5))
    calls = _count_markov_calls(monkeypatch)
    # Sharing the prior is a property of the denoisers, not of the world
    # object: a sensor over an equal copy of the world stacks too.
    copy = world_from_dict(world_to_dict(world))
    for bank in (exact_bank(world),
                 SensorBank(exact_denoiser(world, PRIOR),
                            (("s0", exact_denoiser(copy, "s0")), ("s1", exact_denoiser(world, "s1"))))):
        calls.clear()
        fsdm_denoise_batch(ys, 0.7, bank, obs)
        assert calls == [3 * 4]
    # A sensor over another prior takes the general path: one call for
    # the prior and one per sensor.
    other = WorldModel(5, random_world(5, 0, rng).prior, world.sensors)
    bank = SensorBank(exact_denoiser(world, PRIOR),
                      (("s0", exact_denoiser(other, "s0")), ("s1", exact_denoiser(world, "s1"))))
    calls.clear()
    list(bank.evaluate(ys, 0.7, obs)[1])
    assert calls == [4] * 3
    _assert_bank_matches_separate_calls(bank, ys, 0.7, obs, lam=0.5)


def test_neural_denoise_makes_one_prior_pass_per_sample(monkeypatch):
    rng = np.random.default_rng(14)
    n_batch, n_epochs = 4, 6
    prior_net = ReferenceDenoiser.init(0, rng)
    bank = SensorBank(prior_net, tuple((name, ReferenceDenoiser.init(1, rng)) for name in "ab"))
    obs = [(name, Features(rng.standard_normal((1, n_epochs)))) for name in "ab"]
    ys = rng.standard_normal((n_batch, 5, n_epochs))
    passes = []
    network = ReferenceDenoiser._network

    def counted(net, *args):
        passes.append(net)
        return network(net, *args)

    monkeypatch.setattr(ReferenceDenoiser, "_network", counted)
    fsdm_denoise_batch(ys, 0.8, bank, obs)
    # One prior pass and one conditioned pass per sensor, for each sample.
    assert len(passes) == 3 * n_batch
    assert [passes.count(net) for net in (prior_net, bank.get("a"), bank.get("b"))] == [n_batch] * 3
    _assert_bank_matches_separate_calls(bank, ys, 0.8, obs, lam=0.7)


class _LiveOutputs(ConstantDenoiser):
    """A ConstantDenoiser that records, at each call, how many of the
    arrays it returned before are still alive."""

    def __init__(self, out_cond, out_absent):
        super().__init__(out_cond, out_absent)
        self.returned = []  # weak references to every array returned
        self.live = []

    def evaluate_batch(self, ys, cond, sigma):
        self.live.append(sum(ref() is not None for ref in self.returned))
        out = super().evaluate_batch(ys, cond, sigma)
        self.returned.append(weakref.ref(out))
        return out


def test_gain_sums_hold_one_likelihood_at_a_time():
    # Outside a stacked bank, a denoise that keeps gain sums frees each
    # likelihood before it evaluates the next: at each sensor call only
    # the prior's estimate is alive, in the combination and in the sampler.
    rng = np.random.default_rng(15)
    d = _LiveOutputs(_simplex(rng), _simplex(rng))
    bank = SensorBank(d, tuple((name, d) for name in "abc"))
    obs = [(name, Features(np.zeros(3))) for name in "abca"]
    gains = {name: np.zeros((2, 3)) for name in "abc"}
    fsdm_denoise_batch(rng.standard_normal((2, 5, 3)), 0.5, bank, obs, gains=gains)
    assert d.live == [0, 1, 1, 1, 1]
    assert all(np.all(sums > 0) for sums in gains.values())
    d.live.clear()
    cfg = SamplerConfig(ScheduleParams(M=3), n_samples=2, record_trajectory=True)
    batch = sample_many(bank, obs, cfg, 3)
    assert d.live == [0, 1, 1, 1, 1] * 3  # one denoise in each of the 3 steps
    assert sorted(batch.gains[0]) == ["a", "b", "c"]


def test_zero_probability_observation_raises_from_the_bank():
    world = WorldModel(3, MarkovPrior(np.full(5, 0.2), np.eye(5)),
                       (("det", CategoricalEmission(np.eye(5))),))
    bank = exact_bank(world)
    ys = np.random.default_rng(13).standard_normal((2, 5, 3))
    with pytest.raises(ValueError, match="^conditioning has zero probability under this world$"):
        fsdm_combine_batch(ys, 0.5, bank, [("det", Features(np.array([0.0, 1.0, 0.0])))])
