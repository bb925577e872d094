import json
import math

import numpy as np
import pytest

from fsdm import oracle, sampler
from fsdm.checks import (
    explicit_twin,
    informative_emission,
    persistent_markov,
    posterior_marginals,
    random_world,
    single_atom_world,
    sparse_markov,
)
from fsdm.hypno import Hypnodensity, Hypnogram, one_hot
from fsdm.oracle import (
    PRIOR,
    CategoricalEmission,
    ExplicitPrior,
    GaussianEmission,
    MarkovPrior,
    WorldModel,
    enumerate_posterior,
    exact_bank,
    exact_denoiser,
    exact_smoothed_score,
    hypnogram_table,
    log_prior_table,
    world_from_dict,
    world_to_dict,
)
from fsdm.sampler import SamplerConfig, sample_many
from fsdm.sched import ScheduleParams
from fsdm.scorekit import ABSENT, Features, tweedie_score


def _log_smoothed_density(world, obs, y, sigma):
    """Independent oracle: log Σ_h p(h|obs)·N(y; onehot(h), σ²I).

    Brute force over the hypnogram table, written without reusing the
    production mixture code path.
    """
    post = enumerate_posterior(world, obs) if obs else None
    if post is None:
        post = enumerate_posterior(world, {})
    ht = hypnogram_table(world.n_epochs)
    terms = []
    for idx in range(ht.shape[0]):
        if post[idx] == 0.0:
            continue
        onehot = np.zeros((5, world.n_epochs))
        onehot[ht[idx], np.arange(world.n_epochs)] = 1.0
        sq = float(((y - onehot) ** 2).sum())
        terms.append(math.log(post[idx]) - sq / (2 * sigma**2))
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _smoothed_marginals(post, y, sigma):
    """Per-epoch marginals (5×E) of the σ-smoothed posterior at y, from
    an enumerated posterior table, row by row."""
    n_epochs = y.shape[1]
    ht = hypnogram_table(n_epochs)
    with np.errstate(divide="ignore"):
        log_w = np.log(post)
    for idx in range(ht.shape[0]):
        onehot = np.zeros((5, n_epochs))
        onehot[ht[idx], np.arange(n_epochs)] = 1.0
        log_w[idx] -= float(((y - onehot) ** 2).sum()) / (2 * sigma**2)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return np.stack([np.bincount(ht[:, e], weights=w, minlength=5) for e in range(n_epochs)],
                    axis=1)


def _fd_score(world, obs, y, sigma, step=1e-4):
    out = np.zeros_like(y)
    for i in range(y.shape[0]):
        for e in range(y.shape[1]):
            hi = y.copy()
            hi[i, e] += step
            lo = y.copy()
            lo[i, e] -= step
            out[i, e] = (
                _log_smoothed_density(world, obs, hi, sigma)
                - _log_smoothed_density(world, obs, lo, sigma)
            ) / (2 * step)
    return out


def test_enumerate_posterior_no_evidence_equals_prior():
    rng = np.random.default_rng(0)
    world = random_world(3, 1, rng, markov=False)
    post = enumerate_posterior(world, {})
    np.testing.assert_allclose(post, world.prior.table, atol=1e-12)


def test_enumerate_posterior_deterministic_emission_point_mass():
    table = np.eye(5)
    world = WorldModel(
        3, ExplicitPrior(np.full(125, 1 / 125)), (("s", CategoricalEmission(table)),)
    )
    h = Hypnogram.from_indices([2, 0, 4])
    post = enumerate_posterior(world, {"s": h.to_indices().astype(float)})
    ht = hypnogram_table(3)
    idx = int(np.flatnonzero((ht == h.to_indices()).all(axis=1))[0])
    assert post[idx] == pytest.approx(1.0, abs=1e-12)
    assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_enumerate_posterior_gaussian_hand_fixture():
    # E=2, uniform prior, Gaussian sensor with means 0..4 and unit sd:
    # the posterior factorizes per epoch; computed here from first
    # principles with math.exp only.
    world = WorldModel(
        2,
        ExplicitPrior(np.full(25, 1 / 25)),
        (("g", GaussianEmission(np.arange(5.0), np.ones(5))),),
    )
    obs = np.array([0.5, 3.2])
    post = enumerate_posterior(world, {"g": obs})

    def stage_posterior(x):
        w = [math.exp(-0.5 * (x - m) ** 2) for m in range(5)]
        total = sum(w)
        return [v / total for v in w]

    expected = np.outer(stage_posterior(0.5), stage_posterior(3.2)).ravel()
    np.testing.assert_allclose(post, expected, rtol=0, atol=1e-9)


def test_enumeration_cap_enforced():
    prior = MarkovPrior(np.full(5, 0.2), np.full((5, 5), 0.2))
    world = WorldModel(9, prior, ())
    message = r"^n_epochs=9 too large for enumeration \(cap 8\)$"
    for build in (lambda: enumerate_posterior(world, {}), lambda: hypnogram_table(9),
                  lambda: WorldModel(9, ExplicitPrior(np.array([1.0])), ())):
        with pytest.raises(ValueError, match=message):
            build()


def test_obs_for_unknown_sensor_rejected():
    rng = np.random.default_rng(1)
    world = random_world(3, 1, rng)
    with pytest.raises(KeyError):
        enumerate_posterior(world, {"nope": np.zeros(3)})


def test_markov_log_prior_matches_direct_product():
    rng = np.random.default_rng(2)
    init = rng.dirichlet(np.ones(5))
    trans = rng.dirichlet(np.ones(5), size=5)
    world = WorldModel(3, MarkovPrior(init, trans), ())
    lp = log_prior_table(world)
    ht = hypnogram_table(3)
    for idx in (0, 17, 88, 124):
        h = ht[idx]
        expected = math.log(init[h[0]]) + math.log(trans[h[0], h[1]]) + math.log(trans[h[1], h[2]])
        assert lp[idx] == pytest.approx(expected, rel=1e-12)


def test_single_atom_denoiser_constant():
    h = Hypnogram.from_indices([3, 1])
    denoiser = exact_denoiser(single_atom_world(h), PRIOR)
    rng = np.random.default_rng(3)
    target = one_hot(h).values
    for sigma in (0.01, 1.0, 40.0):
        ys = rng.standard_normal((1, 5, 2)) * sigma
        np.testing.assert_array_equal(denoiser.evaluate_batch(ys, ABSENT, sigma)[0], target)


def test_large_sigma_flattens_to_prior_marginals():
    rng = np.random.default_rng(4)
    world = random_world(3, 0, rng, markov=False)
    denoiser = exact_denoiser(world, PRIOR)
    post = enumerate_posterior(world, {})
    marginals = posterior_marginals(world, post)
    out = denoiser.evaluate_batch(rng.standard_normal((1, 5, 3)), ABSENT, 1e6)[0]
    np.testing.assert_allclose(out, marginals, rtol=0, atol=1e-6)


def test_denoiser_score_matches_finite_differences():
    rng = np.random.default_rng(5)
    world = random_world(3, 1, rng, base=0.7, markov=False)
    denoiser = exact_denoiser(world, "s0")
    obs = {"s0": np.array([0.0, 2.0, 4.0])}
    sigma = 0.5
    y = rng.standard_normal((5, 3)) * 0.5
    denoised = denoiser.evaluate_batch(y[None], Features(obs["s0"]), sigma)[0]
    analytic = (denoised - y) / sigma**2
    numeric = _fd_score(world, obs, y, sigma)
    np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-5)


def test_exact_smoothed_score_single_atom_closed_form():
    h = Hypnogram.from_indices([2, 2, 0])
    world = single_atom_world(h)
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((2, 5, 3))
    sigma = 0.8
    score = exact_smoothed_score(world, {}, ys, sigma)
    np.testing.assert_allclose(score, (one_hot(h).values - ys) / sigma**2, atol=1e-10)


def test_exact_smoothed_score_matches_finite_differences():
    rng = np.random.default_rng(7)
    world = random_world(2, 1, rng, base=0.7, markov=False)
    obs = {"s0": np.array([1.0, 3.0])}
    y = rng.standard_normal((5, 2)) * 0.4
    sigma = 0.6
    score = exact_smoothed_score(world, obs, y[None], sigma)[0]
    np.testing.assert_allclose(score, _fd_score(world, obs, y, sigma), rtol=0, atol=1e-5)


def test_no_obs_score_equals_prior_denoiser_score():
    rng = np.random.default_rng(8)
    world = random_world(3, 1, rng)
    ys = rng.standard_normal((2, 5, 3))
    sigma = 1.1
    prior_out = exact_denoiser(world, PRIOR).evaluate_batch(ys, ABSENT, sigma)
    np.testing.assert_allclose(
        exact_smoothed_score(world, {}, ys, sigma),
        tweedie_score(prior_out, ys, sigma),
        atol=1e-12,
    )


def test_denoiser_columns_are_smoothed_posterior_marginals():
    # The conditional mean of one-hot vertices is the per-epoch marginal
    # of the σ-smoothed posterior; verify by marginalizing row by row.
    rng = np.random.default_rng(9)
    world = random_world(4, 1, rng, base=0.8, markov=False)
    obs = {"s0": np.array([0.0, 1.0, 2.0, 3.0])}
    sigma = 0.9
    y = rng.standard_normal((5, 4)) * 0.3
    denoised = exact_denoiser(world, "s0").evaluate_batch(y[None], Features(obs["s0"]), sigma)[0]
    expected = _smoothed_marginals(enumerate_posterior(world, obs), y, sigma)
    np.testing.assert_allclose(denoised, expected, rtol=0, atol=1e-10)


def test_smoothed_score_of_several_sensors_is_brute_force_posterior_score():
    # Two of three sensors observed, named out of world order.  The
    # posterior is built here hypnogram by hypnogram from the prior and
    # emission tables, without the oracle's likelihood sum.
    rng = np.random.default_rng(18)
    world = random_world(4, 3, rng, base=0.7, markov=False)
    obs = {"s2": np.array([4.0, 4.0, 1.0, 0.0]), "s0": np.array([3.0, 1.0, 1.0, 2.0])}
    post = world.prior.table.copy()
    for h_idx, h in enumerate(hypnogram_table(4)):
        for name, seq in obs.items():
            post[h_idx] *= np.prod(world.emission(name).table[h, seq.astype(int)])
    post /= post.sum()
    sigma = 0.7
    ys = rng.standard_normal((3, 5, 4)) * 0.4
    expected = np.stack([(_smoothed_marginals(post, y, sigma) - y) / sigma**2 for y in ys])
    score = exact_smoothed_score(world, obs, ys, sigma)
    np.testing.assert_allclose(score, expected, rtol=0, atol=1e-8)
    in_world_order = {name: obs[name] for name in world.sensor_names() if name in obs}
    assert list(in_world_order) != list(obs)
    assert exact_smoothed_score(world, in_world_order, ys, sigma).tobytes() == score.tobytes()


def test_denoiser_output_on_simplex():
    rng = np.random.default_rng(10)
    world = random_world(3, 2, rng)
    denoiser = exact_denoiser(world, "s1")
    ys = rng.standard_normal((1, 5, 3)) * 3
    out = Hypnodensity(denoiser.evaluate_batch(ys, Features(np.array([4.0, 0.0, 2.0])), 0.7)[0])
    np.testing.assert_allclose(out.values.sum(axis=0), 1.0, rtol=0, atol=1e-9)
    assert np.all(out.values >= 0)


def test_unknown_target_rejected():
    rng = np.random.default_rng(11)
    world = random_world(2, 1, rng)
    with pytest.raises(KeyError):
        exact_denoiser(world, "missing")


def test_partial_joint_conditioning_uses_subset():
    # One of two sensors observed: the posterior score is that sensor's
    # own denoiser's score.
    rng = np.random.default_rng(12)
    world = random_world(3, 2, rng)
    obs = {"s1": np.array([1.0, 1.0, 0.0])}
    ys = rng.standard_normal((1, 5, 3))
    via_sensor = exact_denoiser(world, "s1").evaluate_batch(ys, Features(obs["s1"]), 0.8)
    np.testing.assert_allclose(exact_smoothed_score(world, obs, ys, 0.8),
                               tweedie_score(via_sensor, ys, 0.8), rtol=0, atol=1e-12)


def test_world_json_round_trip():
    rng = np.random.default_rng(13)
    world = WorldModel(
        3,
        MarkovPrior(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5), size=5)),
        (
            ("cat", CategoricalEmission(rng.dirichlet(np.ones(4), size=5))),
            ("gauss", GaussianEmission(rng.normal(0, 1, 5), rng.uniform(0.5, 2, 5))),
        ),
    )
    loaded = world_from_dict(json.loads(json.dumps(world_to_dict(world))))
    assert loaded.n_epochs == world.n_epochs
    assert loaded.sensor_names() == world.sensor_names()
    np.testing.assert_allclose(loaded.prior.initial, world.prior.initial)
    np.testing.assert_allclose(loaded.emission("cat").table, world.emission("cat").table)
    np.testing.assert_allclose(loaded.emission("gauss").means, world.emission("gauss").means)
    assert world_to_dict(world_from_dict(world_to_dict(world))) == world_to_dict(world)


_JSON_SENSORS = (
    ("cat", CategoricalEmission(np.array([[0.75, 0.25]] * 4 + [[0.5, 0.5]]))),
    ("gauss", GaussianEmission(np.arange(5.0), np.array([1.0, 0.5, 0.5, 2.0, 1.0]))),
)
_JSON_SENSORS_TEXT = (
    '"sensors": [{"emission": {"table": [[0.75, 0.25], [0.75, 0.25], [0.75, 0.25], '
    '[0.75, 0.25], [0.5, 0.5]], "type": "categorical"}, "name": "cat"}, '
    '{"emission": {"means": [0.0, 1.0, 2.0, 3.0, 4.0], "sds": [1.0, 0.5, 0.5, 2.0, 1.0], '
    '"type": "gaussian"}, "name": "gauss"}]}'
)


@pytest.mark.parametrize("world, text", [
    (WorldModel(2, MarkovPrior(np.array([0.5, 0.2, 0.1, 0.1, 0.1]),
                               np.full((5, 5), 0.1) + 0.5 * np.eye(5)), _JSON_SENSORS),
     '{"n_epochs": 2, "prior": {"initial": [0.5, 0.2, 0.1, 0.1, 0.1], "transition": '
     '[[0.6, 0.1, 0.1, 0.1, 0.1], [0.1, 0.6, 0.1, 0.1, 0.1], [0.1, 0.1, 0.6, 0.1, 0.1], '
     '[0.1, 0.1, 0.1, 0.6, 0.1], [0.1, 0.1, 0.1, 0.1, 0.6]], "type": "markov"}, '),
    (WorldModel(1, ExplicitPrior(np.array([0.5, 0.125, 0.125, 0.125, 0.125])), _JSON_SENSORS),
     '{"n_epochs": 1, "prior": {"table": [0.5, 0.125, 0.125, 0.125, 0.125], '
     '"type": "explicit"}, '),
], ids=["markov", "explicit"])
def test_world_json_text_is_fixed_and_round_trips(world, text):
    # Benchmark input digests hash this text, so it must not change.
    dumped = json.dumps(world_to_dict(world), sort_keys=True)
    assert dumped == text + _JSON_SENSORS_TEXT
    loaded = world_from_dict(json.loads(dumped))
    assert type(loaded.prior) is type(world.prior) and loaded.n_epochs == world.n_epochs
    assert json.dumps(world_to_dict(loaded), sort_keys=True) == dumped


@pytest.mark.parametrize("prior, emission, message", [
    ({"type": "nosuch"}, None, "unknown prior type 'nosuch'"),
    ({"type": "categorical", "table": [[1.0]] * 5}, None, "unknown prior type 'categorical'"),
    (None, {"type": "nosuch"}, "unknown emission type 'nosuch'"),
    (None, {"type": "markov"}, "unknown emission type 'markov'"),
])
def test_world_json_unknown_type_tags_are_named(prior, emission, message):
    d = {"n_epochs": 1, "prior": prior or {"type": "explicit", "table": [0.2] * 5}}
    if emission is not None:
        d["sensors"] = [{"name": "x", "emission": emission}]
    with pytest.raises(ValueError, match=f"^{message}$"):
        world_from_dict(d)


def test_probability_validation():
    with pytest.raises(ValueError):
        ExplicitPrior(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        CategoricalEmission(np.full((5, 3), 0.2))
    with pytest.raises(ValueError):
        GaussianEmission(np.zeros(5), np.zeros(5))


def test_markov_denoiser_batched_equals_one_at_a_time_bitwise():
    rng = np.random.default_rng(15)
    world = WorldModel(12, sparse_markov(rng), (("s0", informative_emission(rng, 0.8)),))
    denoiser = exact_denoiser(world, "s0")
    cond = Features(rng.integers(0, 5, 12).astype(float))
    ys = rng.standard_normal((6, 5, 12)) * 2
    for sigma in (1e-3, 0.7, 30.0):
        batch = denoiser.evaluate_batch(ys, cond, sigma)
        for b in range(ys.shape[0]):
            assert np.array_equal(batch[b], denoiser.evaluate_batch(ys[b:b + 1], cond, sigma)[0])


@pytest.mark.parametrize("markov", [True, False])
def test_zero_probability_conditioning_raises(markov):
    rng = np.random.default_rng(16)
    prior = sparse_markov(rng)
    world = WorldModel(3, prior, (("det", CategoricalEmission(np.eye(5))),))
    if not markov:
        world = explicit_twin(world)
    forbidden = float(np.argmin(prior.initial))
    ys = rng.standard_normal((1, 5, 3))
    with pytest.raises(ValueError, match="zero probability"):
        exact_denoiser(world, "det").evaluate_batch(ys, Features(np.array([forbidden, 0.0, 0.0])), 0.5)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("sigma_min", [1e-120, 1e-150])
def test_sigma_too_small_for_the_kernel_is_named(sigma_min):
    # ys / σ² overflows for a state entry of 1e100; the conditioning is
    # possible.
    rng = np.random.default_rng(5)
    world = WorldModel(6, persistent_markov(rng), (("pulse", informative_emission(rng)),))
    cond = Features(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 0.0]))
    ys = np.full((1, 5, 6), 0.2)
    ys[0, 0, 0] = 1e100
    message = (f"^noise level sigma={sigma_min!r} is too small for the exact kernel: "
               r"ys / sigma\^2 overflows$")
    with pytest.raises(ValueError, match=message):
        exact_denoiser(world, "pulse").evaluate_batch(ys, cond, sigma_min)
    # The sampler's states stay bounded down to σ_min, so a run on that
    # grid returns samples on the simplex.
    cfg = SamplerConfig(schedule=ScheduleParams(M=32, sigma_min=sigma_min), n_samples=2)
    states = sample_many(exact_bank(world), [("pulse", cond)], cfg, world.n_epochs).states
    assert states.shape == (2, 5, 6)
    assert np.all(states >= 0)
    np.testing.assert_allclose(states.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_markov_denoiser_whole_night_without_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration table built")

    monkeypatch.setattr(oracle, "hypnogram_table", refuse)
    monkeypatch.setattr(oracle, "log_prior_table", refuse)
    rng = np.random.default_rng(17)
    world = WorldModel(960, persistent_markov(rng, 0.9), (("s0", informative_emission(rng)),))
    denoiser = exact_denoiser(world, "s0")
    cond = Features(rng.integers(0, 5, 960).astype(float))
    for sigma in (1e-4, 1.0, 40.0):
        out = denoiser.evaluate_batch(rng.standard_normal((4, 5, 960)), cond, sigma)
        assert out.shape == (4, 5, 960)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# -- each conditioning's terms, computed once -------------------------------


def _counted_emission_loglik(monkeypatch):
    """Patch oracle.emission_loglik to record its calls; returns the list
    of observations it was called with."""
    calls = []
    original = oracle.emission_loglik

    def counted(em, obs):
        calls.append(obs)
        return original(em, obs)

    monkeypatch.setattr(oracle, "emission_loglik", counted)
    return calls


def _memo_world(n_epochs, seed):
    rng = np.random.default_rng(seed)
    sensors = tuple((f"s{i}", informative_emission(rng, 0.8)) for i in range(2))
    world = WorldModel(n_epochs, persistent_markov(rng, 0.7), sensors)
    obs = [(name, Features(rng.integers(0, 5, n_epochs).astype(float))) for name, _ in sensors]
    return rng, world, obs


def test_sample_many_computes_each_observations_terms_once(monkeypatch):
    calls = _counted_emission_loglik(monkeypatch)
    _, world, obs = _memo_world(n_epochs=6, seed=40)
    cfg = SamplerConfig(schedule=ScheduleParams(M=8), n_samples=4)
    sample_many(exact_bank(world), obs, cfg, world.n_epochs)
    # N observations, not N·M: one per observation for all denoises.
    assert len(calls) == len(obs)


def test_terms_follow_the_conditioning_across_calls(monkeypatch):
    calls = _counted_emission_loglik(monkeypatch)
    rng, world, obs = _memo_world(n_epochs=5, seed=41)
    a, b = obs[0][1], Features(rng.integers(0, 5, 5).astype(float))
    ys = rng.standard_normal((3, 5, 5))
    want = {id(c): exact_denoiser(world, "s0").evaluate_batch(ys, c, 0.4) for c in (a, b)}
    calls.clear()
    denoiser = exact_denoiser(world, "s0")
    for cond in (a, b, a):
        assert denoiser.evaluate_batch(ys, cond, 0.4).tobytes() == want[id(cond)].tobytes()
    # The memo holds one conditioning: a is computed again after b.
    assert len(calls) == 3


@pytest.mark.parametrize("bad", [np.array([0.0, 1.5, 2.0, 3.0, 4.0]), np.zeros(4)],
                         ids=["non-integer symbol", "wrong epoch count"])
def test_a_conditioning_that_raises_is_never_kept(bad):
    rng, world, obs = _memo_world(n_epochs=5, seed=42)
    ys = rng.standard_normal((2, 5, 5))
    denoiser = exact_denoiser(world, "s0")
    good = denoiser.evaluate_batch(ys, obs[0][1], 0.4)
    cond = Features(bad)
    for _ in range(3):
        with pytest.raises(ValueError):
            denoiser.evaluate_batch(ys, cond, 0.4)
        with pytest.raises(ValueError):
            denoiser.evaluate_stacked(ys, [(denoiser, cond)], 0.4)
    assert denoiser.evaluate_batch(ys, obs[0][1], 0.4).tobytes() == good.tobytes()


def test_split_run_with_kept_terms_equals_in_process_run(monkeypatch):
    n_epochs = 32
    assert n_epochs >= sampler._SPLIT_MIN_EPOCHS
    _, world, obs = _memo_world(n_epochs, seed=43)
    cfg = SamplerConfig(schedule=ScheduleParams(M=4), n_samples=5, base_seed=3)
    ranges = []
    run_ranges = sampler._run_ranges

    def counted(bank, obs, cfg, n_epochs, n_ranges, keep_states):
        ranges.append(n_ranges)
        return run_ranges(bank, obs, cfg, n_epochs, n_ranges, keep_states)

    monkeypatch.setattr(sampler, "_run_ranges", counted)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    split = sample_many(exact_bank(world), obs, cfg, n_epochs)
    # One usable core keeps every sample in the calling process.
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 1)
    in_process = sample_many(exact_bank(world), obs, cfg, n_epochs)
    assert ranges == [2, 1]
    assert split.states.tobytes() == in_process.states.tobytes()
    # Without the memo, every denoise computes its terms again: same states.
    cond_loglik = oracle.ExactDenoiser._cond_loglik

    def forgetful(self, cond):
        self._memo = None
        return cond_loglik(self, cond)

    monkeypatch.setattr(oracle.ExactDenoiser, "_cond_loglik", forgetful)
    fresh = sample_many(exact_bank(world), obs, cfg, n_epochs)
    assert ranges == [2, 1, 1]
    assert fresh.states.tobytes() == in_process.states.tobytes()
