import math
import multiprocessing
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from conftest import no_child_left
from fsdm import sampler, scorekit
from fsdm._kernels import markov_marginals
from fsdm.checks import (
    hypnogram_index,
    informative_emission,
    persistent_markov,
    posterior_marginals,
    random_world,
    single_atom_world,
    stage_observations,
)
from fsdm.hypno import Hypnodensity, Hypnogram, argmax_stages, one_hot
from fsdm.neural import PRIOR, ReferenceDenoiser, TrainConfig, train
from fsdm.oracle import (
    GaussianEmission, MarkovPrior, WorldModel, emission_loglik, enumerate_posterior, exact_bank,
)
from fsdm.sampler import SamplerConfig, SamplingError, infer, sample_many
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import ABSENT, Features, SensorBank, fsdm_denoise_batch


def _alone(bank, obs, cfg, index, n_epochs):
    """Sample ``index`` run by itself, as a batch of one with its
    trajectory kept: the reference that each sample of a batch equals
    bitwise."""
    states, trajectory = np.empty((1, 5, n_epochs)), np.empty((1, cfg.schedule.M, 5, n_epochs))
    gains = {name: np.zeros((1, n_epochs)) for name, _ in (obs if cfg.record_trajectory else ())}
    assert sampler._run_range(bank, obs, cfg, [index], n_epochs, states, gains, trajectory) is None
    per_sample = ({name: s[0] for name, s in gains.items()},) if cfg.record_trajectory else ()
    return sampler.Batch(states, per_sample, trajectory)


def test_single_atom_lands_on_vertex():
    h = Hypnogram.from_indices([0, 3, 2, 4])
    bank = exact_bank(single_atom_world(h))
    y = sample_many(bank, [], SamplerConfig(n_samples=1, base_seed=5), 4).states[0]
    assert np.abs(y - one_hot(h).values).max() <= 1e-6


@pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_sampler_config_rejects_a_negative_or_non_finite_lam(lam):
    with pytest.raises(ValueError, match="lam must be a finite number >= 0"):
        SamplerConfig(lam=lam)


@pytest.mark.parametrize("lam", [None, 0, 0.0, 0.5, 2])
def test_sampler_config_accepts_automatic_zero_and_positive_lam(lam):
    assert SamplerConfig(lam=lam).lam == lam


def test_same_seed_bitwise_identical():
    rng = np.random.default_rng(0)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    cfg = SamplerConfig(base_seed=123)
    a = _alone(bank, [], cfg, 4, 3)
    b = _alone(bank, [], cfg, 4, 3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.trajectories, b.trajectories)


def test_distinct_indices_distinct_initial_states():
    h = Hypnogram.from_indices([1])
    bank = exact_bank(single_atom_world(h))
    cfg = SamplerConfig(n_samples=64, base_seed=9, record_trajectory=True)
    first_states = sample_many(bank, [], cfg, 1, keep_states=True).trajectories[:, 0]
    assert len({tuple(state.ravel()) for state in first_states}) == 64


def test_sample_many_n1_equals_the_one_sample_reference():
    rng = np.random.default_rng(1)
    world = random_world(2, 1, rng)
    bank = exact_bank(world)
    cfg = SamplerConfig(n_samples=1, base_seed=3)
    many = sample_many(bank, [], cfg, 2)
    one = _alone(bank, [], cfg, 0, 2)
    assert many.states.shape == (1, 5, 2)
    assert np.array_equal(many.states, one.states)


def test_batched_run_equals_sequential_bitwise():
    rng = np.random.default_rng(2)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([0.0, 2.0, 4.0])))]
    cfg = SamplerConfig(n_samples=6, base_seed=17)
    batch = sample_many(bank, obs, cfg, 3)
    for i, y in enumerate(batch.states):
        assert np.array_equal(y, _alone(bank, obs, cfg, i, 3).states[0])


def test_neural_bank_batched_run_equals_sequential_bitwise():
    # A reference network reuses its work arrays across the samples of a
    # batch; no state may leak from one sample into the next.
    rng = np.random.default_rng(21)
    nets = {name: ReferenceDenoiser.init(n_features, rng)
            for name, n_features in ((PRIOR, 0), ("s0", 1), ("s1", 2))}
    bank = SensorBank(nets[PRIOR], (("s0", nets["s0"]), ("s1", nets["s1"])))
    x1 = rng.standard_normal((2, 9))
    x1[:, 4] = np.nan
    obs = [("s0", Features(rng.standard_normal(9))), ("s1", Features(x1))]
    cfg = SamplerConfig(schedule=ScheduleParams(M=4), n_samples=4, base_seed=8)
    batch = sample_many(bank, obs, cfg, 9)
    for i, y in enumerate(batch.states):
        assert np.array_equal(y, _alone(bank, obs, cfg, i, 9).states[0])


def test_trajectory_recording_does_not_change_states():
    rng = np.random.default_rng(3)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([0.0, 2.0, 4.0])))]
    base = SamplerConfig(n_samples=2, base_seed=7)
    recorded = SamplerConfig(n_samples=2, base_seed=7, record_trajectory=True)
    a = sample_many(bank, obs, base, 3)
    b = sample_many(bank, obs, recorded, 3, keep_states=True)
    assert a.gains == () and a.trajectories.size == 0
    assert len(b.gains) == 2 and all(set(sums) == {"s0"} for sums in b.gains)
    assert b.trajectories.shape == (2, base.schedule.M, 5, 3)
    assert np.array_equal(a.states, b.states)


def test_trajectory_records_predictor_states_with_positive_sigma():
    rng = np.random.default_rng(9)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([4.0, 1.0, 1.0])))]
    cfg = SamplerConfig(schedule=ScheduleParams(M=6), n_samples=3, base_seed=1)
    batch = sample_many(bank, obs, cfg, 3, keep_states=True)
    ts = time_steps(cfg.schedule)
    assert np.array_equal(batch.trajectories[:, 0], np.stack(
        [sampler._initial_state(cfg.base_seed, i, 3, ts[0]) for i in range(3)]))

    # Step m's denoise D_m, at σ = t_m > 0, of step m's recorded state.
    starts = [np.ascontiguousarray(batch.trajectories[:, m]) for m in range(cfg.schedule.M)]
    assert all(t > 0 for t in ts[:-1])
    denoised = [fsdm_denoise_batch(y, float(t), bank, obs, cfg.lam) for y, t in zip(starts, ts)]

    def solver_step(m):
        sigma, sigma_next = float(ts[m]), float(ts[m + 1])
        if sigma_next == 0:
            return denoised[m]
        h = math.log(sigma / sigma_next)
        d_prime = denoised[m]
        if m > 0:
            r = math.log(float(ts[m - 1]) / sigma) / h
            d_prime = (1 + 1 / (2 * r)) * denoised[m] - (1 / (2 * r)) * denoised[m - 1]
        return (sigma_next / sigma) * starts[m] - math.expm1(-h) * d_prime

    # A DPM-Solver++(2M) step from step m's state gives step m + 1's
    # state, and the last step lands on the final denoise.
    ends = [*starts[1:], batch.states]
    for m, end in enumerate(ends):
        assert np.array_equal(solver_step(m), end), m


def test_final_state_near_manifold_for_peaked_world():
    rng = np.random.default_rng(4)
    world = random_world(4, 1, rng)
    bank = exact_bank(world)
    h = Hypnogram.from_indices(rng.integers(0, 5, 4))
    obs = [("s0", Features(stage_observations(world, h)["s0"]))]
    y = sample_many(bank, obs, SamplerConfig(n_samples=1, base_seed=2, lam=1.0), 4).states[0]
    sums = y.sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-6)
    vertex = one_hot(argmax_stages(Hypnodensity(y))).values
    assert np.abs(y - vertex).max() <= 0.05


def test_self_convergence_factor_two():
    # Compare at a raised sigma_min where the final denoise map is smooth;
    # t_{M-1} = sigma_min is pinned on every grid so states are comparable.
    # Doubling M from 64 shrinks the error ~3.2-fold; below M = 32 it is
    # pre-asymptotic (0.110 at M = 8, 0.112 at 16).
    rng = np.random.default_rng(5)
    world = random_world(3, 1, rng, base=0.7)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([1.0, 3.0, 2.0])))]

    def final_state(m_steps):
        sched = ScheduleParams(sigma_min=0.3, sigma_max=40.0, rho=7.0, M=m_steps)
        cfg = SamplerConfig(schedule=sched, n_samples=1, base_seed=11, lam=1.0)
        return sample_many(bank, obs, cfg, 3).states[0]

    ref = final_state(1024)
    err_coarse = np.linalg.norm(final_state(64) - ref)
    err_fine = np.linalg.norm(final_state(128) - ref)
    assert err_fine <= err_coarse / 2


@pytest.mark.parametrize("case, schedule", [
    ("neural", {"sigma_min": 1e-12, "M": 2}),
    ("neural", {"sigma_min": 1e-12, "M": 3}),
    ("neural", {"sigma_min": 1e-24}),
    ("neural", {"sigma_min": 1e-30}),
    ("exact", {"sigma_max": 1e150, "M": 8}),
], ids=["neural-1e-12-M2", "neural-1e-12-M3", "neural-1e-24", "neural-1e-30", "exact-1e150"])
def test_final_states_lie_on_the_simplex_at_extreme_sigmas(case, schedule):
    # The last step lands on the projected denoise at σ_min, whatever the
    # grid's ratios: a step computed as y + (0 − σ)·(y − D)/σ loses
    # |y|·ε.  The state entering it stays bounded: a Heun corrector at
    # σ_min divides by σ_min, and took it to 1e11–1e20 on the neural bank
    # and 2e276 on the exact one.
    if case == "neural":
        bank, obs = _neural_case(6, seed=12)
    else:
        bank = exact_bank(random_world(6, 1, np.random.default_rng(4)))
        obs = [("s0", Features(np.array([0.0, 2.0, 4.0, 1.0, 3.0, 0.0])))]
    cfg = SamplerConfig(schedule=ScheduleParams(**schedule), n_samples=8, base_seed=3)
    batch = sample_many(bank, obs, cfg, 6, keep_states=True)
    assert np.abs(batch.trajectories[:, -1]).max() <= 2
    states = batch.states
    assert np.all(states >= 0)
    np.testing.assert_allclose(states.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_a_final_state_off_the_simplex_raises(monkeypatch):
    # Projected columns that sum to 1 + 2e-9 are off by more than the
    # tolerance, 1e-9; 1 + 5e-10 is within it.
    bank = exact_bank(random_world(3, 1, np.random.default_rng(4)))
    obs = [("s0", Features(np.array([0.0, 2.0, 4.0])))]
    cfg = SamplerConfig(schedule=ScheduleParams(M=4), n_samples=2)
    project = scorekit.project_manifold
    monkeypatch.setattr(scorekit, "project_manifold", lambda v: project(v) * (1 + 5e-10))
    sample_many(bank, obs, cfg, 3)
    monkeypatch.setattr(scorekit, "project_manifold", lambda v: project(v) * (1 + 2e-9))
    message = (r"^final state off the simplex: a column sum is off by \S+ "
               r"\(sigma_min=0\.0001, M=4\)$")
    with pytest.raises(SamplingError, match=message):
        sample_many(bank, obs, cfg, 3)


def test_posterior_recovery_sanity():
    rng = np.random.default_rng(6)
    world = random_world(3, 1, rng)
    h = Hypnogram.from_indices(rng.integers(0, 5, 3))
    obs_map = stage_observations(world, h)
    post = enumerate_posterior(world, obs_map)
    bank = exact_bank(world)
    cfg = SamplerConfig(n_samples=256, base_seed=0, lam=1.0)
    counts = np.zeros(post.size)
    for y in sample_many(bank, [("s0", Features(obs_map["s0"]))], cfg, 3).states:
        counts[hypnogram_index(argmax_stages(Hypnodensity(y)))] += 1
    tv = 0.5 * np.abs(counts / 256 - post).sum()
    assert tv <= 0.2


def _markov_draw(world, rng):
    """Stages drawn from a world's Markov prior, and each sensor's
    symbols for them, as float features."""
    prior = world.prior
    stages = [rng.choice(5, p=prior.initial)]
    for _ in range(world.n_epochs - 1):
        stages.append(rng.choice(5, p=prior.transition[stages[-1]]))
    return stages, {name: np.array([rng.choice(5, p=emission.table[k]) for k in stages],
                                   dtype=float)
                    for name, emission in world.sensors}


def _noisy_markov_case(seed, n_epochs=240, n_sensors=1, base=0.6):
    """A Markov world with persistence 0.9 and ``n_sensors`` emissions
    with diagonal ``base``, observations drawn from it, and the
    forward-backward posterior marginals of its stages given them, (5, E)."""
    rng = np.random.default_rng(seed)
    prior = persistent_markov(rng, persistence=0.9)
    sensors = tuple((f"s{i}", informative_emission(rng, base=base)) for i in range(n_sensors))
    world = WorldModel(n_epochs, prior, sensors)
    _, features = _markov_draw(world, rng)
    loglik = sum(emission_loglik(world.emission(name), v) for name, v in features.items())
    marginals = markov_marginals(np.log(prior.initial), np.log(prior.transition), loglik[None])
    return world, [(name, Features(v)) for name, v in features.items()], marginals[0]


def _raw_tv(states, marginals):
    """The mean per-epoch TV between the samples' argmax frequencies and
    the marginals."""
    stages = states.argmax(axis=1)
    freqs = (stages[:, None] == np.arange(5)[:, None]).mean(axis=0)
    return 0.5 * np.abs(freqs - marginals).sum(axis=0).mean()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_argmax_frequencies_match_the_posterior_marginals(seed):
    # The mean per-epoch TV between the samples' argmax frequencies and
    # the exact marginals, less its expectation for n iid draws from the
    # marginals (the floor, ~0.027 here).  With 256 samples it read +0.006
    # to +0.007 at M = 8, where the first-order solver (D′ = D_m) reads
    # +0.022 to +0.027, and −0.001 to +0.001 at the default M = 32.
    world, obs, marginals = _noisy_markov_case(seed)
    bank = exact_bank(world)
    n = 256
    # Each stage's count is Binomial(n, p) under iid draws.
    k = np.arange(n + 1)[:, None, None]
    floor = 0.5 * (binom.pmf(k, n, marginals) * np.abs(k / n - marginals)).sum(axis=(0, 1)).mean()
    for M, margin in ((8, 0.012), (32, 0.004)):
        cfg = SamplerConfig(schedule=ScheduleParams(M=M), n_samples=n, base_seed=seed)
        excess = _raw_tv(sample_many(bank, obs, cfg, marginals.shape[1]).states, marginals) - floor
        assert abs(excess) <= margin, (M, excess)


class _Float64Network:
    """A reference network evaluated by training's float64 pass, one
    state at a time."""

    def __init__(self, net):
        self.net = net

    def evaluate_batch(self, ys, cond, sigma):
        return np.stack([self.net._forward(y, cond, sigma)["probs"].T for y in ys])


def test_float32_inference_samples_as_the_float64_pass():
    # A bank trained on a Markov world with two sensors samples at E = 240
    # with its float32 inference and with training's float64 pass.  Every
    # final argmax agreed, so the raw TVs against the exact marginals were
    # equal: 0.341 here, and 0.277, 0.345 and 0.354 on three other sets of
    # seeds (states moved by at most 3.4e-5).  Float16 inference flips 11
    # of the 15,360 argmaxes here, more than the 7 allowed.
    world, obs, marginals = _noisy_markov_case(0, n_sensors=2, base=0.8)
    train_world = WorldModel(120, world.prior, world.sensors)
    rng = np.random.default_rng(1)
    dataset = [(Hypnogram.from_indices(stages), features)
               for stages, features in (_markov_draw(train_world, rng) for _ in range(8))]
    nets = {target: train(dataset, target, TrainConfig(steps=800, seed=0))
            for target in (PRIOR, "s0", "s1")}
    cfg = SamplerConfig(schedule=ScheduleParams(M=32), n_samples=64, base_seed=0)
    float32, float64 = (
        sample_many(SensorBank(wrap(nets[PRIOR]), tuple((n, wrap(nets[n])) for n in ("s0", "s1"))),
                    obs, cfg, world.n_epochs).states
        for wrap in (lambda net: net, _Float64Network))
    assert np.mean(float32.argmax(axis=1) == float64.argmax(axis=1)) >= 0.9995
    assert abs(_raw_tv(float32, marginals) - _raw_tv(float64, marginals)) <= 0.002


class ExplodingDenoiser:
    def evaluate_batch(self, ys, cond, sigma):
        out = np.full_like(ys, 0.2)
        out[..., 0, 0] = np.nan  # drives the state non-finite within a step
        return out


def test_non_finite_state_raises_with_diagnostics():
    bank = SensorBank(ExplodingDenoiser(), ())
    with pytest.raises(SamplingError, match="step"):
        sample_many(bank, [], SamplerConfig(n_samples=1, base_seed=0), 2)


def test_observation_epoch_mismatch_rejected():
    rng = np.random.default_rng(7)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    with pytest.raises(ValueError):
        sample_many(bank, [("s0", Features(np.zeros(4)))], SamplerConfig(n_samples=1), 3)


def test_infer_identical_one_hot_samples():
    h = Hypnogram.from_indices([0, 0, 3, 3, 4, 2])
    bank = exact_bank(single_atom_world(h))
    result = infer(bank, [], SamplerConfig(n_samples=5, base_seed=3), 6)
    assert result.hypnogram == h
    assert len(result.samples) == 5
    # epoch = 0.5 min; [W,W,N3,N3,R,N2] -> SOL 1.0, TST 2.0, REM latency 1.0
    assert result.stats["sol_min"] == 1.0
    assert result.stats["tst_min"] == 2.0
    assert result.stats["rem_latency_min"] == 1.0


def test_infer_median_is_middle_order_statistic():
    import statistics

    assert statistics.median([3.0, 1.0, 100.0]) == 3.0


def test_infer_matches_posterior_marginal_argmax():
    rng = np.random.default_rng(8)
    hits = 0
    total = 0
    for trial in range(5):
        world = random_world(4, 1, rng)
        h = Hypnogram.from_indices(rng.integers(0, 5, 4))
        obs_map = stage_observations(world, h)
        marg = posterior_marginals(world, enumerate_posterior(world, obs_map))
        expected = np.argmax(marg, axis=0)
        bank = exact_bank(world)
        cfg = SamplerConfig(n_samples=32, base_seed=trial, lam=1.0)
        result = infer(bank, [("s0", Features(obs_map["s0"]))], cfg, 4)
        hits += int(np.sum(result.hypnogram.to_indices() == expected))
        total += 4
    assert hits / total >= 0.95


def test_invalid_n_samples():
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=0)


# -- the split across worker processes --------------------------------------


def _split_runs(monkeypatch, bank, obs, cfg, n_epochs, cores_list=(1, 2, 3, 8),
                keep_states=False):
    """{cores: Batch} of sample_many with the split open at every epoch
    count, and the range counts it split into."""
    split_counts = []
    run_ranges = sampler._run_ranges

    def counted(bank, obs, cfg, n_epochs, n_ranges, keep_states):
        split_counts.append(n_ranges)
        return run_ranges(bank, obs, cfg, n_epochs, n_ranges, keep_states)

    monkeypatch.setattr(sampler, "_run_ranges", counted)
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    runs = {}
    for cores in cores_list:
        monkeypatch.setattr(sampler, "_usable_cores", lambda: cores)
        runs[cores] = sample_many(bank, obs, cfg, n_epochs, keep_states)
    no_child_left()
    return runs, split_counts


def _same_batch(got, want):
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.trajectories, want.trajectories)
    assert len(got.gains) == len(want.gains)
    for a, b in zip(got.gains, want.gains):
        assert set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in b)


def _neural_case(n_epochs, seed):
    rng = np.random.default_rng(seed)
    nets = {name: ReferenceDenoiser.init(n_features, rng)
            for name, n_features in ((PRIOR, 0), ("s0", 1), ("s1", 2))}
    bank = SensorBank(nets[PRIOR], (("s0", nets["s0"]), ("s1", nets["s1"])))
    x1 = rng.standard_normal((2, n_epochs))
    x1[:, ::4] = np.nan
    return bank, [("s0", Features(rng.standard_normal(n_epochs))), ("s1", Features(x1))]


def _exact_case(n_epochs, seed):
    # A Markov world: every term of a denoise goes into one stacked kernel call.
    rng = np.random.default_rng(seed)
    trans = np.full((5, 5), 0.05)
    np.fill_diagonal(trans, 0.8)
    sensors = tuple((f"s{i}", GaussianEmission(rng.standard_normal(5), np.ones(5)))
                    for i in range(2))
    bank = exact_bank(WorldModel(n_epochs, MarkovPrior(rng.dirichlet(np.ones(5)), trans), sensors))
    assert bank._stacked
    return bank, [(name, Features(rng.standard_normal(n_epochs))) for name, _ in sensors]


@pytest.mark.parametrize("case", [_neural_case, _exact_case], ids=["neural", "exact"])
@pytest.mark.parametrize("n_epochs", [1, 37, 38, 240, 960])
@pytest.mark.parametrize("n_samples", [1, 2, 3, 5, 64])
def test_split_keeps_every_sample_bitwise(monkeypatch, case, n_samples, n_epochs):
    bank, obs = case(n_epochs, seed=n_samples)
    cfg = SamplerConfig(schedule=ScheduleParams(M=2), n_samples=n_samples, base_seed=n_epochs,
                        record_trajectory=True)
    runs, split_counts = _split_runs(monkeypatch, bank, obs, cfg, n_epochs, keep_states=True)
    # One range per core, at most one per sample.
    assert split_counts == [min(cores, n_samples) for cores in (1, 2, 3, 8)]
    # Every sample equals itself run alone, in states, gain sums and
    # trajectory.
    alone = [_alone(bank, obs, cfg, i, n_epochs) for i in range(n_samples)]
    want_sums = [one.gains[0] for one in alone]
    assert all(set(sums) == {"s0", "s1"} for sums in want_sums)
    for cores, batch in runs.items():
        assert np.array_equal(batch.states, np.concatenate([one.states for one in alone])), cores
        assert batch.trajectories.shape == (n_samples, 2, 5, n_epochs), cores
        assert np.array_equal(batch.trajectories,
                              np.concatenate([one.trajectories for one in alone])), cores
        assert len(batch.gains) == n_samples, cores
        assert all(np.array_equal(got[k], want[k])
                   for got, want in zip(batch.gains, want_sums) for k in want), cores


def test_trained_bank_samples_do_not_depend_on_the_split(monkeypatch):
    rng = np.random.default_rng(30)
    n_epochs = 12
    dataset = [(Hypnogram.from_indices(rng.integers(0, 5, n_epochs)),
                {"a": rng.standard_normal(n_epochs), "b": rng.standard_normal((2, n_epochs))})
               for _ in range(3)]
    bank = SensorBank(train(dataset, PRIOR, TrainConfig(steps=20, seed=1)),
                      tuple((name, train(dataset, name, TrainConfig(steps=20, seed=2)))
                            for name in ("a", "b")))
    xb = rng.standard_normal((2, n_epochs))
    xb[0, 3:6] = np.nan
    obs = [("a", Features(rng.standard_normal(n_epochs))), ("b", Features(xb))]
    cfg = SamplerConfig(schedule=ScheduleParams(M=4), n_samples=5, base_seed=4)
    runs, split_counts = _split_runs(monkeypatch, bank, obs, cfg, n_epochs, (1, 2, 3))
    assert split_counts == [1, 2, 3]
    assert all(np.array_equal(batch.states, runs[1].states) and batch.gains == ()
               for batch in runs.values())


class _ByProcessDenoiser:
    """A prior that gives 0.2 everywhere, and calls ``fail`` on its states
    in the process named by ``where`` ("caller" or "worker")."""

    def __init__(self, where, fail):
        self.caller = os.getpid()
        self.where = where
        self.fail = fail

    def evaluate_batch(self, ys, cond, sigma):
        if self.where == ("caller" if os.getpid() == self.caller else "worker"):
            self.fail(ys)
        return np.full_like(ys, 0.2)


def _raise_floating_point_error(ys):
    raise FloatingPointError("injected")


def test_no_worker_outlives_its_call(monkeypatch):
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 4)
    cfg = SamplerConfig(schedule=ScheduleParams(M=3), n_samples=8)
    bank = SensorBank(_ByProcessDenoiser("nowhere", None), ())
    assert len(sample_many(bank, [], cfg, 3).states) == 8
    no_child_left()
    # A range that fails, in a worker or in the caller, fails the call once
    # every range has ended.
    for where in ("worker", "caller"):
        bank = SensorBank(_ByProcessDenoiser(where, _raise_floating_point_error), ())
        with pytest.raises(FloatingPointError, match="injected"):
            sample_many(bank, [], cfg, 3)
        no_child_left()


def test_workers_keep_the_callers_floating_point_error_handling(monkeypatch):
    # exp(−1000) underflows, in the worker's range only.
    bank = SensorBank(_ByProcessDenoiser("worker", lambda ys: np.exp(np.full(3, -1e3))), ())
    cfg = SamplerConfig(schedule=ScheduleParams(M=2), n_samples=2)
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    sample_many(bank, [], cfg, 3)
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            sample_many(bank, [], cfg, 3)
    no_child_left()


def _failing_samples(monkeypatch, fail_at):
    """A bank whose sample i turns non-finite where it is denoised at grid
    time t_k, k = fail_at[i], in step k.
    Each sample's state starts at its index i and, denoised to 0.2
    everywhere, is 0.2 + (i − 0.2)·t_k / t_0 at t_k, so the prior reads
    the index back."""
    cfg = SamplerConfig(schedule=ScheduleParams(M=8), n_samples=4)
    ts = time_steps(cfg.schedule)
    monkeypatch.setattr(sampler, "_initial_state",
                        lambda base_seed, i, n_epochs, sigma0: np.full((5, n_epochs), float(i)))

    class Prior:
        def evaluate_batch(self, ys, cond, sigma):
            out = np.full_like(ys, 0.2)
            for b, index in enumerate(np.rint((ys[:, 0, 0] - 0.2) * ts[0] / sigma + 0.2)):
                if sigma == ts[fail_at.get(int(index), -1)]:
                    out[b, 0, 0] = np.nan
            return out

    return SensorBank(Prior(), ()), cfg


def test_sampling_error_in_a_worker_range_keeps_the_serial_message(monkeypatch):
    # Samples 3 (a worker's) and 1 (the caller's) fail in steps 2 and 5: a
    # lockstep run meets step 2 first.  Each range meets only its own.
    bank, cfg = _failing_samples(monkeypatch, {3: 2, 1: 5})
    with pytest.raises(SamplingError) as serial:
        sample_many(bank, [], cfg, 3)
    assert "after step 2 " in str(serial.value)
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    for cores in (2, 3, 4):
        monkeypatch.setattr(sampler, "_usable_cores", lambda: cores)
        with pytest.raises(SamplingError) as split:
            sample_many(bank, [], cfg, 3)
        assert str(split.value) == str(serial.value), cores
    no_child_left()


def test_an_error_that_does_not_pickle_keeps_its_type_name_and_message(monkeypatch):
    class Unpicklable(ValueError):
        def __init__(self, code, text):
            super().__init__(f"{code}: {text}")

    def fail(ys):
        raise Unpicklable(7, "no pickle")

    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    bank = SensorBank(_ByProcessDenoiser("worker", fail), ())
    with pytest.raises(RuntimeError, match="^Unpicklable: 7: no pickle$"):
        sample_many(bank, [], SamplerConfig(schedule=ScheduleParams(M=2), n_samples=2), 3)
    no_child_left()


def test_a_worker_that_dies_fails_the_call(monkeypatch):
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    bank = SensorBank(_ByProcessDenoiser("worker", lambda ys: os._exit(3)), ())
    with pytest.raises(RuntimeError, match="exited with code 3"):
        sample_many(bank, [], SamplerConfig(schedule=ScheduleParams(M=2), n_samples=2), 3)
    no_child_left()


def test_fall_back_cases_start_no_process(monkeypatch):
    bank, obs = _neural_case(6, seed=40)
    cfg = SamplerConfig(schedule=ScheduleParams(M=3), n_samples=4, base_seed=2,
                        record_trajectory=True)
    want = sample_many(bank, obs, cfg, 6, keep_states=True)

    def no_process(self):
        raise AssertionError("a fall-back case started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 6)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 8)

    def check(got):
        _same_batch(got, want)

    # Keeping the states is no fall-back: such a run splits like any other.
    with pytest.raises(AssertionError, match="a fall-back case started a process"):
        sample_many(bank, obs, cfg, 6, keep_states=True)
    # Each fall-back keeps every sample's trajectory.
    assert want.trajectories.shape == (4, cfg.schedule.M, 5, 6)
    # One usable core; fewer epochs than the gate.
    with monkeypatch.context() as m:
        m.setattr(sampler, "_usable_cores", lambda: 1)
        check(sample_many(bank, obs, cfg, 6, keep_states=True))
    with monkeypatch.context() as m:
        m.setattr(sampler, "_SPLIT_MIN_EPOCHS", 7)
        check(sample_many(bank, obs, cfg, 6, keep_states=True))
    # One sample.
    one = sample_many(bank, obs, SamplerConfig(schedule=ScheduleParams(M=3), n_samples=1,
                                               base_seed=2, record_trajectory=True), 6,
                      keep_states=True)
    _same_batch(one, sampler.Batch(want.states[:1], want.gains[:1], want.trajectories[:1]))
    # Another live thread, which a fork would not copy.
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        check(sample_many(bank, obs, cfg, 6, keep_states=True))
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    # No fork start method; a daemonic process, which may not have children.
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        check(sample_many(bank, obs, cfg, 6, keep_states=True))
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=True))
        check(sample_many(bank, obs, cfg, 6, keep_states=True))


_WARNING_SCRIPT = """
import sys

import numpy as np

from fsdm import sampler
from fsdm.sampler import SamplerConfig, sample_many
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import SensorBank

where, cores = sys.argv[1], int(sys.argv[2])
cfg = SamplerConfig(schedule=ScheduleParams(M=2), n_samples=2)
t0 = time_steps(cfg.schedule)[0]


class LogPrior:
    # Sample i starts at i everywhere, so at t0 the batch holds its indices.
    def evaluate_batch(self, ys, cond, sigma):
        if where == "every range" or (sigma == t0 and ys[:, 0, 0].max() >= 1):
            np.log(np.zeros(1))
        return np.full_like(ys, 0.2)


sampler._initial_state = lambda base_seed, i, n_epochs, sigma0: np.full((5, n_epochs), float(i))
sampler._SPLIT_MIN_EPOCHS = 1
sampler._usable_cores = lambda: cores
for _ in range(2):
    sample_many(SensorBank(LogPrior(), ()), [], cfg, 3)
"""


@pytest.mark.parametrize("how", ["file", "-c"])
@pytest.mark.parametrize("where", ["every range", "sample 1"])
def test_a_split_run_prints_its_warnings_as_in_process(tmp_path, where, how):
    # Two calls, each meeting the warning in the caller's and the worker's
    # range, or in the worker's only: it prints once, with 1 range or 2.
    # Run from a file, the warning comes from that file's module; run with
    # -c, from code that has no module file.
    script = tmp_path / "warn.py"
    script.write_text(_WARNING_SCRIPT, encoding="utf-8")
    program = [str(script)] if how == "file" else ["-c", _WARNING_SCRIPT]
    src = str(Path(sampler.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    runs = [subprocess.run([sys.executable, *program, where, str(cores)], env=env,
                           capture_output=True, text=True, timeout=300)
            for cores in (1, 2)]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert runs[0].stderr.count("RuntimeWarning: divide by zero encountered in log") == 1
    assert runs[1].stderr == runs[0].stderr


def test_epoch_counts_are_checked_before_any_fork(monkeypatch):
    def no_process(self):
        raise AssertionError("started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    bank, obs = _neural_case(6, seed=41)
    with pytest.raises(ValueError, match="epoch count"):
        sample_many(bank, obs, SamplerConfig(n_samples=4), 7)


def test_usable_cores_falls_back_to_cpu_count(monkeypatch):
    assert sampler._usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sampler._usable_cores() == (os.cpu_count() or 1)
