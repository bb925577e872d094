import numpy as np
import pytest

from fsdm.checks import (
    hypnogram_index,
    posterior_marginals,
    random_world,
    single_atom_world,
    stage_observations,
)
from fsdm.hypno import Hypnogram, argmax_stages, one_hot
from fsdm.neural import PRIOR, ReferenceDenoiser
from fsdm.oracle import enumerate_posterior, exact_bank
from fsdm.sampler import (
    SampleResult,
    SamplerConfig,
    SamplingError,
    infer,
    sample_many,
    sample_one,
)
from fsdm.sched import ScheduleParams
from fsdm.scorekit import ABSENT, Features, SensorBank


def test_single_atom_lands_on_vertex():
    h = Hypnogram.from_indices([0, 3, 2, 4])
    bank = exact_bank(single_atom_world(h))
    result = sample_one(bank, [], SamplerConfig(base_seed=5), 0, 4)
    assert np.abs(result.y.values - one_hot(h).values).max() <= 1e-6


def test_same_seed_bitwise_identical():
    rng = np.random.default_rng(0)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    cfg = SamplerConfig(base_seed=123)
    a = sample_one(bank, [], cfg, 4, 3)
    b = sample_one(bank, [], cfg, 4, 3)
    assert np.array_equal(a.y.values, b.y.values)


def test_distinct_indices_distinct_initial_states():
    h = Hypnogram.from_indices([1])
    bank = exact_bank(single_atom_world(h))
    cfg = SamplerConfig(n_samples=64, base_seed=9, record_trajectory=True)
    initials = set()

    def first_states(m, sigma, y, pairs):
        if m == 0:
            initials.update(tuple(state.ravel()) for state in y)

    sample_many(bank, [], cfg, 1, observer=first_states)
    assert len(initials) == 64


def test_sample_many_n1_equals_sample_one():
    rng = np.random.default_rng(1)
    world = random_world(2, 1, rng)
    bank = exact_bank(world)
    cfg = SamplerConfig(n_samples=1, base_seed=3)
    many = sample_many(bank, [], cfg, 2)
    one = sample_one(bank, [], cfg, 0, 2)
    assert len(many) == 1
    assert np.array_equal(many[0].y.values, one.y.values)


def test_batched_run_equals_sequential_bitwise():
    rng = np.random.default_rng(2)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([0.0, 2.0, 4.0])))]
    cfg = SamplerConfig(n_samples=6, base_seed=17)
    batch = sample_many(bank, obs, cfg, 3)
    for i, result in enumerate(batch):
        single = sample_one(bank, obs, cfg, i, 3)
        assert np.array_equal(result.y.values, single.y.values)


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
    for i, result in enumerate(batch):
        single = sample_one(bank, obs, cfg, i, 9)
        assert np.array_equal(result.y.values, single.y.values)


def test_trajectory_recording_does_not_change_states():
    rng = np.random.default_rng(3)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([0.0, 2.0, 4.0])))]
    base = SamplerConfig(n_samples=2, base_seed=7)
    recorded = SamplerConfig(n_samples=2, base_seed=7, record_trajectory=True)
    steps = []
    a = sample_many(bank, obs, base, 3)
    b = sample_many(bank, obs, recorded, 3,
                    observer=lambda m, sigma, y, pairs: steps.append(m))
    assert steps == list(range(base.schedule.M))
    for ra, rb in zip(a, b):
        assert ra.gain_sums is None
        assert set(rb.gain_sums) == {"s0"}
        assert rb.n_steps == base.schedule.M
        assert np.array_equal(ra.y.values, rb.y.values)


def test_trajectory_records_predictor_states_with_positive_sigma():
    h = Hypnogram.from_indices([2, 2])
    bank = exact_bank(single_atom_world(h))
    cfg = SamplerConfig(n_samples=1, base_seed=1, record_trajectory=True)
    seen = []
    sample_many(bank, [], cfg, 2, observer=lambda m, sigma, y, pairs: seen.append((m, sigma)))
    steps, sigmas = zip(*seen)
    ts = __import__("fsdm.sched", fromlist=["time_steps"]).time_steps(cfg.schedule)
    assert steps == tuple(range(cfg.schedule.M))
    np.testing.assert_allclose(sigmas, ts[:-1])
    assert all(s > 0 for s in sigmas)


def test_final_state_near_manifold_for_peaked_world():
    rng = np.random.default_rng(4)
    world = random_world(4, 1, rng)
    bank = exact_bank(world)
    h = Hypnogram.from_indices(rng.integers(0, 5, 4))
    obs = [("s0", Features(stage_observations(world, h)["s0"]))]
    result = sample_one(bank, obs, SamplerConfig(base_seed=2, lam=1.0), 0, 4)
    sums = result.y.values.sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-6)
    vertex = one_hot(argmax_stages(result.y)).values
    assert np.abs(result.y.values - vertex).max() <= 0.05


def test_self_convergence_factor_two():
    # Compare at a raised sigma_min where the final denoise map is smooth;
    # t_{M-1} = sigma_min is pinned on every grid so states are comparable.
    rng = np.random.default_rng(5)
    world = random_world(3, 1, rng, base=0.7)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([1.0, 3.0, 2.0])))]

    def final_state(m_steps):
        sched = ScheduleParams(sigma_min=0.3, sigma_max=40.0, rho=7.0, M=m_steps)
        cfg = SamplerConfig(schedule=sched, base_seed=11, lam=1.0)
        return sample_one(bank, obs, cfg, 0, 3).y.values

    ref = final_state(64)
    err_coarse = np.linalg.norm(final_state(8) - ref)
    err_fine = np.linalg.norm(final_state(16) - ref)
    assert err_fine <= err_coarse / 2


def test_posterior_recovery_sanity():
    rng = np.random.default_rng(6)
    world = random_world(3, 1, rng)
    h = Hypnogram.from_indices(rng.integers(0, 5, 3))
    obs_map = stage_observations(world, h)
    post = enumerate_posterior(world, obs_map)
    bank = exact_bank(world)
    cfg = SamplerConfig(n_samples=256, base_seed=0, lam=1.0)
    counts = np.zeros(post.size)
    for result in sample_many(bank, [("s0", Features(obs_map["s0"]))], cfg, 3):
        counts[hypnogram_index(argmax_stages(result.y))] += 1
    tv = 0.5 * np.abs(counts / 256 - post).sum()
    assert tv <= 0.2


class ExplodingDenoiser:
    def evaluate_batch(self, ys, cond, sigma):
        out = np.full_like(ys, 0.2)
        out[..., 0, 0] = np.nan  # drives the state non-finite within a step
        return out


def test_non_finite_state_raises_with_diagnostics():
    bank = SensorBank(ExplodingDenoiser(), ())
    with pytest.raises(SamplingError, match="step"):
        sample_one(bank, [], SamplerConfig(base_seed=0), 0, 2)


def test_observation_epoch_mismatch_rejected():
    rng = np.random.default_rng(7)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    with pytest.raises(ValueError):
        sample_one(bank, [("s0", Features(np.zeros(4)))], SamplerConfig(), 0, 3)


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
