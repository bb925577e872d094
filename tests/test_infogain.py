import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdm.checks import random_world, uniform_emission
from fsdm.hypno import Hypnogram
from fsdm.infogain import (
    InfoGain,
    cosine_distance,
    information_gain,
    mean_information_gain,
    write_infogain_csv,
)
from fsdm.neural import ReferenceDenoiser
from fsdm.oracle import MarkovPrior, WorldModel, exact_bank
from fsdm.sampler import SamplerConfig, infer, sample_many
from fsdm.sched import ScheduleParams
from fsdm.scorekit import ABSENT, Features, SensorBank


def test_cosine_distance_parallel_is_zero():
    v = np.array([[0.2], [0.3], [0.1], [0.25], [0.15]])
    assert cosine_distance(v, v) == pytest.approx([0.0], abs=1e-12)
    assert cosine_distance(v, 3.0 * v) == pytest.approx([0.0], abs=1e-12)


def test_cosine_distance_orthogonal_is_one():
    a = np.array([[1.0], [0], [0], [0], [0]])
    b = np.array([[0], [1.0], [0], [0], [0]])
    assert cosine_distance(a, b) == pytest.approx([1.0], abs=1e-15)


def test_cosine_distance_halfway_fixture():
    a = np.array([[0.5], [0.5], [0], [0], [0]])
    b = np.array([[1.0], [0], [0], [0], [0]])
    assert cosine_distance(a, b) == pytest.approx([1 - 1 / math.sqrt(2)], abs=1e-12)


def test_cosine_distance_rejects_zero_norm():
    with pytest.raises(ValueError):
        cosine_distance(np.zeros((5, 1)), np.ones((5, 1)))


def _uniform_world(n_epochs=3):
    trans = np.full((5, 5), 0.2)
    return WorldModel(
        n_epochs,
        MarkovPrior(np.full(5, 0.2), trans),
        (("flat", uniform_emission()),),
    )


def _sampled_gain(bank, obs, sensor_name, cfg, n_epochs):
    """Sample, then average the samples' gain sums for one sensor."""
    gains = sample_many(bank, obs, cfg, n_epochs).gains
    return information_gain(bank, obs, sensor_name, cfg, n_epochs, gains)


def test_zero_evidence_sensor_has_zero_gain():
    world = _uniform_world()
    bank = exact_bank(world)
    obs = [("flat", Features(np.array([0.0, 3.0, 1.0])))]
    cfg = SamplerConfig(n_samples=8, base_seed=0, record_trajectory=True)
    gain = _sampled_gain(bank, obs, "flat", cfg, 3)
    np.testing.assert_allclose(gain.values, 0.0, atol=1e-9)


def test_absent_observation_gain_exactly_zero():
    rng = np.random.default_rng(0)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", ABSENT)]
    cfg = SamplerConfig(n_samples=4, base_seed=1, record_trajectory=True)
    gain = _sampled_gain(bank, obs, "s0", cfg, 3)
    np.testing.assert_array_equal(gain.values, np.zeros(3))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 6))
def test_all_missing_sensor_gain_equals_absent(seed, n_epochs):
    # An all-NaN sensor beside an informative one gains exactly what the
    # same sensor passed as ABSENT gains: nothing.
    rng = np.random.default_rng(seed)
    world = random_world(n_epochs, 2, rng)
    bank = exact_bank(world)
    seen = Features(rng.integers(0, 5, n_epochs).astype(np.float64))
    cfg = SamplerConfig(schedule=ScheduleParams(M=8), n_samples=3,
                        base_seed=seed, record_trajectory=True)
    missing = _sampled_gain(
        bank, [("s0", Features(np.full(n_epochs, np.nan))), ("s1", seen)], "s0", cfg, n_epochs)
    absent = _sampled_gain(bank, [("s0", ABSENT), ("s1", seen)], "s0", cfg, n_epochs)
    np.testing.assert_array_equal(missing.values, absent.values)
    assert missing.values.max() <= 1e-12


def test_informative_sensor_has_positive_gain_in_bounds():
    rng = np.random.default_rng(1)
    world = random_world(4, 1, rng)
    bank = exact_bank(world)
    h = Hypnogram.from_indices([0, 2, 4, 1])
    obs = [("s0", Features(h.to_indices().astype(float)))]
    cfg = SamplerConfig(n_samples=8, base_seed=2, record_trajectory=True)
    gain = _sampled_gain(bank, obs, "s0", cfg, 4)
    assert np.all(gain.values > 0)
    assert np.all(gain.values <= 1.0)
    assert gain.n_trajectories == 8


def test_requires_trajectory_recording():
    world = _uniform_world()
    bank = exact_bank(world)
    obs = [("flat", Features(np.zeros(3)))]
    with pytest.raises(ValueError):
        _sampled_gain(bank, obs, "flat", SamplerConfig(n_samples=2), 3)


def test_sensor_must_be_observed():
    world = _uniform_world()
    bank = exact_bank(world)
    cfg = SamplerConfig(n_samples=2, record_trajectory=True)
    with pytest.raises(KeyError):
        _sampled_gain(bank, [("flat", Features(np.zeros(3)))], "other", cfg, 3)


def test_information_gain_needs_a_sample():
    bank = exact_bank(_uniform_world())
    cfg = SamplerConfig(n_samples=2, record_trajectory=True)
    with pytest.raises(ValueError, match="at least one sample"):
        information_gain(bank, [("flat", Features(np.zeros(3)))], "flat", cfg, 3, [])


def test_reusing_sampler_results_matches_fresh_run():
    rng = np.random.default_rng(2)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([1.0, 1.0, 4.0])))]
    cfg = SamplerConfig(n_samples=4, base_seed=5, record_trajectory=True)
    # An infer run's per-sample gain sums are those of a sampler run of its own.
    results = infer(bank, obs, cfg, 3).results
    fresh = _sampled_gain(bank, obs, "s0", cfg, 3)
    reused = information_gain(bank, obs, "s0", cfg, 3, results=results)
    np.testing.assert_array_equal(fresh.values, reused.values)


def test_averaging_order_irrelevant():
    # mean over (step, trajectory) equals mean of per-trajectory means
    # when every trajectory has the same length; recompute by hand.
    rng = np.random.default_rng(3)
    world = random_world(2, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([0.0, 2.0])))]
    cfg = SamplerConfig(n_samples=3, base_seed=9, record_trajectory=True)
    flat = []

    def by_hand(m, sigma, y, pairs):
        name, lik, pri = pairs[0]
        for b in range(lik.shape[0]):
            num = (lik[b] * pri[b]).sum(axis=0)
            norms = np.linalg.norm(lik[b], axis=0) * np.linalg.norm(pri[b], axis=0)
            flat.append(1 - num / norms)

    results = sample_many(bank, obs, cfg, 2, observer=by_hand).gains
    gain = information_gain(bank, obs, "s0", cfg, 2, results=results)
    assert len(flat) == 3 * cfg.schedule.M
    np.testing.assert_allclose(gain.values, np.mean(flat, axis=0), atol=1e-12)


class _StoredTrajectories:
    """Keeps full per-step copies of every state and denoised pair, per sample."""

    def __init__(self, n_samples):
        self.steps = [[] for _ in range(n_samples)]

    def __call__(self, m, sigma, y, pairs):
        for b, traj in enumerate(self.steps):
            traj.append(tuple((name, lik[b].copy(), pri[b].copy()) for name, lik, pri in pairs))

    def gain(self, sensor_name, n_epochs):
        """Information gain from the stored copies, one sample and step at a time."""
        total = np.zeros(n_epochs)
        for traj in self.steps:
            per_traj = np.zeros(n_epochs)
            for pairs in traj:
                name, lik, pri = next(p for p in pairs if p[0] == sensor_name)
                per_traj += cosine_distance(lik, pri)
            total += per_traj / len(traj)
        return np.clip(total / len(self.steps), 0.0, 1.0)


def _neural_bank():
    rng = np.random.default_rng(11)
    nets = [ReferenceDenoiser.init(n_features=n, rng=rng) for n in (0, 1, 1)]
    return SensorBank(nets[0], (("a", nets[1]), ("b", nets[2])))


@pytest.mark.parametrize("kind", ["neural", "oracle"])
def test_streamed_gain_equals_stored_trajectories_bitwise(kind):
    # M=7 steps: dividing by a power of two would hide a reordered average.
    rng = np.random.default_rng(12)
    if kind == "neural":
        bank, n_epochs, names = _neural_bank(), 40, ("a", "b")
    else:
        n_epochs = 4
        bank, names = exact_bank(random_world(n_epochs, 2, rng)), ("s0", "s1")
    # A sensor observed twice counts at its first observation.
    obs = [(name, Features(rng.integers(0, 5, n_epochs).astype(float)))
           for name in (*names, names[0])]
    cfg = SamplerConfig(schedule=ScheduleParams(M=7), n_samples=5, base_seed=3,
                        record_trajectory=True)
    stored = _StoredTrajectories(cfg.n_samples)
    results = sample_many(bank, obs, cfg, n_epochs, observer=stored).gains
    for name in names:
        streamed = information_gain(bank, obs, name, cfg, n_epochs, results=results)
        assert np.array_equal(streamed.values, stored.gain(name, n_epochs))
        assert np.any(streamed.values > 0)


def test_deterministic_given_seed():
    rng = np.random.default_rng(4)
    world = random_world(3, 1, rng)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([3.0, 0.0, 2.0])))]
    cfg = SamplerConfig(n_samples=4, base_seed=21, record_trajectory=True)
    a = _sampled_gain(bank, obs, "s0", cfg, 3)
    b = _sampled_gain(bank, obs, "s0", cfg, 3)
    np.testing.assert_array_equal(a.values, b.values)


def test_mean_information_gain_constant():
    gain = InfoGain("x", np.full(6, 0.37), 4)
    assert mean_information_gain(gain) == pytest.approx(0.37)


def test_mean_information_gain_half_zero():
    gain = InfoGain("x", np.array([0.0, 0.0, 0.4, 0.4]), 4)
    assert mean_information_gain(gain) == pytest.approx(0.2)


def test_mean_information_gain_valid_epochs():
    gain = InfoGain("x", np.array([0.1, 0.5, 0.9]), 4)
    assert mean_information_gain(gain, 2) == pytest.approx(0.3)
    assert mean_information_gain(gain, 3) == pytest.approx(0.5)
    for count in (0, 4):
        with pytest.raises(ValueError, match="valid_epochs"):
            mean_information_gain(gain, count)


def test_infogain_values_validated():
    with pytest.raises(ValueError):
        InfoGain("x", np.array([0.5, 1.2]), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_infogain_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        InfoGain("x", np.array([bad, 0.5]), 1)


def test_blanking_half_the_signal_lowers_mean_gain():
    # paired runs on the same recordings/seed: zeroing 50% of the
    # waveform must strictly lower the sensor's mean information gain
    from fsdm.experiments import degradation_sweep

    _, summaries = degradation_sweep(n_recordings=3, n_samples=6, seed=4)
    zero = {s.level: s for s in summaries if s.mode == "zero"}
    clean, blanked = zero[0.0], zero[0.5]
    assert blanked.mean_info_gain < clean.mean_info_gain
    assert blanked.accuracy <= clean.accuracy


def test_csv_emission(tmp_path):
    gain = InfoGain("ppg", np.array([0.25, 0.5]), 2)
    path = tmp_path / "infogain_ppg.csv"
    write_infogain_csv(path, gain)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch_index,value"
    assert len(lines) == 3
    assert lines[1].startswith("0,0.25")
