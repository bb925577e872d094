import multiprocessing
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from fsdm import sampler
from fsdm.checks import (
    hypnogram_index,
    posterior_marginals,
    random_world,
    single_atom_world,
    stage_observations,
)
from fsdm.hypno import Hypnodensity, Hypnogram, argmax_stages, one_hot
from fsdm.neural import PRIOR, ReferenceDenoiser, TrainConfig, train
from fsdm.oracle import GaussianEmission, MarkovPrior, WorldModel, enumerate_posterior, exact_bank
from fsdm.sampler import SamplerConfig, SamplingError, infer, sample_many
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import ABSENT, Features, SensorBank, fsdm_denoise_batch


def _alone(bank, obs, cfg, index, n_epochs):
    """Sample ``index`` run by itself, as a batch of one with its
    trajectory kept: the reference that each sample of a batch equals
    bitwise."""
    batch, failure = sampler._run_range(bank, obs, cfg, [index], n_epochs, True)
    assert failure is None
    return batch


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

    def heun_step(y, t_cur, t_next):
        d = (y - fsdm_denoise_batch(y, float(t_cur), bank, obs, cfg.lam)) / float(t_cur)
        y_next = y + (t_next - t_cur) * d
        if t_next == 0:
            return y_next
        denoised2 = fsdm_denoise_batch(y_next, float(t_next), bank, obs, cfg.lam)
        d2 = (y_next - denoised2) / float(t_next)
        return y + 0.5 * (t_next - t_cur) * (d + d2)

    # A Heun step from step m's state, at σ = t_m > 0, gives step m + 1's
    # state, and the last step the final state.
    ends = [*batch.trajectories.transpose(1, 0, 2, 3)[1:], batch.states]
    for m, end in enumerate(ends):
        assert ts[m] > 0
        start = np.ascontiguousarray(batch.trajectories[:, m])
        assert np.array_equal(heun_step(start, ts[m], ts[m + 1]), end), m


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
    rng = np.random.default_rng(5)
    world = random_world(3, 1, rng, base=0.7)
    bank = exact_bank(world)
    obs = [("s0", Features(np.array([1.0, 3.0, 2.0])))]

    def final_state(m_steps):
        sched = ScheduleParams(sigma_min=0.3, sigma_max=40.0, rho=7.0, M=m_steps)
        cfg = SamplerConfig(schedule=sched, n_samples=1, base_seed=11, lam=1.0)
        return sample_many(bank, obs, cfg, 3).states[0]

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
    for y in sample_many(bank, [("s0", Features(obs_map["s0"]))], cfg, 3).states:
        counts[hypnogram_index(argmax_stages(Hypnodensity(y)))] += 1
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


def _no_child_left():
    assert multiprocessing.active_children() == []
    # Every forked worker has been reaped: no zombie is left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    _no_child_left()
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
    _no_child_left()
    # A range that fails, in a worker or in the caller, fails the call once
    # every range has ended.
    for where in ("worker", "caller"):
        bank = SensorBank(_ByProcessDenoiser(where, _raise_floating_point_error), ())
        with pytest.raises(FloatingPointError, match="injected"):
            sample_many(bank, [], cfg, 3)
        _no_child_left()


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
    _no_child_left()


def _failing_samples(monkeypatch, fail_at):
    """A bank whose sample i turns non-finite where it is denoised at grid
    time t_k, k = fail_at[i], first in step k − 1's second evaluation.
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
    # Samples 3 (a worker's) and 1 (the caller's) fail in steps 1 and 4: a
    # lockstep run meets step 1 first.  Each range meets only its own.
    bank, cfg = _failing_samples(monkeypatch, {3: 2, 1: 5})
    with pytest.raises(SamplingError) as serial:
        sample_many(bank, [], cfg, 3)
    assert "after step 1 " in str(serial.value)
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    for cores in (2, 3, 4):
        monkeypatch.setattr(sampler, "_usable_cores", lambda: cores)
        with pytest.raises(SamplingError) as split:
            sample_many(bank, [], cfg, 3)
        assert str(split.value) == str(serial.value), cores
    _no_child_left()


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
    _no_child_left()


def test_a_worker_that_dies_fails_the_call(monkeypatch):
    monkeypatch.setattr(sampler, "_SPLIT_MIN_EPOCHS", 1)
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    bank = SensorBank(_ByProcessDenoiser("worker", lambda ys: os._exit(3)), ())
    with pytest.raises(RuntimeError, match="exited with code 3"):
        sample_many(bank, [], SamplerConfig(schedule=ScheduleParams(M=2), n_samples=2), 3)
    _no_child_left()


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
