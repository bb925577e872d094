import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdm.checks import random_world, single_atom_world
from fsdm.dsp import ampd_peaks, epoch_rate_features
from fsdm.hypno import EPOCH_S, Hypnogram, SleepStage
from fsdm.oracle import (
    CategoricalEmission, GaussianEmission, MarkovPrior, WorldModel, enumerate_posterior,
)
from fsdm.synth import (
    SynthConfig,
    WaveformSpec,
    gen_recording,
    render_waveform,
    sample_features,
    sample_hypnogram,
    split_of_index,
)


def _spec(**kwargs):
    base = dict(
        stage_rates={SleepStage.W: 1.2, SleepStage.N1: 1.1, SleepStage.N2: 0.9,
                     SleepStage.N3: 0.8, SleepStage.R: 1.0},
        base_amplitude=1.0, noise_sd=0.01, fs=64.0, jitter_sd=0.01,
        pulse_width_s=0.35,
    )
    base.update(kwargs)
    return WaveformSpec(**base)


def test_point_mass_prior_reproduces_hypnogram():
    h = Hypnogram.from_indices([3, 0, 2])
    world = single_atom_world(h)
    cfg = SynthConfig(world=world, n_recordings=4, seed=1)
    for i in range(4):
        assert gen_recording(cfg, i).hypnogram == h


def test_gen_recording_deterministic():
    rng = np.random.default_rng(0)
    world = random_world(4, 2, rng)
    cfg = SynthConfig(world=world, n_recordings=2, seed=5,
                      waveform={"pulse": _spec()})
    a = gen_recording(cfg, 1)
    b = gen_recording(cfg, 1)
    assert a.hypnogram == b.hypnogram
    np.testing.assert_array_equal(a.features["s0"], b.features["s0"])
    np.testing.assert_array_equal(a.waveforms["pulse"], b.waveforms["pulse"])


def test_seed_changes_contents_not_sizes():
    rng = np.random.default_rng(1)
    world = random_world(3, 1, rng)
    a = [gen_recording(SynthConfig(world=world, n_recordings=10, seed=1), i) for i in range(10)]
    b = [gen_recording(SynthConfig(world=world, n_recordings=10, seed=2), i) for i in range(10)]
    assert [r.recording_id for r in a] == [r.recording_id for r in b]
    assert all(len(ra.hypnogram) == len(rb.hypnogram) == 3 for ra, rb in zip(a, b))
    assert all(ra.features["s0"].shape == rb.features["s0"].shape for ra, rb in zip(a, b))
    assert any(
        ra.hypnogram != rb.hypnogram or not np.array_equal(ra.features["s0"], rb.features["s0"])
        for ra, rb in zip(a, b)
    )


def test_split_by_index_stable():
    assert [split_of_index(i) for i in range(10)] == (
        ["train"] * 7 + ["val"] + ["test"] * 2
    )


def test_features_exchangeable_with_oracle():
    rng = np.random.default_rng(4)
    world = random_world(4, 2, rng)
    cfg = SynthConfig(world=world, n_recordings=1, seed=9)
    rec = gen_recording(cfg, 0)
    post = enumerate_posterior(world, rec.features)
    assert post.shape == (5**4,)
    assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_waveform_peak_count_tracks_rate():
    spec = _spec()
    h = Hypnogram.from_indices([0] * 4)  # W at 1.2 events/s
    wave = render_waveform(h, spec, np.random.default_rng(5))
    peaks = ampd_peaks(wave, spec.fs, window_s=30.0, overlap_s=0.0, max_scale_s=5.0)
    seg = peaks[(peaks >= 30 * spec.fs) & (peaks < 60 * spec.fs)]
    expected = 1.2 * 30
    assert abs(len(seg) - expected) <= 3 * np.sqrt(expected)


def test_rate_map_closed_loop_within_5_percent():
    # stage→rate {W: 1.2, R: 1.0, N2: 0.9}: the mean extracted rate per
    # stage over 100 epochs must track the map within ±5%.
    spec = _spec()
    targets = {SleepStage.W: 1.2, SleepStage.R: 1.0, SleepStage.N2: 0.9}
    for stage, rate in targets.items():
        h = Hypnogram.from_indices([int(stage)] * 100)
        wave = render_waveform(h, spec, np.random.default_rng(int(stage)))
        feats = epoch_rate_features(wave, spec.fs, "cardiac", 100)
        mean_rate = np.nanmean(feats)
        assert abs(mean_rate - rate) <= 0.05 * rate


def test_waveform_spec_validation():
    with pytest.raises(ValueError):
        _spec(stage_rates={SleepStage.W: 1.0})
    with pytest.raises(ValueError):
        _spec(fs=1.5)
    with pytest.raises(ValueError):
        _spec(stage_rates={s: -1.0 for s in SleepStage})


def test_sample_hypnogram_markov_lengths():
    rng = np.random.default_rng(6)
    world = random_world(6, 0, rng)
    h = sample_hypnogram(world, np.random.default_rng(0))
    assert len(h) == 6


# -- the scalar draws the block draws must reproduce ---------------------------


def _scalar_markov_hypnogram(world, rng):
    prior = world.prior
    stages = [int(rng.choice(5, p=prior.initial / prior.initial.sum()))]
    for _ in range(world.n_epochs - 1):
        row = prior.transition[stages[-1]]
        stages.append(int(rng.choice(5, p=row / row.sum())))
    return Hypnogram.from_indices(stages)


def _scalar_categorical_features(em, h, rng):
    return np.array(
        [rng.choice(em.n_symbols, p=em.table[s] / em.table[s].sum()) for s in h.to_indices()],
        dtype=np.float64,
    )


def _scalar_waveform(h, spec, rng):
    duration = len(h) * EPOCH_S
    n = int(round(duration * spec.fs))
    wave = spec.noise_sd * rng.standard_normal(n)
    sigma_w = max(spec.pulse_width_s * spec.fs / 2.355, 1.0)
    half = int(np.ceil(4 * sigma_w))
    kernel = spec.base_amplitude * np.exp(-0.5 * ((np.arange(-half, half + 1)) / sigma_w) ** 2)
    t = (0.5 + 0.1 * rng.random()) / spec.stage_rates[h[0]]
    while t < duration:
        center = int(round(t * spec.fs))
        lo = max(center - half, 0)
        hi = min(center + half + 1, n)
        if lo < hi:
            wave[lo:hi] += kernel[lo - (center - half):hi - (center - half)]
        rate = spec.stage_rates[h[min(int(t // EPOCH_S), len(h) - 1)]]
        interval = 1.0 / rate + spec.jitter_sd * rng.standard_normal()
        t += max(interval, 0.25 / rate)
    return wave


def _sparse_rows(rng, n_rows, n_cols):
    """Row-stochastic table with some zero entries (one per row stays positive)."""
    table = rng.uniform(0.0, 1.0, (n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.7)
    table[np.arange(n_rows), rng.integers(0, n_cols, n_rows)] += 0.1
    return table / table.sum(axis=1, keepdims=True)


def _assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 300),
       n_symbols=st.integers(1, 7))
def test_block_draws_equal_scalar_choices(seed, n_epochs, n_symbols):
    table_rng = np.random.default_rng(seed)
    init, *trans = _sparse_rows(table_rng, 6, 5)
    em = CategoricalEmission(_sparse_rows(table_rng, 5, n_symbols))
    world = WorldModel(n_epochs, MarkovPrior(init, np.array(trans)),
                       (("c", em), ("g", GaussianEmission(np.arange(5.0), np.ones(5)))))
    got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    h = sample_hypnogram(world, got_rng)
    assert h == _scalar_markov_hypnogram(world, want_rng)
    _assert_same_stream(got_rng, want_rng)
    feats = sample_features(world, h, got_rng)
    want_c = _scalar_categorical_features(em, h, want_rng)
    want_g = want_rng.normal(np.arange(5.0)[h.to_indices()], 1.0)
    assert feats["c"].tobytes() == want_c.tobytes()
    assert feats["g"].tobytes() == want_g.tobytes()
    _assert_same_stream(got_rng, want_rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 12),
       rates=st.lists(st.floats(0.01, 3.0), min_size=5, max_size=5),
       fs=st.floats(7.0, 130.0), jitter_sd=st.floats(0.0, 2.0),
       pulse_width_s=st.floats(0.01, 3.0))
def test_block_waveform_equals_pulse_by_pulse(seed, n_epochs, rates, fs, jitter_sd,
                                              pulse_width_s):
    spec = WaveformSpec(stage_rates=dict(zip(SleepStage, rates)), fs=fs, jitter_sd=jitter_sd,
                        pulse_width_s=pulse_width_s, base_amplitude=1.3, noise_sd=0.02)
    h = Hypnogram.from_indices(np.random.default_rng(seed).integers(0, 5, n_epochs))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = render_waveform(h, spec, got_rng)
    assert got.tobytes() == _scalar_waveform(h, spec, want_rng).tobytes()
    _assert_same_stream(got_rng, want_rng)
