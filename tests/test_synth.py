import numpy as np
import pytest

from fsdm.checks import random_world, single_atom_world
from fsdm.dsp import ampd_peaks, epoch_rate_features
from fsdm.hypno import Hypnogram, SleepStage
from fsdm.oracle import enumerate_posterior
from fsdm.synth import (
    SynthConfig,
    WaveformSpec,
    gen_recording,
    render_waveform,
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
