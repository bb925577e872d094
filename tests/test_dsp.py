import multiprocessing
import os

import numpy as np
import pytest

import fsdm._fork
import fsdm.dsp
from fsdm.checks import breathing_signal
from fsdm.dsp import (
    AMPD_OVERLAP_S,
    AMPD_WINDOW_S,
    KINDS,
    RATE_CATEGORIES,
    TARGET_FS,
    Awgn,
    RawSignal,
    SignalKind,
    ZeroSpan,
    _map_missing_indices,
    ampd_decimation,
    ampd_peaks,
    ampd_scale,
    ampd_window_starts,
    apply_filter,
    clip,
    degrade,
    design_butterworth,
    epoch_rate_features,
    interpolate_missing,
    peaks_to_rate,
    preprocess,
    read_signal_f32,
    resample,
    restore_zeros,
    sample_hold_upsample,
    scale_signal,
    write_signal_f32,
    zero_pad,
)


def _steady_gain_db(sos, freq, fs, duration):
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    y = apply_filter(sos, np.sin(2 * np.pi * freq * t))
    i0 = n // 2
    periods = int((duration / 2) * freq)
    i1 = i0 + int(round(periods / freq * fs))
    seg_t, seg = t[i0:i1], y[i0:i1]
    c = 2 * np.mean(seg * np.cos(2 * np.pi * freq * seg_t))
    s = 2 * np.mean(seg * np.sin(2 * np.pi * freq * seg_t))
    return 20 * np.log10(np.hypot(c, s))


def test_scale_examples():
    eeg = KINDS["eeg"]
    np.testing.assert_allclose(scale_signal(np.full(4, 1e-4), eeg), 1.0)
    np.testing.assert_allclose(scale_signal(np.full(4, 75e-6), eeg), 0.75)
    unit = SignalKind("unit", 1.0, None, None)
    x = np.array([0.5, -2.0])
    np.testing.assert_array_equal(scale_signal(x, unit), x)


def test_interpolate_missing_midpoint():
    out, missing = interpolate_missing(np.array([1.0, 0.0, 3.0]))
    np.testing.assert_array_equal(out, [1, 2, 3])
    np.testing.assert_array_equal(missing, [1])


def test_interpolate_missing_edge_fill():
    out, missing = interpolate_missing(np.array([0.0, 0.0, 5.0]))
    np.testing.assert_array_equal(out, [5, 5, 5])
    np.testing.assert_array_equal(missing, [0, 1])


def test_interpolate_missing_identity_when_no_zeros():
    x = np.array([1.0, 2.0, -3.0])
    out, missing = interpolate_missing(x)
    np.testing.assert_array_equal(out, x)
    assert missing.size == 0


def test_interpolate_missing_all_zero_unchanged():
    out, missing = interpolate_missing(np.zeros(5))
    np.testing.assert_array_equal(out, np.zeros(5))
    np.testing.assert_array_equal(missing, np.arange(5))


@pytest.mark.parametrize("mode,cutoff,duration", [
    ("lowpass", 49.0, 240.0),
    ("lowpass", 15.0, 240.0),
    ("highpass", 10.0, 240.0),
    ("highpass", 0.3, 600.0),
    ("highpass", 0.1, 1600.0),
])
def test_butterworth_minus_3db_at_cutoff(mode, cutoff, duration):
    sos = design_butterworth(mode, cutoff)
    gain = _steady_gain_db(sos, cutoff, 128.0, duration)
    assert -3.2 <= gain <= -2.8


def test_lowpass_dc_unity():
    sos = design_butterworth("lowpass", 49.0)
    out = apply_filter(sos, np.ones(int(60 * 128)))
    assert abs(out[-1] - 1.0) <= 1e-3


def test_highpass_rejects_dc():
    sos = design_butterworth("highpass", 0.3)
    out = apply_filter(sos, np.ones(int(600 * 128)))
    tail = np.abs(out[-int(10 * 128):]).max()
    assert 20 * np.log10(max(tail, 1e-300)) < -60


def test_filter_linearity():
    sos = design_butterworth("lowpass", 20.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    lhs = apply_filter(sos, 3.5 * x)
    rhs = 3.5 * apply_filter(sos, x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


def test_invalid_cutoff_rejected():
    with pytest.raises(ValueError):
        design_butterworth("lowpass", 64.0)
    with pytest.raises(ValueError):
        design_butterworth("highpass", 0.0)


def test_resample_passband_amplitude():
    t = np.arange(int(8 * 256)) / 256.0
    y = resample(np.sin(2 * np.pi * 10 * t), 256.0)
    t2 = np.arange(y.size) / 128.0
    seg = slice(y.size // 4, 3 * y.size // 4)
    c = 2 * np.mean(y[seg] * np.cos(2 * np.pi * 10 * t2[seg]))
    s = 2 * np.mean(y[seg] * np.sin(2 * np.pi * 10 * t2[seg]))
    assert abs(np.hypot(c, s) - 1.0) < 0.01


def test_resample_identity_same_rate():
    x = np.random.default_rng(1).standard_normal(128)
    np.testing.assert_array_equal(resample(x, 128.0), x)


def test_sample_hold_upsample_repeats():
    out = sample_hold_upsample(np.array([1.0, 2.0, 3.0]), 32.0)
    np.testing.assert_array_equal(out, np.repeat([1.0, 2.0, 3.0], 4))


def test_sample_hold_requires_integer_ratio():
    with pytest.raises(ValueError):
        sample_hold_upsample(np.ones(4), 48.0)


def test_restore_and_clip_and_pad():
    x = np.array([7.0, -9.0, 1.0, 2.0])
    clipped = clip(x)
    np.testing.assert_array_equal(clipped, [5.0, -5.0, 1.0, 2.0])
    restored = restore_zeros(clipped, np.array([2]))
    assert restored[2] == 0.0
    padded, valid = zero_pad(np.ones(10 * 30 * 128), target_epochs=1792)
    assert padded.size == 1792 * 30 * 128
    assert valid == 10
    assert np.all(padded[10 * 30 * 128:] == 0.0)


def test_zero_pad_rejects_oversized():
    with pytest.raises(ValueError):
        zero_pad(np.ones(3 * 30 * 128), target_epochs=2)


def test_ampd_one_hertz_sine():
    fs = 64.0
    t = np.arange(int(10 * fs)) / fs
    peaks = ampd_peaks(np.sin(2 * np.pi * t), fs, max_scale_s=5.0)
    assert 9 <= peaks.size <= 11


def test_ampd_constant_signal_no_peaks():
    assert ampd_peaks(np.ones(640), 64.0).size == 0


def test_ampd_superposed_sines_dominant_period():
    # Oracle: maxima of the dominant 1 Hz component sit at t = 0.25 + k.
    fs = 64.0
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2 * np.pi * t) + 0.15 * np.sin(2 * np.pi * 8 * t)
    peaks = ampd_peaks(x, fs, max_scale_s=5.0)
    assert 18 <= peaks.size <= 21
    expected = 0.25 + np.arange(20)
    offsets = [np.min(np.abs(p / fs - expected)) for p in peaks]
    assert max(offsets) < 0.1


def test_ampd_window_longer_than_signal_is_single_window():
    fs = 64.0
    t = np.arange(int(10 * fs)) / fs
    x = np.sin(2 * np.pi * t)
    a = ampd_peaks(x, fs, window_s=600.0, overlap_s=120.0, max_scale_s=5.0)
    b = ampd_peaks(x, fs, window_s=10.0, overlap_s=0.0, max_scale_s=5.0)
    np.testing.assert_array_equal(a, b)


def test_ampd_decimation_keeps_the_nyquist_rate_of_the_low_pass_band():
    assert ampd_decimation(128.0, None) == 1
    assert {name: ampd_decimation(128.0, k.lp_cutoff) for name, k in KINDS.items()
            if ampd_decimation(128.0, k.lp_cutoff) > 1} == {"rip_belt": 4, "thermistor": 4}
    assert ampd_decimation(128.0, 100.0) == 1


def test_ampd_windows_with_fewer_scales_than_the_decimation_search_all_scales():
    x = np.array([0.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    for n in range(4, x.size + 1):
        # max_scale = (n - 1) // 2 is below D = 4: no decimated search.
        np.testing.assert_array_equal(
            ampd_peaks(x[:n], TARGET_FS, max_scale_s=60.0, bandwidth_hz=15.0),
            ampd_peaks(x[:n], TARGET_FS, max_scale_s=60.0))


@pytest.mark.parametrize("kind_name", ["rip_belt", "thermistor"])
@pytest.mark.parametrize("seed", [0, 1])
def test_preprocess_peaks_and_rate_equal_the_full_scalogram(kind_name, seed):
    # 20 minutes: three 600 s windows, the last overlapping the second.
    raw = breathing_signal(KINDS[kind_name], 40, np.random.default_rng(seed))
    processed = preprocess(raw, target_epochs=40)
    s = processed.samples
    full = ampd_peaks(s, TARGET_FS, max_scale_s=60.0)
    fast = ampd_peaks(s, TARGET_FS, max_scale_s=60.0, bandwidth_hz=raw.kind.lp_cutoff)
    np.testing.assert_array_equal(fast, full)
    np.testing.assert_array_equal(processed.rate,
                                  peaks_to_rate(full, TARGET_FS, "respiratory", s.size))
    # The refinement also recovers the exact scale of the first window,
    # which the coarse search alone misses on these recordings.
    window = s[:int(AMPD_WINDOW_S * TARGET_FS)]
    assert ampd_scale(window, 7680, 4) == ampd_scale(window, 7680)


@pytest.mark.parametrize("kind_name", [k.name for k in KINDS.values()
                                       if k.category in RATE_CATEGORIES])
def test_preprocess_makes_one_scalogram_call_per_window(kind_name, monkeypatch, tmp_path):
    # Kinds low-passed at 49 Hz (D = 1) search every scale of the
    # full-rate window; the two 15 Hz kinds (D = 4) search a quarter of
    # them on every 4th sample.  The stub's flat scalogram keeps the run
    # cheap.  It logs its calls to a file, so that the calls a forked
    # worker makes for its windows count too.
    log = tmp_path / "calls"
    log.touch()

    def gamma(x, max_scale):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{x.size} {max_scale}\n")
        return np.zeros(max_scale, dtype=np.int64)

    monkeypatch.setattr(fsdm.dsp, "ampd_gamma", gamma)
    kind = KINDS[kind_name]
    x = np.random.default_rng(2).standard_normal(int(12 * 60 * TARGET_FS)) / kind.scale
    preprocess(RawSignal(x, TARGET_FS, kind), target_epochs=24)
    window = int(AMPD_WINDOW_S * TARGET_FS)
    windows = len(ampd_window_starts(x.size, window, window - int(AMPD_OVERLAP_S * TARGET_FS)))
    cap, _ = RATE_CATEGORIES[kind.category]
    d = ampd_decimation(TARGET_FS, kind.lp_cutoff)
    assert windows == 2
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert calls == [(-(-window // d), int(cap * TARGET_FS) // d)] * windows


def _ampd_cases():
    """Signals that stress the per-window search: ties, exact-zero runs,
    clipped plateaus and constant windows, at 128 Hz, 30 s long."""
    rng = np.random.default_rng(11)
    t = np.arange(30 * 128) / TARGET_FS
    sine = np.sin(2 * np.pi * 1.3 * t) + 0.2 * rng.standard_normal(t.size)
    zeros = sine.copy()
    zeros[700:1500] = 0.0
    zeros[2900:2950] = 0.0
    constant = sine.copy()
    constant[1000:2200] = 0.5
    return {
        "ties": np.round(2 * rng.standard_normal(t.size)),
        "zero runs": zeros,
        "plateaus": np.clip(3 * sine, -3.0, 3.0),
        "constant windows": constant,
    }


def _count_ranges(monkeypatch):
    """The list that each later fork_map call appends its range count to."""
    counts = []
    fork_map = fsdm._fork.fork_map

    def counted(fn, items, n_ranges):
        counts.append(n_ranges)
        return fork_map(fn, items, n_ranges)

    monkeypatch.setattr(fsdm._fork, "fork_map", counted)
    return counts


def _split_ampd(monkeypatch, cores, *args, **kwargs):
    """ampd_peaks with the split open at any work and ``cores`` usable
    cores, and the range count it ran."""
    with monkeypatch.context() as m:
        m.setattr(fsdm.dsp, "_SPLIT_MIN_WORK", 0)
        m.setattr(fsdm.dsp, "_usable_cores", lambda: cores)
        counts = _count_ranges(m)
        peaks = ampd_peaks(*args, **kwargs)
    return peaks, counts


@pytest.mark.parametrize("case", list(_ampd_cases()))
@pytest.mark.parametrize("bandwidth_hz, window_s", [(None, 2.0), (15.0, 2.0), (15.0, 0.06)])
def test_split_ampd_peaks_equal_the_in_process_ones_bitwise(monkeypatch, case, bandwidth_hz,
                                                          window_s):
    # 2 s windows hold 256 samples; 0.06 s windows hold 8, so their 3
    # scales are fewer than D = 4 and the whole range is searched.
    x = _ampd_cases()[case]
    kwargs = dict(window_s=window_s, overlap_s=window_s / 4, max_scale_s=1.0,
                  bandwidth_hz=bandwidth_hz)
    want, counts = _split_ampd(monkeypatch, 1, x, TARGET_FS, **kwargs)
    assert counts == [1] and want.size > 0
    windows = len(ampd_window_starts(x.size, int(round(window_s * TARGET_FS)),
                                     int(round(window_s * TARGET_FS))
                                     - int(round(window_s / 4 * TARGET_FS))))
    for cores in (2, 3, 8):
        got, counts = _split_ampd(monkeypatch, cores, x, TARGET_FS, **kwargs)
        assert counts == [min(cores, windows)], cores
        assert got.dtype == want.dtype and np.array_equal(got, want), cores
    _no_child_left()


def _no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind_name, fs", [("finger_ppg", 64.0), ("rip_belt", 32.0)])
def test_two_hour_preprocess_bytes_do_not_depend_on_the_split(monkeypatch, kind_name, fs):
    from fsdm.hypno import Hypnogram
    from fsdm.synth import WaveformSpec, render_waveform

    rates = {"finger_ppg": (1.1, 1.0, 0.95, 0.85, 1.05), "rip_belt": (0.33, 0.29, 0.25, 0.22, 0.31)}
    rng = np.random.default_rng(12)
    spec = WaveformSpec(stage_rates=dict(enumerate(rates[kind_name])), base_amplitude=100.0,
                        noise_sd=2.0, fs=fs, pulse_width_s=0.3 if fs == 64.0 else 1.5,
                        kind_name=kind_name)
    wave = render_waveform(Hypnogram.from_indices(rng.integers(0, 5, 240)), spec, rng)
    wave[10_000:12_000] = 0.0
    raw = RawSignal(wave, fs, KINDS[kind_name])
    runs, counts = {}, _count_ranges(monkeypatch)
    for cores in (1, 2):
        monkeypatch.setattr(fsdm.dsp, "_usable_cores", lambda: cores)
        p = preprocess(raw, target_epochs=240)
        runs[cores] = (p.samples.tobytes(), p.rate.tobytes(), p.missing_indices.tobytes(),
                       p.valid_epochs)
    assert counts == [1, 2]
    assert runs[2] == runs[1]
    _no_child_left()


def test_a_value_error_in_a_worker_window_reaches_rate_as_a_value_error(monkeypatch):
    caller = os.getpid()
    local_maxima = fsdm.dsp.ampd_local_maxima

    def fail_in_a_worker(x, lam):
        if os.getpid() != caller:
            raise ValueError("injected in a worker")
        return local_maxima(x, lam)

    x = _ampd_cases()["plateaus"]
    monkeypatch.setattr(fsdm.dsp, "ampd_local_maxima", fail_in_a_worker)
    monkeypatch.setattr(fsdm.dsp, "_SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(fsdm.dsp, "_usable_cores", lambda: 2)
    with pytest.raises(ValueError, match="^injected in a worker$"):
        ampd_peaks(x, TARGET_FS, window_s=2.0, overlap_s=0.5)
    assert fsdm.dsp._rate(x, TARGET_FS, "cardiac", x.size, 2.0, 0.5) is None
    _no_child_left()


def test_calls_below_the_split_gate_start_no_process(monkeypatch):
    from fsdm.experiments import PULSE_SPEC, extract_binned_features
    from fsdm.hypno import Hypnogram
    from fsdm.synth import render_waveform

    def no_process(self):
        raise AssertionError("a call below the gate started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    monkeypatch.setattr(fsdm.dsp, "_usable_cores", lambda: 8)
    # The degradation sweep's six 30 s windows.
    rng = np.random.default_rng(13)
    wave = render_waveform(Hypnogram.from_indices([0, 1, 2, 2, 3, 4]), PULSE_SPEC, rng)
    assert np.count_nonzero(extract_binned_features(wave)) == 6
    # One 300 s finger_ppg channel through preprocess: a single window.
    raw = RawSignal(rng.standard_normal(300 * 64) * 100 + 1.0, 64.0, KINDS["finger_ppg"])
    assert preprocess(raw, target_epochs=10).rate is not None


def test_a_bad_window_layout_is_an_error_not_a_missing_rate():
    wave = _pulse_wave(20)
    with pytest.raises(ValueError, match="overlap"):
        epoch_rate_features(wave, 64.0, "cardiac", 20, window_s=30.0, overlap_s=30.0)
    with pytest.raises(ValueError, match="overlap"):
        ampd_peaks(wave, 64.0, window_s=30.0, overlap_s=30.0)


def _loop_map_missing(missing, fs_from, n_out):
    """Run-by-run reference for the missing-index mapping."""
    ratio = TARGET_FS / fs_from
    mapped, runs = [], []
    for i in missing.tolist():
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    for first, last in runs:
        a = int(round(first * ratio))
        b = int(round((last + 1) * ratio))
        mapped.extend(range(max(a, 0), min(b, n_out)))
    return np.array(mapped, dtype=np.int64)


@pytest.mark.parametrize("missing", [
    [], [0], [7], [19], [0, 1, 2], [3, 4, 6, 7, 9], [0, 2, 3, 4, 10, 18, 19],
    list(range(20)), [1, 3, 5, 7, 9, 11],
])
@pytest.mark.parametrize("fs_from", [50.0, 64.0, 128.0, 200.0, 256.0, 512.0])
def test_map_missing_indices_equals_run_loop(missing, fs_from):
    missing = np.array(missing, dtype=np.int64)
    n_out = int(round(20 * TARGET_FS / fs_from))
    for n in (n_out, n_out - 3, 0):
        got = _map_missing_indices(missing, fs_from, n)
        want = _loop_map_missing(missing, fs_from, n)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_signal_rejects_non_finite_samples(bad):
    x = np.ones(100)
    x[[3, 50]] = bad
    with pytest.raises(ValueError, match="2 non-finite samples"):
        RawSignal(x, 128.0, KINDS["finger_ppg"])


def test_peaks_to_rate_uniform_cardiac():
    fs = 128.0
    peaks = (np.arange(8) * fs).astype(int)
    rate = peaks_to_rate(peaks, fs, "cardiac", n_out=int(8 * fs))
    np.testing.assert_allclose(rate, 1.0)


def test_peaks_to_rate_invalid_interval_held():
    fs = 128.0
    peaks = (np.array([0, 1, 2, 3, 3.25, 4.25, 5.25]) * fs).astype(int)
    rate = peaks_to_rate(peaks, fs, "cardiac", n_out=int(6 * fs))
    np.testing.assert_allclose(rate, 1.0)


def test_peaks_to_rate_respiratory():
    fs = 128.0
    peaks = (np.arange(8) * 4.0 * fs).astype(int)
    rate = peaks_to_rate(peaks, fs, "respiratory", n_out=int(28 * fs))
    np.testing.assert_allclose(rate, 0.25)


def test_peaks_to_rate_piecewise_constant_positive():
    fs = 64.0
    rng = np.random.default_rng(2)
    times = np.cumsum(rng.uniform(0.7, 1.3, 30))
    peaks = (times * fs).astype(int)
    rate = peaks_to_rate(peaks, fs, "cardiac", n_out=2 * (peaks[-1] + 1))
    assert np.all(rate > 0)
    assert np.unique(rate).size <= 30


def test_peaks_to_rate_holds_leading_invalid_intervals_at_the_first_valid_rate():
    # Intervals 0.125, 0.125 (invalid), 1 and 0.5 s: rates 1 until the
    # fourth peak, then 2, held to the end.
    rate = peaks_to_rate(np.array([10, 26, 42, 170, 234]), 128.0, "cardiac", n_out=256)
    np.testing.assert_array_equal(rate, np.repeat([1.0, 2.0], [170, 86]))


def test_peaks_to_rate_clips_a_bound_past_n_out():
    # At 64 Hz the last peak maps to sample 320, past n_out = 256.
    rate = peaks_to_rate(np.array([0, 64, 96, 160]), 64.0, "cardiac", n_out=256)
    np.testing.assert_array_equal(rate, np.repeat([1.0, 2.0, 1.0], [128, 64, 64]))


def test_peaks_to_rate_two_peaks_on_one_output_sample():
    # At 256 Hz peaks 256 and 257 both map to sample 128; their invalid
    # interval holds the rate 1 for no samples.
    rate = peaks_to_rate(np.array([0, 256, 257, 512]), 256.0, "cardiac", n_out=300)
    np.testing.assert_array_equal(rate, np.repeat([1.0, 256 / 255], [128, 172]))


def test_peaks_to_rate_holds_the_last_rate_after_the_last_peak():
    rate = peaks_to_rate(np.array([0, 128, 192]), 128.0, "cardiac", n_out=384)
    np.testing.assert_array_equal(rate, np.repeat([1.0, 2.0], [128, 256]))


@pytest.mark.parametrize("peaks", [[0, 128, 64], [0, 128, 128, 256]])
def test_peaks_to_rate_requires_strictly_increasing_peaks(peaks, monkeypatch):
    with pytest.raises(ValueError, match="peaks must be strictly increasing"):
        peaks_to_rate(np.array(peaks), 128.0, "cardiac", n_out=384)
    # _rate reads the error as a failed extraction: no rate.
    monkeypatch.setattr(fsdm.dsp, "ampd_peaks", lambda *args, **kwargs: np.array(peaks))
    assert fsdm.dsp._rate(np.zeros(384), 128.0, "cardiac", 384, 30.0, 0.0) is None


def test_peaks_to_rate_needs_two_peaks():
    with pytest.raises(ValueError):
        peaks_to_rate(np.array([5]), 64.0, "cardiac", n_out=128)


def test_degrade_zero_span_full():
    x = np.random.default_rng(3).standard_normal(100)
    np.testing.assert_array_equal(degrade(x, ZeroSpan(0.0, 1.0), 0), np.zeros(100))


def test_degrade_awgn_60db_small():
    x = np.sin(np.linspace(0, 40, 4096))
    noisy = degrade(x, Awgn(60.0), 7)
    rel = np.sqrt(np.mean((noisy - x) ** 2)) / np.sqrt(np.mean(x**2))
    assert rel < 0.002


def test_degrade_awgn_reproducible_bitwise():
    x = np.random.default_rng(4).standard_normal(256)
    a = degrade(x, Awgn(10.0), 99)
    b = degrade(x, Awgn(10.0), 99)
    np.testing.assert_array_equal(a, b)


def test_degrade_mid_night_disconnection_scenario():
    x = np.ones(1000)
    out = degrade(x, ZeroSpan(0.5, 1.0), 0)
    assert np.all(out[:500] == 1.0)
    assert np.all(out[500:] == 0.0)


def test_preprocess_all_zero_in_all_zero_out():
    raw = RawSignal(np.zeros(int(2 * 30 * 128)), 128.0, KINDS["eeg"])
    processed = preprocess(raw, target_epochs=4)
    np.testing.assert_array_equal(processed.samples, np.zeros(4 * 30 * 128))


def test_preprocess_spo2_skips_filters_and_sample_holds():
    # 32 Hz input, filterless kind: values survive scaling + clipping only.
    x = np.full(int(1 * 30 * 32), 95.0)
    raw = RawSignal(x, 32.0, KINDS["spo2"])
    processed = preprocess(raw, target_epochs=2)
    np.testing.assert_allclose(processed.samples[: x.size * 4], 0.95)
    assert processed.valid_epochs == 1


def test_preprocess_idempotent_for_clean_in_range_signal():
    # A clean, in-range, 128 Hz signal through a filterless scale-1 kind
    # passes unchanged, so a second application is exactly idempotent.
    kind = SignalKind("clean", 1.0, None, None)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.2, 1.5, int(2 * 30 * 128))
    once = preprocess(RawSignal(x, 128.0, kind), target_epochs=3)
    twice = preprocess(RawSignal(once.samples, 128.0, kind), target_epochs=3)
    np.testing.assert_array_equal(once.samples[: x.size], x)
    np.testing.assert_array_equal(twice.samples, once.samples)


def test_preprocess_reapplication_preserves_midband_amplitude():
    # Causal filters add phase on every pass, so re-application is only
    # idempotent up to transients/phase; the mid-band amplitude must stay.
    fs = 128.0
    t = np.arange(int(300 * fs)) / fs
    x = np.sin(2 * np.pi * 5.0 * t)
    kind = KINDS["nasal_cannula"]
    once = preprocess(RawSignal(x, fs, kind), target_epochs=11)
    twice = preprocess(RawSignal(once.samples[: x.size], fs, kind), target_epochs=11)

    def amp(y):
        seg = slice(int(250 * fs), x.size)
        c = 2 * np.mean(y[seg] * np.cos(2 * np.pi * 5.0 * t[seg]))
        s = 2 * np.mean(y[seg] * np.sin(2 * np.pi * 5.0 * t[seg]))
        return np.hypot(c, s)

    assert abs(amp(twice.samples) - amp(once.samples)) < 0.01


def test_preprocess_missing_indices_are_exact_zeros():
    fs = 64.0
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 1.5, int(2 * 30 * fs))
    x[100:200] = 0.0
    raw = RawSignal(x, fs, KINDS["nasal_cannula"])
    processed = preprocess(raw, target_epochs=3)
    assert processed.missing_indices.size >= 100
    np.testing.assert_array_equal(processed.samples[processed.missing_indices], 0.0)


def test_preprocess_cardiac_yields_rate():
    from fsdm.hypno import Hypnogram, SleepStage
    from fsdm.synth import WaveformSpec, render_waveform

    spec = WaveformSpec(
        stage_rates={s: 1.0 for s in SleepStage}, base_amplitude=1.0,
        noise_sd=0.01, fs=128.0, jitter_sd=0.005, pulse_width_s=0.08,
    )
    wave = render_waveform(Hypnogram.from_indices([0, 0]), spec, np.random.default_rng(6))
    raw = RawSignal(wave, 128.0, KINDS["finger_ppg"])
    processed = preprocess(raw, target_epochs=3)
    assert processed.rate is not None
    mid = processed.rate[int(10 * 128):int(50 * 128)]
    assert abs(np.mean(mid) - 1.0) < 0.1


def _pulse_wave(n_epochs):
    """A 1 Hz pulse train at 64 Hz over n_epochs wake epochs."""
    from fsdm.hypno import Hypnogram, SleepStage
    from fsdm.synth import WaveformSpec, render_waveform

    spec = WaveformSpec(
        stage_rates={s: 1.0 for s in SleepStage}, base_amplitude=1.0,
        noise_sd=0.02, fs=64.0, jitter_sd=0.01, pulse_width_s=0.35,
    )
    return render_waveform(Hypnogram.from_indices([0] * n_epochs), spec,
                           np.random.default_rng(7))


def test_epoch_rate_features_missing_epochs_nan():
    wave = _pulse_wave(4)
    wave[wave.size // 2:] = 0.0
    feats = epoch_rate_features(wave, 64.0, "cardiac", 4)
    assert np.isnan(feats[2:]).all()
    assert np.all(np.abs(feats[:2] - 1.0) < 0.1)


@pytest.mark.parametrize("category", ["Cardiac", "other"])
def test_rate_of_unknown_category_is_an_error(category):
    # Not a silent all-NaN result: only cardiac and respiratory have rates.
    wave = _pulse_wave(4)
    with pytest.raises(ValueError, match="category"):
        epoch_rate_features(wave, 64.0, category, 4)
    with pytest.raises(ValueError, match="category"):
        peaks_to_rate(np.array([0, 64, 128]), 64.0, category, n_out=512)


def test_f32_round_trip(tmp_path):
    x = np.array([0.5, -1.25, 3.0])
    path = tmp_path / "sig.f32"
    write_signal_f32(path, x)
    assert path.stat().st_size == 12
    np.testing.assert_allclose(read_signal_f32(path), x)
