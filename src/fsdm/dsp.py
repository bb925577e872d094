"""Signal preprocessing pipeline, rate extraction, and degradation.

The pipeline is the same for every signal kind: constant scaling,
linear interpolation across exact-zero (missing) samples, resampling to
128 Hz, fifth-order Butterworth high-/low-pass filtering, restoration
of the missing samples to exact zeros, clipping to [−5, 5], and
zero-padding to a common epoch count.  Cardiac and respiratory kinds
additionally yield an instantaneous rate signal: multi-scale peak
detection, inter-event intervals by sample-and-hold, removal of
biologically implausible intervals, and conversion to events/second.
``ampd_window_plan`` is the one place that lays out the AMPD windows
and the scales each one searches; peak detection, the rate extraction's
layout check and the ``ampd`` oracle-check suite all read it.
``preprocess`` chooses each AMPD window's scale on a copy of the window
low-passed at its rate category's search band B (cardiac 16 Hz,
respiratory 4 Hz) and decimated by D = ⌊128 / 2B⌋ (4 and 16), and
refines it on the unfiltered window at the full rate; the kind's own
low-pass plays no part.  ``epoch_rate_features`` keeps the exact search.
Peaks are always detected on the unfiltered window at the full rate.
Each window's scale search and peak mask depend on that window alone,
so a call with enough work splits its windows into contiguous ranges,
one per usable core: the calling process searches the first range and a
forked worker each other range (``_fork.fork_map``), and the peaks join
in window order, the same for any split.  Raw samples must be finite.

Filtering is causal single-pass (the label-alignment consequences of a
zero-phase variant are a deliberate non-feature here).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fork
from ._fork import usable_cores as _usable_cores
from ._kernels import ampd_gamma, ampd_gamma_range, ampd_local_maxima
from .hypno import EPOCH_S

TARGET_FS = 128.0
TARGET_EPOCHS = 1792
CLIP_LO, CLIP_HI = -5.0, 5.0

CARDIAC_MAX_SCALE_S = 5.0
RESPIRATORY_MAX_SCALE_S = 60.0
# Per rate category: the AMPD scale cap and the plausible inter-event
# interval range, in seconds, and the band in Hz that preprocess
# searches the AMPD scale on (see ampd_scale).  A pulse lives below
# 16 Hz and a breath below 4 Hz.  Other categories yield no rate.
RATE_CATEGORIES = {
    "cardiac": (CARDIAC_MAX_SCALE_S, (0.3, 2.0), 16.0),
    "respiratory": (RESPIRATORY_MAX_SCALE_S, (1.0, 30.0), 4.0),
}
AMPD_WINDOW_S, AMPD_OVERLAP_S = 600.0, 120.0
# ampd_peaks splits its windows across worker processes only from this
# many scalogram cells per call (see the estimate there).  A fork costs
# ~4 ms.  On a 2-vCPU VM (shared host), with two ranges and the category
# bands, a split call took this many times the in-process time (medians
# of 11 alternated pairs, the range over 3 runs): cardiac 0.58–0.65 at
# 230 M cells (an 8-hour channel) and 0.63–0.71 at 115 M (4 hours),
# respiratory 0.54–0.60 at 350 M (8 hours) and 0.59 at 175 M (4 hours).
# At 2-hour sizes the runs move with the load of the shared host:
# cardiac 0.68–0.72 at 58 M and respiratory 0.70–0.74 at 88 M in one set
# of runs, 1.03–1.30 and 0.55–1.14 in an earlier one, which also read
# 1.33–1.36 at 46 M and 1.74–1.83 at 15 M cardiac.  So 2-hour channels
# and the degradation sweep's six 30 s windows (3.7 M) stay in the
# calling process.
_SPLIT_MIN_WORK = 100_000_000
# An epoch with more than this fraction of exact-zero samples is missing.
MISSING_FRAC = 0.5

# Kaiser beta 7.0 puts the resampler's stopband past 70 dB.
_KAISER_BETA = 7.0
# Order of every high- and low-pass Butterworth filter.
FILTER_ORDER = 5


@dataclass(frozen=True)
class SignalKind:
    name: str
    scale: float
    hp_cutoff: float | None
    lp_cutoff: float | None
    category: str = "other"  # "cardiac" | "respiratory" | "other"
    sample_hold: bool = False

    def __post_init__(self):
        if self.category not in (*RATE_CATEGORIES, "other"):
            raise ValueError(f"unknown category {self.category!r}")


# Per-kind scale and filter settings (cutoffs in Hz).
KINDS: dict[str, SignalKind] = {
    k.name: k
    for k in [
        SignalKind("eeg", 1e4, 0.3, 49.0),
        SignalKind("eog", 1e4, 0.3, 49.0),
        SignalKind("emg_chin", 1e4, 10.0, 49.0),
        SignalKind("ecg", 1e3, 0.3, 49.0, category="cardiac"),
        SignalKind("rip_belt", 1e-2, 0.1, 15.0, category="respiratory"),
        SignalKind("thermistor", 1e4, 0.1, 15.0, category="respiratory"),
        SignalKind("nasal_cannula", 1.0, 0.03, 49.0, category="respiratory"),
        SignalKind("pap_flow", 10.0, 0.03, 49.0, category="respiratory"),
        SignalKind("suprasternal_notch", 10.0, 0.03, 49.0, category="respiratory"),
        SignalKind("esophageal_pressure", 1e-1, 0.03, 49.0, category="respiratory"),
        SignalKind("snore_microphone", 1e3, 10.0, 49.0),
        SignalKind("finger_ppg", 1e-2, 0.3, 49.0, category="cardiac"),
        SignalKind("spo2", 1e-2, None, None, sample_hold=True),
        SignalKind("emg_fds", 1e4, 10.0, 49.0),
        SignalKind("emg_leg", 1e4, 10.0, 49.0),
        SignalKind("emg_scm", 1e4, 10.0, 49.0),
        SignalKind("ihr", 1.0 / 60.0, None, None),
        SignalKind("ibr", 1.0 / 60.0, None, None),
    ]
}


@dataclass(frozen=True)
class RawSignal:
    """One recorded channel: finite 1-D samples at ``fs`` Hz.

    A float64 array is kept as the caller's own array: it is neither
    copied nor made read-only, so a later write to it would reach the
    signal past the finiteness check.  The caller hands the array over.
    A signal is the largest array in the front end, and a private
    read-only copy raised the ``signal-2h`` benchmark's peak RSS from
    170.7–172.1 to 174.7–175.5 MB (3 alternated 6 s runs, 2-vCPU VM).
    """

    samples: np.ndarray
    fs: float
    kind: SignalKind

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("signal must be a nonempty 1-D array")
        if self.fs <= 0:
            raise ValueError("sampling rate must be positive")
        bad = int(np.count_nonzero(~np.isfinite(s)))
        if bad:
            raise ValueError(f"signal holds {bad} non-finite samples")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class ProcessedSignal:
    samples: np.ndarray            # at 128 Hz, zero-padded
    valid_epochs: int
    rate: np.ndarray | None        # events/s at 128 Hz, same padding
    missing_indices: np.ndarray    # indices reset to zero, at 128 Hz


def scale_signal(s: np.ndarray, kind: SignalKind) -> np.ndarray:
    return np.asarray(s, dtype=np.float64) * kind.scale


def interpolate_missing(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace exact zeros by linear interpolation between nonzero neighbors.

    Leading and trailing zero runs take the nearest nonzero value.  An
    all-zero signal is returned unchanged with the full index set.
    """
    s = np.asarray(s, dtype=np.float64)
    missing = np.flatnonzero(s == 0.0)
    if missing.size == 0:
        return s.copy(), missing
    present = np.flatnonzero(s != 0.0)
    if present.size == 0:
        return s.copy(), missing
    out = s.copy()
    out[missing] = np.interp(missing, present, s[present])
    return out, missing


def _signal():
    """``scipy.signal``, imported on first use: its import takes over a
    second, and most commands never filter or resample."""
    from scipy import signal
    return signal


def design_butterworth(mode: str = "lowpass", cutoff_hz: float = 49.0) -> np.ndarray:
    """Second-order-section Butterworth filter at TARGET_FS; −3 dB at the cutoff."""
    if mode not in ("lowpass", "highpass"):
        raise ValueError("mode must be 'lowpass' or 'highpass'")
    if not 0 < cutoff_hz < TARGET_FS / 2:
        raise ValueError("cutoff must lie in (0, fs/2)")
    return _signal().butter(FILTER_ORDER, cutoff_hz, btype=mode, fs=TARGET_FS, output="sos")


def apply_filter(sos: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Causal single-pass filtering."""
    return _signal().sosfilt(sos, np.asarray(s, dtype=np.float64))


def resample(s: np.ndarray, fs_from: float) -> np.ndarray:
    """Polyphase windowed-sinc resampling to TARGET_FS (Kaiser window)."""
    s = np.asarray(s, dtype=np.float64)
    if fs_from == TARGET_FS:
        return s.copy()
    ratio = TARGET_FS / fs_from
    frac = Fraction(ratio).limit_denominator(10_000)
    if abs(float(frac) - ratio) > 1e-9:
        raise ValueError(f"rate ratio {fs_from} -> {TARGET_FS} is not usably rational")
    return _signal().resample_poly(s, frac.numerator, frac.denominator,
                                   window=("kaiser", _KAISER_BETA))


def sample_hold_upsample(s: np.ndarray, fs_from: float) -> np.ndarray:
    """Repeat each sample TARGET_FS/fs_from times (integer ratio required)."""
    s = np.asarray(s, dtype=np.float64)
    ratio = TARGET_FS / fs_from
    if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
        raise ValueError("sample-and-hold requires an integer upsampling ratio")
    return np.repeat(s, int(round(ratio)))


def restore_zeros(s: np.ndarray, missing: np.ndarray) -> np.ndarray:
    out = np.asarray(s, dtype=np.float64).copy()
    if missing.size:
        out[missing] = 0.0
    return out


def clip(s: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(s, dtype=np.float64), CLIP_LO, CLIP_HI)


def zero_pad(s: np.ndarray, target_epochs: int = TARGET_EPOCHS) -> tuple[np.ndarray, int]:
    """Pad 128 Hz samples to target_epochs epochs; returns (padded, valid_epochs).

    valid_epochs counts epochs containing any real data; padding must be
    excluded from every downstream metric.
    """
    s = np.asarray(s, dtype=np.float64)
    epoch_samples = int(round(EPOCH_S * TARGET_FS))
    target = target_epochs * epoch_samples
    if s.size > target:
        raise ValueError(f"signal of {s.size} samples exceeds the {target}-sample target")
    valid = int(np.ceil(s.size / epoch_samples))
    out = np.zeros(target)
    out[: s.size] = s
    return out, valid


def _map_missing_indices(missing: np.ndarray, fs_from: float, n_out: int) -> np.ndarray:
    """Map missing-sample runs proportionally onto the TARGET_FS grid.

    A run of consecutive indices [i, j] maps to [round(i·r), round((j+1)·r))
    with r = TARGET_FS/fs_from, rounding half to even, clipped to n_out.
    """
    if missing.size == 0:
        return missing
    ratio = TARGET_FS / fs_from
    breaks = np.flatnonzero(np.diff(missing) != 1)
    first = missing[np.concatenate(([0], breaks + 1))]
    last = missing[np.concatenate((breaks, [missing.size - 1]))]
    lo = np.maximum(np.rint(first * ratio).astype(np.int64), 0)
    hi = np.minimum(np.rint((last + 1) * ratio).astype(np.int64), n_out)
    lengths = np.maximum(hi - lo, 0)
    # Each output index is its run's start plus its offset within the run.
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(lo - offsets, lengths)


def ampd_search(fs: float, search_hz: float | None) -> tuple[int, np.ndarray | None]:
    """The AMPD scale search on the band search_hz: its decimation
    D = max(1, ⌊fs / (2·search_hz)⌋) and the low-pass at search_hz that
    comes before it, for ampd_scale.

    Every D-th sample of a window low-passed at search_hz keeps the
    Nyquist rate of that band.  No band (None), or D = 1, is the exact
    search: (1, None).  The low-pass is designed at TARGET_FS, so a band
    with D > 1 at another fs is a ValueError.
    """
    decimation = 1 if search_hz is None else max(1, int(fs // (2.0 * search_hz)))
    if decimation == 1:
        return 1, None
    if fs != TARGET_FS:
        raise ValueError(f"an AMPD search band needs fs = {TARGET_FS:g} Hz, not {fs:g}")
    return decimation, design_butterworth("lowpass", search_hz)


def ampd_scale(x: np.ndarray, max_scale: int, decimation: int = 1,
               lowpass: np.ndarray | None = None) -> int:
    """The AMPD scale λ of one window: the first argmin of its scalogram
    over scales 1..max_scale.

    With decimation D > 1 the coarse search takes the scalogram of x
    low-passed by the second-order sections ``lowpass`` (causal, from
    rest) and decimated by D, over scales 1..max_scale // D; it gives
    λ0 = D·(argmin + 1).  λ is then the first argmin of the full-rate
    scalogram of the unfiltered x over the scales within D − 1 of λ0 and
    the scales below D.  A rhythm of period P samples has its scale near
    P / 2, so the scales below D are those of rhythms faster than the
    band, which the low-passed view cannot see.  D = 1, or fewer scales
    than D, is the exact search and needs no ``lowpass``.
    """
    if decimation == 1 or max_scale < decimation:
        return int(np.argmin(ampd_gamma(x, max_scale))) + 1
    coarse = ampd_gamma(apply_filter(lowpass, x)[::decimation], max_scale // decimation)
    lam0 = decimation * (int(np.argmin(coarse)) + 1)
    lo = max(decimation, lam0 - decimation + 1)
    hi = min(max_scale, lam0 + decimation - 1)
    scales = np.r_[1:decimation, lo:hi + 1]
    gamma = np.concatenate((ampd_gamma_range(x, 1, decimation - 1),
                            ampd_gamma_range(x, lo, hi)))
    return int(scales[np.argmin(gamma)])


def ampd_window_plan(n: int, fs: float, window_s: float, overlap_s: float,
                     max_scale_s: float) -> tuple[int, list[int], int]:
    """The AMPD windows over n samples at fs and the scales they search:
    (samples per window, window starts, largest scale).

    A window of window_s seconds starts every window_s − overlap_s
    seconds, and one more ends at n when the last would stop short of it;
    a signal no longer than a window is one window.  So every window holds
    the same number of samples, at most n, and searches the scales up to
    max_scale_s·fs, at most half its length.  ValueError when the overlap
    is not shorter than the window.
    """
    window_len = int(round(window_s * fs))
    step = window_len - int(round(overlap_s * fs))
    if step <= 0:
        raise ValueError("window overlap must be smaller than the window")
    starts = [0] if window_len >= n else list(range(0, n - window_len + 1, step))
    if window_len < n and starts[-1] + window_len < n:
        starts.append(n - window_len)
    length = min(window_len, n)
    return length, starts, min(int(round(max_scale_s * fs)), (length - 1) // 2)


def ampd_peaks(s: np.ndarray, fs: float, window_s: float = AMPD_WINDOW_S,
               overlap_s: float = AMPD_OVERLAP_S,
               max_scale_s: float = CARDIAC_MAX_SCALE_S,
               search_hz: float | None = None) -> np.ndarray:
    """Automatic multi-scale peak detection over overlapping windows.

    Within each window of ampd_window_plan the scale with the most local
    maxima is selected from the local-maxima scalogram over the plan's
    scales, and samples that are maxima at every scale up to it become
    peaks.  Peaks found by more than one window are kept once (earliest
    detection).
    With a search band search_hz, each window chooses its scale on its
    own copy low-passed at search_hz and decimated (see ampd_search), and
    refines it at the full rate (see ampd_scale).  No band is the exact
    search.  The peaks are always detected on the unfiltered window.
    From _SPLIT_MIN_WORK scalogram cells per call, the windows run as
    contiguous ranges, one per usable core, through ``_fork.fork_map``;
    the peaks are the same for any split.
    """
    s = np.asarray(s, dtype=np.float64)
    length, starts, max_scale = ampd_window_plan(s.size, fs, window_s, overlap_s, max_scale_s)
    decimation, lowpass = ampd_search(fs, search_hz)

    def peaks(chunk: list[int]) -> list[np.ndarray]:
        found = []
        for a in chunk:
            x = s[a:a + length]
            if x.size < 4 or max_scale < 1 or np.all(x == x[0]):
                continue
            mask = ampd_local_maxima(x, ampd_scale(x, max_scale, decimation, lowpass))
            found.append(a + np.flatnonzero(mask))
        return found

    # The exact search compares about window × max scale sample pairs per
    # window; a band search (window / D)·(max scale / D) in its coarse
    # search and up to window × (3D − 2) at the full rate.
    if decimation == 1 or max_scale < decimation:
        cells = length * max_scale
    else:
        cells = length * max_scale // decimation ** 2 + length * (3 * decimation - 2)
    work = len(starts) * cells
    n_ranges = _fork.range_count(len(starts), _usable_cores()) if work >= _SPLIT_MIN_WORK else 1
    found = [np.empty(0, dtype=np.int64)]
    for chunk_peaks in _fork.fork_map(peaks, starts, n_ranges):
        found.extend(chunk_peaks)
    return np.unique(np.concatenate(found))


def _rate_category(category: str) -> tuple[float, tuple[float, float], float]:
    """The category's (AMPD scale cap, interval range, search band);
    ValueError if it has none."""
    if category not in RATE_CATEGORIES:
        raise ValueError(f"no rate extraction for category {category!r}")
    return RATE_CATEGORIES[category]


def peaks_to_rate(peaks: np.ndarray, fs: float, category: str, n_out: int) -> np.ndarray:
    """Convert strictly increasing peak indices to an n_out-sample
    events/second signal at 128 Hz.

    Each interval's rate holds from its first peak's 128-Hz sample to the
    next peak's; the first rate also holds before the first peak, and the
    last after the last peak.  Intervals outside the plausible range
    (cardiac [0.3, 2] s, respiratory [1, 30] s) hold the previous valid
    rate; invalid intervals before the first valid one take the first
    valid rate.
    """
    _, (lo, hi), _ = _rate_category(category)
    peaks = np.asarray(peaks, dtype=np.int64)
    if peaks.size < 2:
        raise ValueError("rate extraction requires at least 2 peaks")
    if np.any(peaks[1:] <= peaks[:-1]):
        raise ValueError("peaks must be strictly increasing")
    intervals = np.diff(peaks) / fs
    valid = (intervals >= lo) & (intervals <= hi)
    if not np.any(valid):
        raise ValueError("no biologically plausible intervals found")
    rates = 1.0 / intervals  # (60/interval) bpm scaled by 1/60
    # Each interval's index, or the last valid index before it (the first
    # valid index before any valid one).
    held = np.maximum.accumulate(
        np.where(valid, np.arange(rates.size), np.flatnonzero(valid)[0]))
    filled = rates[held]
    bounds = np.clip(np.round(peaks / fs * TARGET_FS).astype(np.int64), 0, n_out)
    lengths = np.diff(bounds, prepend=0, append=n_out)
    return np.repeat(np.concatenate((filled[:1], filled, filled[-1:])), lengths)


def _rate(s: np.ndarray, fs: float, category: str, n_out: int,
          window_s: float, overlap_s: float,
          search_hz: float | None = None) -> np.ndarray | None:
    """AMPD peaks → n_out-sample rate at 128 Hz; None when extraction fails.

    An unknown category or a window overlap not shorter than the window
    is an error, not a failed extraction.
    Calls ampd_peaks and peaks_to_rate through this module's names, so a
    caller that replaces either name here replaces it for every path.
    """
    max_scale, _, _ = _rate_category(category)
    peaks = ampd_peaks(s, fs, window_s=window_s, overlap_s=overlap_s,
                       max_scale_s=max_scale, search_hz=search_hz)
    try:
        return peaks_to_rate(peaks, fs, category, n_out=n_out)
    except ValueError:
        return None


@dataclass(frozen=True)
class ZeroSpan:
    start_frac: float
    end_frac: float

    def __post_init__(self):
        if not (0 <= self.start_frac <= self.end_frac <= 1):
            raise ValueError("need 0 <= start_frac <= end_frac <= 1")


@dataclass(frozen=True)
class Awgn:
    snr_db: float


def degrade(s: np.ndarray, mode: ZeroSpan | Awgn, seed) -> np.ndarray:
    """Blank a span or add Gaussian noise at a target SNR (reproducible).

    The noise realization depends only on (seed, length), so sweeping
    the SNR with a fixed seed rescales one realization.
    """
    s = np.asarray(s, dtype=np.float64).copy()
    if isinstance(mode, ZeroSpan):
        a = int(round(mode.start_frac * s.size))
        b = int(round(mode.end_frac * s.size))
        s[a:b] = 0.0
        return s
    if isinstance(mode, Awgn):
        rng = np.random.default_rng(seed)
        power = float(np.mean(s * s))
        noise_sd = np.sqrt(power / 10.0 ** (mode.snr_db / 10.0))
        return s + noise_sd * rng.standard_normal(s.size)
    raise TypeError(f"unknown degradation mode {mode!r}")


def preprocess(raw: RawSignal, target_epochs: int = TARGET_EPOCHS) -> ProcessedSignal:
    """Full pipeline; cardiac/respiratory kinds also yield a rate signal."""
    kind = raw.kind
    s = scale_signal(raw.samples, kind)
    s, missing = interpolate_missing(s)
    if raw.fs != TARGET_FS:
        if kind.sample_hold:
            s = sample_hold_upsample(s, raw.fs)
        else:
            s = resample(s, raw.fs)
    if kind.hp_cutoff is not None:
        s = apply_filter(design_butterworth("highpass", kind.hp_cutoff), s)
    if kind.lp_cutoff is not None:
        s = apply_filter(design_butterworth("lowpass", kind.lp_cutoff), s)
    mapped = _map_missing_indices(missing, raw.fs, s.size)
    s = restore_zeros(s, mapped)
    s = clip(s)
    rate = None
    if kind.category in RATE_CATEGORIES:
        _, _, search_hz = RATE_CATEGORIES[kind.category]
        rate = _rate(s, TARGET_FS, kind.category, s.size, AMPD_WINDOW_S, AMPD_OVERLAP_S,
                     search_hz=search_hz)
        rate, _ = zero_pad(np.zeros(s.size) if rate is None else rate, target_epochs)
    s, valid = zero_pad(s, target_epochs)
    return ProcessedSignal(samples=s, valid_epochs=valid, rate=rate, missing_indices=mapped)


def epoch_rate_features(s: np.ndarray, fs: float, category: str, n_epochs: int,
                        window_s: float = AMPD_WINDOW_S,
                        overlap_s: float = AMPD_OVERLAP_S) -> np.ndarray:
    """Per-epoch mean extracted rate; NaN marks missing/unusable epochs.

    An epoch is missing when more than MISSING_FRAC of its raw samples
    are exact zeros (the pipeline's missing-data convention); when peak
    or interval extraction fails outright every epoch is missing.
    window_s and overlap_s set the AMPD windows (see ampd_peaks).
    """
    s = np.asarray(s, dtype=np.float64)
    rate = _rate(s, fs, category, int(round(s.size / fs * TARGET_FS)), window_s, overlap_s)
    feats = np.full(n_epochs, np.nan)
    if rate is None:
        return feats
    in_epoch = int(round(EPOCH_S * fs))
    out_epoch = int(round(EPOCH_S * TARGET_FS))
    for e in range(n_epochs):
        raw_ep = s[e * in_epoch:(e + 1) * in_epoch]
        seg = rate[e * out_epoch:(e + 1) * out_epoch]
        if raw_ep.size and seg.size and np.mean(raw_ep == 0.0) <= MISSING_FRAC:
            feats[e] = float(seg.mean())
    return feats


# -- raw float32 file format -------------------------------------------------


def write_signal_f32(path, samples: np.ndarray) -> None:
    np.asarray(samples, dtype="<f4").tofile(path)


def read_signal_f32(path) -> np.ndarray:
    return np.fromfile(path, dtype="<f4").astype(np.float64)
