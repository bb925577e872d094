"""Reproducible degradation experiment: how blanked segments and added
noise on one synthetic pulse sensor move accuracy and information gain.

The sensor's epoch features are binned mean extracted rates (bin 0 is
reserved for epochs that are mostly exact zeros, the pipeline's missing
convention).  The categorical emission table is fitted from balanced
per-stage calibration renders with additive smoothing, so bins never
seen in clean data carry a near-flat likelihood and out-of-distribution
features pull the posterior back to the prior.  Zero spans are
end-anchored and nested across fractions, and the noise realization is
shared across SNR levels, so corruption grows pathwise with severity.

AMPD runs on one-epoch (EPOCH_S) windows here: the pipeline's 600 s
default targets whole-night signals, while these recordings are
N_EPOCHS = 6 epochs (three minutes) long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Awgn, ZeroSpan, degrade, epoch_rate_features
from .evalkit import MergeScheme, accuracy, cohens_kappa
from .hypno import EPOCH_S, Hypnogram, SleepStage
from .infogain import information_gain, mean_information_gain
from .oracle import CategoricalEmission, MarkovPrior, WorldModel, exact_bank
from .sampler import SamplerConfig, infer
from .sched import ScheduleParams
from .scorekit import Features
from .synth import WaveformSpec, render_waveform, sample_hypnogram

SENSOR = "pulse"
N_EPOCHS = 6
PERSISTENCE = 0.6  # diagonal of the Markov prior's transition matrix
ZERO_FRACS = (0.0, 0.25, 0.5, 0.75)
SNRS_DB = (40.0, 20.0, 10.0, 0.0)

# The broad, flat-crested pulse makes detected peak positions respond
# smoothly to additive noise, so every SNR level in the sweep bites.
PULSE_SPEC = WaveformSpec(
    stage_rates={
        SleepStage.W: 1.4,
        SleepStage.N1: 1.2,
        SleepStage.N2: 1.0,
        SleepStage.N3: 0.8,
        SleepStage.R: 1.1,
    },
    base_amplitude=0.4,
    noise_sd=0.02,
    fs=64.0,
    jitter_sd=0.01,
    pulse_width_s=0.65,
    kind_name="finger_ppg",
)

# Uniform rate bins over [RATE_LO, RATE_HI]; symbol 0 marks missing epochs.
RATE_LO, RATE_HI = 0.2, 3.4
N_RATE_BINS = 64
N_SYMBOLS = N_RATE_BINS + 1

# Emission fit: clean renders per stage and additive smoothing.
N_PER_STAGE = 8
ALPHA = 0.5


def rate_symbols(feats: np.ndarray) -> np.ndarray:
    """Per-epoch rates → symbols: 0 for NaN, else 1 + the rate's bin."""
    feats = np.asarray(feats, dtype=np.float64)
    width = (RATE_HI - RATE_LO) / N_RATE_BINS
    out = np.zeros(feats.shape[0])
    present = ~np.isnan(feats)
    bins = ((feats[present] - RATE_LO) / width).astype(np.int64)  # truncates toward 0
    out[present] = 1.0 + np.clip(bins, 0, N_RATE_BINS - 1)
    return out


def extract_binned_features(wave: np.ndarray) -> np.ndarray:
    """Pulse waveform → per-epoch bin symbols, with AMPD on one-epoch windows."""
    feats = epoch_rate_features(wave, PULSE_SPEC.fs, "cardiac", N_EPOCHS,
                                window_s=EPOCH_S, overlap_s=0.0)
    return rate_symbols(feats)


def fit_rate_emission(seed: int) -> CategoricalEmission:
    """Fit the sensor's categorical emission from clean per-stage renders.

    Balanced per-stage counts keep the smoothed probability of unseen
    bins (nearly) equal across stages, so they carry no stage evidence.
    """
    counts = np.zeros((5, N_SYMBOLS))
    for s in range(5):
        for r in range(N_PER_STAGE):
            h = Hypnogram.from_indices([s] * N_EPOCHS)
            rng = np.random.default_rng([seed, 1, s, r])
            syms = extract_binned_features(render_waveform(h, PULSE_SPEC, rng))
            counts[s] += np.bincount(syms.astype(int), minlength=N_SYMBOLS)
    table = (counts + ALPHA) / (counts.sum(axis=1, keepdims=True) + ALPHA * N_SYMBOLS)
    return CategoricalEmission(table)


@dataclass(frozen=True)
class SweepRow:
    mode: str          # "zero" or "awgn"
    level: float       # zeroed fraction or SNR in dB
    recording: str
    mean_info_gain: float
    accuracy: float
    kappa: float


@dataclass(frozen=True)
class SweepSummary:
    mode: str
    level: float
    mean_info_gain: float
    accuracy: float
    kappa: float


def degradation_sweep(
    n_recordings: int = 12,
    n_samples: int = 16,
    seed: int = 0,
    schedule: ScheduleParams | None = None,
) -> tuple[list[SweepRow], list[SweepSummary]]:
    """Run both sweeps; returns per-recording rows and per-level summaries."""
    schedule = schedule or ScheduleParams()
    emission = fit_rate_emission(seed)
    trans = np.full((5, 5), (1 - PERSISTENCE) / 4)
    np.fill_diagonal(trans, PERSISTENCE)
    world = WorldModel(
        N_EPOCHS, MarkovPrior(np.full(5, 0.2), trans), ((SENSOR, emission),)
    )
    bank = exact_bank(world)
    recordings = []
    for i in range(n_recordings):
        rng = np.random.default_rng([seed, 2, i])
        h = sample_hypnogram(world, rng)
        recordings.append((f"rec_{i:04d}", h, render_waveform(h, PULSE_SPEC, rng)))

    levels: list[tuple[str, float]] = [("zero", f) for f in ZERO_FRACS]
    levels += [("awgn", snr) for snr in SNRS_DB]
    rows: list[SweepRow] = []
    summaries: list[SweepSummary] = []
    for mode, level in levels:
        level_rows: list[SweepRow] = []
        for i, (rec_id, h, wave) in enumerate(recordings):
            if mode == "zero":
                degraded = (
                    degrade(wave, ZeroSpan(1.0 - level, 1.0), seed=[seed, 3, i])
                    if level > 0 else wave.copy()
                )
            else:
                degraded = degrade(wave, Awgn(level), seed=[seed, 3, i])
            syms = extract_binned_features(degraded)
            obs = [(SENSOR, Features(syms))]
            cfg = SamplerConfig(schedule=schedule, n_samples=n_samples,
                                base_seed=i, record_trajectory=True)
            result = infer(bank, obs, cfg, N_EPOCHS)
            gain = information_gain(bank, obs, SENSOR, cfg, N_EPOCHS, result.results)
            level_rows.append(SweepRow(
                mode=mode, level=float(level), recording=rec_id,
                mean_info_gain=mean_information_gain(gain),
                accuracy=accuracy(result.hypnogram, h, MergeScheme.FIVE),
                kappa=cohens_kappa(result.hypnogram, h, MergeScheme.FIVE),
            ))
        rows.extend(level_rows)
        summaries.append(SweepSummary(
            mode=mode, level=float(level),
            mean_info_gain=float(np.mean([r.mean_info_gain for r in level_rows])),
            accuracy=float(np.mean([r.accuracy for r in level_rows])),
            kappa=float(np.mean([r.kappa for r in level_rows])),
        ))
    return rows, summaries
