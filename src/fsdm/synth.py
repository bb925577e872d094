"""Synthetic recording generator.

Hypnograms are drawn from a world model; observations come in two
tiers: epoch-level feature sequences sampled straight from the world's
emission laws (what the enumeration oracle and learned denoisers
consume) and waveform-level quasi-periodic pulse trains whose
instantaneous event rate follows a per-stage map (what the signal
pipeline consumes).  The rate extractor is the bridge between tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypno import EPOCH_S, Hypnogram, SleepStage
from .oracle import (
    CategoricalEmission,
    ExplicitPrior,
    GaussianEmission,
    MarkovPrior,
    WorldModel,
)


@dataclass(frozen=True)
class WaveformSpec:
    """Renderer settings for one pulse-train sensor."""

    stage_rates: dict[SleepStage, float]  # events per second
    base_amplitude: float = 1.0
    noise_sd: float = 0.01
    fs: float = 128.0
    jitter_sd: float = 0.01  # seconds, on inter-event intervals
    pulse_width_s: float = 0.08
    kind_name: str = "finger_ppg"

    def __post_init__(self):
        rates = {SleepStage(k): float(v) for k, v in self.stage_rates.items()}
        if len(rates) != 5:
            raise ValueError("stage_rates must map all five stages")
        if any(r <= 0 for r in rates.values()):
            raise ValueError("rates must be positive")
        if self.fs <= 2 * max(rates.values()):
            raise ValueError("fs must exceed twice the maximum rate")
        object.__setattr__(self, "stage_rates", rates)


@dataclass(frozen=True)
class SynthConfig:
    world: WorldModel
    n_recordings: int
    waveform: dict[str, WaveformSpec] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.n_recordings < 1:
            raise ValueError("n_recordings must be at least 1")


@dataclass(frozen=True)
class Recording:
    recording_id: str
    hypnogram: Hypnogram
    features: dict[str, np.ndarray]   # sensor -> (E,) observation sequence
    waveforms: dict[str, np.ndarray]  # sensor -> samples at its spec fs


def sample_hypnogram(world: WorldModel, rng: np.random.Generator) -> Hypnogram:
    if isinstance(world.prior, ExplicitPrior):
        table = world.prior.table
        idx = int(rng.choice(table.size, p=table / table.sum()))
        return Hypnogram.from_indices(np.unravel_index(idx, (5,) * world.n_epochs))
    prior: MarkovPrior = world.prior
    stages = [int(rng.choice(5, p=prior.initial / prior.initial.sum()))]
    for _ in range(world.n_epochs - 1):
        row = prior.transition[stages[-1]]
        stages.append(int(rng.choice(5, p=row / row.sum())))
    return Hypnogram.from_indices(stages)


def sample_features(world: WorldModel, h: Hypnogram,
                    rng: np.random.Generator) -> dict[str, np.ndarray]:
    stages = h.to_indices()
    out: dict[str, np.ndarray] = {}
    for name, em in world.sensors:
        if isinstance(em, CategoricalEmission):
            seq = np.array(
                [rng.choice(em.n_symbols, p=em.table[s] / em.table[s].sum()) for s in stages],
                dtype=np.float64,
            )
        elif isinstance(em, GaussianEmission):
            seq = rng.normal(em.means[stages], em.sds[stages])
        else:  # pragma: no cover - emission union is closed
            raise TypeError(f"unknown emission model {em!r}")
        out[name] = seq
    return out


def render_waveform(h: Hypnogram, spec: WaveformSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Pulse train whose instantaneous rate follows the stage, with
    Gaussian interval jitter and additive white noise."""
    duration = len(h) * EPOCH_S
    n = int(round(duration * spec.fs))
    wave = spec.noise_sd * rng.standard_normal(n)
    sigma_w = max(spec.pulse_width_s * spec.fs / 2.355, 1.0)  # FWHM -> sd, samples
    half = int(np.ceil(4 * sigma_w))
    kernel = spec.base_amplitude * np.exp(
        -0.5 * ((np.arange(-half, half + 1)) / sigma_w) ** 2
    )
    rate0 = spec.stage_rates[h[0]]
    t = (0.5 + 0.1 * rng.random()) / rate0
    while t < duration:
        center = int(round(t * spec.fs))
        lo = max(center - half, 0)
        hi = min(center + half + 1, n)
        if lo < hi:
            wave[lo:hi] += kernel[lo - (center - half):hi - (center - half)]
        stage = h[min(int(t // EPOCH_S), len(h) - 1)]
        rate = spec.stage_rates[stage]
        interval = 1.0 / rate + spec.jitter_sd * rng.standard_normal()
        t += max(interval, 0.25 / rate)
    return wave


def gen_recording(cfg: SynthConfig, index: int) -> Recording:
    """Deterministic per (cfg.seed, index)."""
    rng = np.random.default_rng([int(cfg.seed), int(index)])
    h = sample_hypnogram(cfg.world, rng)
    features = sample_features(cfg.world, h, rng)
    waveforms = {
        name: render_waveform(h, spec, rng) for name, spec in sorted(cfg.waveform.items())
    }
    return Recording(
        recording_id=f"rec_{index:04d}", hypnogram=h,
        features=features, waveforms=waveforms,
    )


def split_of_index(index: int) -> str:
    """Deterministic 70/10/20 split by index modulo 10."""
    r = index % 10
    if r < 7:
        return "train"
    if r == 7:
        return "val"
    return "test"
