"""Second-order (Heun) probability-flow sampler and posterior aggregation.

Each sample integrates the ODE dy = −σ̇(t)σ(t)·score dt from t_0 down the
discrete grid to 0, starting from y_0 ~ N(0, σ(t_0)²·I) drawn from a
counter-based generator seeded by (base_seed, sample_index), so samples
are reproducible and independent of execution order.  The second-order
correction is skipped on the final step where σ(t) = 0.

A per-step observer ``observer(m, σ, y, pairs)`` sees every sampling
state: ``y`` is the (B, 5, E) batch at step m and ``pairs`` holds each
observation's (name, likelihood, prior) denoised batches at it.  The
observer may read these arrays during the call but must not keep or
write them; the pairs of an exact bank share one prior array.
With ``record_trajectory`` set, the information-gain sums are such an
observer, and nothing else of the trajectory is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from . import evalkit
from .hypno import Hypnodensity, Hypnogram, argmax_stages, majority_vote
from .infogain import GainSums
from .sched import ScheduleParams, time_steps
from .scorekit import Observations, SensorBank, fsdm_denoise_batch

Observer = Callable[[int, float, np.ndarray, tuple], None]


class SamplingError(RuntimeError):
    """Raised when the sampler state leaves the finite range."""


@dataclass(frozen=True)
class SamplerConfig:
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    n_samples: int = 64
    lam: float | None = None  # None = automatic 1/N weighting
    base_seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass(frozen=True)
class SampleResult:
    """Final state of one sample.

    With ``record_trajectory`` set, ``gain_sums`` maps each observed
    sensor to the sum over the ``n_steps`` sampling states of its
    per-epoch cosine distance (see ``infogain``); otherwise it is None.
    """

    y: Hypnodensity
    gain_sums: Mapping[str, np.ndarray] | None
    n_steps: int


@dataclass(frozen=True)
class InferenceResult:
    hypnogram: Hypnogram
    samples: tuple[Hypnodensity, ...]
    stats: dict[str, float]
    results: tuple[SampleResult, ...]


def _initial_state(base_seed: int, sample_index: int, n_epochs: int, sigma0: float) -> np.ndarray:
    rng = np.random.default_rng([int(base_seed), int(sample_index)])
    return rng.standard_normal((5, n_epochs)) * sigma0


def _run_indices(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    indices: Sequence[int],
    n_epochs: int,
    observer: Observer | None = None,
) -> list[SampleResult]:
    for _, cond in obs:
        if hasattr(cond, "n_epochs") and cond.n_epochs != n_epochs:
            raise ValueError("observation epoch count does not match n_epochs")
    ts = time_steps(cfg.schedule)
    n_steps = cfg.schedule.M
    y = np.stack(
        [_initial_state(cfg.base_seed, i, n_epochs, ts[0]) for i in indices]
    )
    gains = None
    if cfg.record_trajectory:
        gains = GainSums([name for name, _ in obs], len(indices), n_epochs)
    observers = [o for o in (gains, observer) if o is not None]
    for m in range(n_steps):
        t_cur = ts[m]
        t_next = ts[m + 1]
        sigma = float(t_cur)  # σ(t) = t, as a Python float for SamplingError's repr
        pairs: list | None = [] if observers else None
        denoised = fsdm_denoise_batch(y, sigma, bank, obs, cfg.lam, pairs)
        for o in observers:
            o(m, sigma, y, tuple(pairs))
        d = (y - denoised) / sigma  # −σ(t)·score
        y_next = y + (t_next - t_cur) * d
        sigma_next = float(t_next)
        if sigma_next != 0.0:
            denoised2 = fsdm_denoise_batch(y_next, sigma_next, bank, obs, cfg.lam)
            d2 = (y_next - denoised2) / sigma_next
            y_next = y + 0.5 * (t_next - t_cur) * (d + d2)
        if not np.all(np.isfinite(y_next)):
            raise SamplingError(
                f"non-finite state after step {m} (sigma={sigma!r} -> {sigma_next!r})"
            )
        y = y_next
    return [
        SampleResult(
            y=Hypnodensity(y[b]),
            gain_sums=None if gains is None else {k: v[b] for k, v in gains.sums.items()},
            n_steps=n_steps,
        )
        for b in range(len(indices))
    ]


def sample_one(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    sample_index: int,
    n_epochs: int,
) -> SampleResult:
    """Run one probability-flow sample; deterministic in (cfg, sample_index)."""
    return _run_indices(bank, obs, cfg, [sample_index], n_epochs)[0]


def sample_many(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    observer: Observer | None = None,
) -> list[SampleResult]:
    """Run cfg.n_samples samples with indices 0..n−1.

    Samples share the time grid and are integrated in lockstep as a
    batch; per-sample arithmetic is independent, so the output equals a
    sequential run of sample_one bitwise.  ``observer`` sees the whole
    batch at each step, samples in index order.
    """
    return _run_indices(bank, obs, cfg, range(cfg.n_samples), n_epochs, observer)


_STAT_NAMES = tuple(f.name for f in fields(evalkit.StatReport))


def infer(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    observer: Observer | None = None,
    valid_epochs: int | None = None,
) -> InferenceResult:
    """Sample, majority-vote a hypnogram, and aggregate overnight stats.

    The reported statistics are the per-statistic median over the
    per-sample argmax hypnograms, cut to the first ``valid_epochs``
    epochs (all of them by default), so padding never counts as sleep;
    statistics absent from every sample (e.g. REM latency with no REM)
    are omitted from the map.  ``observer`` is passed to sample_many.
    """
    results = sample_many(bank, obs, cfg, n_epochs, observer=observer)
    samples = tuple(r.y for r in results)
    hypnogram = majority_vote(samples)
    reports = [
        evalkit.overnight_stats(argmax_stages(y), valid_epochs) for y in samples
    ]
    stats: dict[str, float] = {}
    for name in _STAT_NAMES:
        value = evalkit.aggregate_stat(reports, name)
        if value is not None:
            stats[name] = value
    return InferenceResult(hypnogram=hypnogram, samples=samples, stats=stats, results=tuple(results))
