"""Second-order multistep (DPM-Solver++(2M)) probability-flow sampler and
posterior aggregation.

Each sample integrates the ODE dy = −σ̇(t)σ(t)·score dt from t_0 down the
discrete grid to 0, starting from y_0 ~ N(0, σ(t_0)²·I) drawn from a
counter-based generator seeded by (base_seed, sample_index), so samples
are reproducible and independent of execution order.  Each step makes
one denoise, D_m at σ_m, and reuses the last step's (Lu et al. 2022,
arXiv 2211.01095).  With σ(t) = t and h_m = ln(σ_m/σ_{m+1}), step m is

    y ← (σ_{m+1}/σ_m)·y − expm1(−h_m)·D′,
    D′ = (1 + 1/2r)·D_m − (1/2r)·D_{m−1},  r = h_{m−1}/h_m,

with D′ = D_0 on the first step.  The step to σ = 0 lands on D_m itself,
a projected estimate, and a final column sum more than ``_SIMPLEX_TOL``
from 1 raises ``SamplingError``.

``sample_many`` returns a ``Batch``: the (B, 5, E) final states; with
``record_trajectory`` set, each sample's information-gain sums; and with
``keep_states`` set, each sample's trajectory.  The sums are state of
the sampling loop: one (B, E) array per observed sensor, which each
step's denoise adds to where it combines the terms
(``scorekit.fsdm_combine_batch``).  The trajectories are one
(B, M, 5, E) array that the loop fills with the state at the start of
each step m, at σ = ``time_steps(schedule)[m]``; without ``keep_states``
the array has no steps, and the loop keeps no state.

The samples run as contiguous ranges of indices, one per usable core
from ``_SPLIT_MIN_EPOCHS`` epochs, through ``_fork.fork_map``.  The
calling process integrates the first range; each other range runs in a
worker forked for the call, over the whole time grid.  Each range
writes its final states, gain sums and trajectories into its rows of one
batch that the caller and its workers share (``_fork.shared_zeros``),
and sends back only its failure, if any.  A sample's arithmetic does not
depend on the other samples of its batch, and each range draws its
initial states by sample index, so the output is bitwise the same for
any split.  The fork-map's rules hold: warnings print as in-process,
OpenBLAS runs on one thread while workers run, and there is one range
when there is one usable core or one sample, and when a fork is
unavailable or unsafe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from . import _fork, evalkit
from ._fork import usable_cores as _usable_cores
from .hypno import Hypnodensity, Hypnogram, argmax_stages, majority_vote
from .sched import ScheduleParams, time_steps
from .scorekit import Observations, SensorBank, fsdm_denoise_batch

# sample_many splits its samples across worker processes only from this
# many epochs.  A fork costs 5–15 ms.  On a 2-vCPU VM, at B = 64 and
# M = 32 (one denoise per step), the split took 0.60–0.66 times the
# in-process time with a neural bank at E = 1, 8 and 32.  With an exact
# Markov bank (two sensors, fused forward-backward, terms computed once
# per conditioning) it took 1.24 times at E = 5, 1.32 at E = 8, 0.80 at
# E = 16 and 0.78 at E = 32 (medians of 15 alternated pairs; quartiles
# 1.01–1.31, 1.09–1.81, 0.71–0.87 and 0.74–0.87).  Shorter recordings,
# and the enumeration-sized worlds of the exact oracles, stay in the
# calling process.
_SPLIT_MIN_EPOCHS = 32


# How far a final column sum may be from 1.  The last step lands on a
# projected denoised estimate, whose sums are 1 to within rounding.
_SIMPLEX_TOL = 1e-9


class SamplingError(RuntimeError):
    """Raised when the sampler state leaves the finite range, or a final
    state leaves the simplex."""


@dataclass(frozen=True)
class SamplerConfig:
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    n_samples: int = 64
    lam: float | None = None  # None = automatic 1/N weighting
    base_seed: int = 0
    # Switches on the gain sums only; fsdm sample's config key of this name
    # asks for trajectories.csv.  The name stays because perfbench sets it.
    record_trajectory: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.lam is not None and not 0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"lam must be a finite number >= 0, got {self.lam!r}")


class Batch(NamedTuple):
    """The final (B, 5, E) states of a run of samples, in index order;
    each sample's gain sums: a map from each observed sensor to the sum
    over the M sampling states of its per-epoch cosine distance (see
    ``infogain``), empty unless ``record_trajectory`` is set; and the
    (B, M, 5, E) trajectories, each sample's state at the start of step m,
    at σ = ``time_steps(schedule)[m]``, with no steps unless kept."""

    states: np.ndarray
    gains: tuple[dict[str, np.ndarray], ...]
    trajectories: np.ndarray


@dataclass(frozen=True)
class InferenceResult:
    hypnogram: Hypnogram
    samples: tuple[Hypnodensity, ...]
    stats: dict[str, float]
    results: tuple[dict[str, np.ndarray], ...]  # each sample's gain sums, as in Batch
    trajectories: np.ndarray  # as in Batch


def _initial_state(base_seed: int, sample_index: int, n_epochs: int, sigma0: float) -> np.ndarray:
    rng = np.random.default_rng([int(base_seed), int(sample_index)])
    return rng.standard_normal((5, n_epochs)) * sigma0


def _check_epochs(obs: Observations, n_epochs: int) -> None:
    for _, cond in obs:
        if hasattr(cond, "n_epochs") and cond.n_epochs != n_epochs:
            raise ValueError("observation epoch count does not match n_epochs")


def _run_range(bank: SensorBank, obs: Observations, cfg: SamplerConfig, indices: Sequence[int],
               n_epochs: int, states: np.ndarray, gains: dict[str, np.ndarray],
               trajectories: np.ndarray) -> tuple[int, Exception] | None:
    """Integrate the samples ``indices`` in lockstep down the time grid
    into their rows of a batch: the final states into ``states``; each
    step's state into ``trajectories``, (len(indices), M or 0, 5, E), when
    it has steps; and each observed sensor's gain sums into ``gains``
    (empty without record_trajectory).  Returns None, or the grid step at
    which they failed (the number of steps they completed) and the error."""
    m = 0
    try:
        ts = time_steps(cfg.schedule)
        y = np.stack(
            [_initial_state(cfg.base_seed, i, n_epochs, ts[0]) for i in indices]
        )
        keep_states = trajectories.shape[1] > 0
        denoised_prev = h_prev = None
        for m in range(cfg.schedule.M):
            sigma = float(ts[m])  # σ(t) = t, as a Python float for SamplingError's repr
            sigma_next = float(ts[m + 1])
            if keep_states:
                trajectories[:, m] = y
            denoised = fsdm_denoise_batch(y, sigma, bank, obs, cfg.lam, gains)
            if sigma_next == 0.0:
                y_next = denoised
            else:
                h = math.log(sigma / sigma_next)
                if denoised_prev is None:
                    d_prime = denoised
                else:
                    r = h_prev / h
                    d_prime = (1 + 1 / (2 * r)) * denoised - (1 / (2 * r)) * denoised_prev
                y_next = (sigma_next / sigma) * y - math.expm1(-h) * d_prime
                denoised_prev, h_prev = denoised, h
            if not np.all(np.isfinite(y_next)):
                raise SamplingError(
                    f"non-finite state after step {m} (sigma={sigma!r} -> {sigma_next!r})"
                )
            y = y_next
        m = cfg.schedule.M  # a final state is checked after all M steps
        off = np.abs(y.sum(axis=-2) - 1.0).max(initial=0.0)
        if off > _SIMPLEX_TOL:
            raise SamplingError(
                f"final state off the simplex: a column sum is off by {float(off)!r} "
                f"(sigma_min={cfg.schedule.sigma_min!r}, M={cfg.schedule.M})"
            )
    except Exception as err:
        return m, err
    states[:] = y
    return None


def sample_many(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    keep_states: bool = False,
) -> Batch:
    """Run cfg.n_samples samples with indices 0..n−1.

    Samples share the time grid and are integrated in lockstep as a
    batch; per-sample arithmetic is independent, so each sample's final
    state, gain sums and trajectory equal those of a run of that sample
    alone bitwise, also when the samples are split across worker
    processes.  ``keep_states`` keeps the trajectories, (B, M, 5, E)
    floats.
    """
    _check_epochs(obs, n_epochs)
    n_ranges = _split_count(cfg.n_samples, n_epochs)
    return _run_ranges(bank, obs, cfg, n_epochs, n_ranges, keep_states)


# -- the ranges ---------------------------------------------------------------


def _split_count(n_samples: int, n_epochs: int) -> int:
    """The number of sample ranges sample_many runs, 1 for no split."""
    if n_epochs < _SPLIT_MIN_EPOCHS:
        return 1
    return _fork.range_count(n_samples, _usable_cores())


def _run_ranges(bank: SensorBank, obs: Observations, cfg: SamplerConfig, n_epochs: int,
                n_ranges: int, keep_states: bool = False) -> Batch:
    """Run the samples as n_ranges contiguous index ranges through
    ``_fork.fork_map``, the first in the calling process and each other in
    a forked worker; each range writes its rows of one shared batch.  If
    a range failed, the error of the one that failed at the earliest grid
    step (the first such range on a tie) is raised: the error a lockstep
    run of all the samples meets first."""
    # Each observed sensor once, in order, as fsdm_combine_batch sums it.
    names = list(dict.fromkeys(name for name, _ in obs)) if cfg.record_trajectory else []
    states = _fork.shared_zeros((cfg.n_samples, 5, n_epochs))
    gain_sums = _fork.shared_zeros((len(names), cfg.n_samples, n_epochs))
    trajectories = _fork.shared_zeros(
        (cfg.n_samples, cfg.schedule.M if keep_states else 0, 5, n_epochs))

    def run(indices: range) -> tuple[int, Exception] | None:
        rows = slice(indices.start, indices.stop)
        return _run_range(bank, obs, cfg, indices, n_epochs, states[rows],
                          dict(zip(names, gain_sums[:, rows])), trajectories[rows])

    failures = [f for f in _fork.fork_map(run, range(cfg.n_samples), n_ranges) if f is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    gains = tuple(dict(zip(names, gain_sums[:, b])) for b in range(cfg.n_samples))
    return Batch(states, gains if cfg.record_trajectory else (), trajectories)


_STAT_NAMES = tuple(f.name for f in fields(evalkit.StatReport))


def infer(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    keep_states: bool = False,
    valid_epochs: int | None = None,
) -> InferenceResult:
    """Sample, majority-vote a hypnogram, and aggregate overnight stats.

    The reported statistics are the per-statistic median over the
    per-sample argmax hypnograms, cut to the first ``valid_epochs``
    epochs (all of them by default), so padding never counts as sleep;
    statistics absent from every sample (e.g. REM latency with no REM)
    are omitted from the map.  ``keep_states`` is passed to sample_many;
    its gain sums and trajectories are ``results`` and ``trajectories``.
    """
    batch = sample_many(bank, obs, cfg, n_epochs, keep_states)
    samples = tuple(Hypnodensity(y) for y in batch.states)
    hypnogram = majority_vote(batch.states)
    reports = [
        evalkit.overnight_stats(argmax_stages(y), valid_epochs) for y in samples
    ]
    stats: dict[str, float] = {}
    for name in _STAT_NAMES:
        value = evalkit.aggregate_stat(reports, name)
        if value is not None:
            stats[name] = value
    return InferenceResult(hypnogram, samples, stats, batch.gains, batch.trajectories)
