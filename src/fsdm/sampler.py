"""Second-order (Heun) probability-flow sampler and posterior aggregation.

Each sample integrates the ODE dy = −σ̇(t)σ(t)·score dt from t_0 down the
discrete grid to 0, starting from y_0 ~ N(0, σ(t_0)²·I) drawn from a
counter-based generator seeded by (base_seed, sample_index), so samples
are reproducible and independent of execution order.  The second-order
correction is skipped on the final step where σ(t) = 0.

``sample_many`` returns a ``Batch``: the (B, 5, E) final states; with
``record_trajectory`` set, each sample's information-gain sums; and with
``keep_states`` set, each sample's trajectory.  The sums are state of
the sampling loop: one (B, E) array per observed sensor, which each
step's first denoise adds to where it combines the terms
(``scorekit.fsdm_combine_batch``); the Heun corrector's denoise adds
nothing.  The trajectories are one (B, M, 5, E) array that
the loop fills with the state at the start of each step m, at
σ = ``time_steps(schedule)[m]``.

The samples run as contiguous ranges of indices, one per usable core
from ``_SPLIT_MIN_EPOCHS`` epochs, through ``_fork.fork_map``.  The
calling process integrates the first range; each other range runs in a
worker forked for the call, over the whole time grid with its own gain
sums and trajectories, and sends them back with its final states.  The
results land in arrays allocated once for the whole batch: the caller's
range writes its trajectories into its own slice, and each worker's are
copied into theirs as they arrive.  A sample's arithmetic does not
depend on the other samples of its batch, and each range draws its
initial states by sample index, so the output is bitwise the same for
any split.  The fork-map's rules hold: warnings print as in-process,
OpenBLAS runs on one thread while workers run, and there is one range
when there is one usable core or one sample, and when a fork is
unavailable or unsafe.
"""

from __future__ import annotations

import contextlib
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
# M = 32, the split took 0.51–0.61 times the in-process time with a
# neural bank at every E from 1 to 120.  With an exact Markov bank (two
# sensors, fused forward-backward, terms computed once per conditioning)
# it took 0.97–1.08 times at E = 5, 0.80–0.98 at E = 8, 0.79–0.88 at
# E = 16 and 0.61–0.66 at E = 32 (medians of 15 alternated pairs, in
# three runs).  Shorter recordings, and the enumeration-sized worlds of
# the exact oracles, stay in the calling process.
_SPLIT_MIN_EPOCHS = 32


class SamplingError(RuntimeError):
    """Raised when the sampler state leaves the finite range."""


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
    trajectories: np.ndarray = np.empty((0, 0, 5, 0))


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


def _run_range(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    indices: Sequence[int],
    n_epochs: int,
    keep_states: bool = False,
    trajectories: np.ndarray | None = None,
) -> tuple[Batch | None, tuple[int, Exception] | None]:
    """Integrate the samples ``indices`` in lockstep down the time grid.

    Returns their Batch, or the grid step at which they failed (the
    number of steps they completed) and the error.  With ``keep_states``
    the trajectories are written into ``trajectories``, a
    (len(indices), M, 5, E) array, allocated here when None."""
    m = 0
    try:
        ts = time_steps(cfg.schedule)
        y = np.stack(
            [_initial_state(cfg.base_seed, i, n_epochs, ts[0]) for i in indices]
        )
        # With record_trajectory, each observed sensor's (B, E) gain sums.
        gains = {name: np.zeros((len(indices), n_epochs))
                 for name, _ in (obs if cfg.record_trajectory else ())}
        if trajectories is None:
            trajectories = np.empty((len(indices), cfg.schedule.M if keep_states else 0, 5,
                                     n_epochs))
        for m in range(cfg.schedule.M):
            t_cur = ts[m]
            t_next = ts[m + 1]
            sigma = float(t_cur)  # σ(t) = t, as a Python float for SamplingError's repr
            if keep_states:
                trajectories[:, m] = y
            denoised = fsdm_denoise_batch(y, sigma, bank, obs, cfg.lam, gains)
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
    except Exception as err:
        return None, (m, err)
    per_sample = tuple({name: s[b] for name, s in gains.items()}
                       for b in range(len(indices))) if cfg.record_trajectory else ()
    return Batch(y, per_sample, trajectories), None


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
    ``_fork.fork_map``: the first in the calling process, which keeps its
    trajectories straight in their slice of the joined array, and each
    other in a forked worker, whose states and trajectories are copied
    into their slices as they arrive.  If a range failed, the error of
    the one that failed at the earliest grid step (the first such range
    on a tie) is raised: the error a lockstep run of all the samples
    meets first."""
    states = None
    trajectories = np.empty((cfg.n_samples, cfg.schedule.M if keep_states else 0, 5, n_epochs))

    def run(indices: range) -> tuple[range, tuple[Batch | None, tuple[int, Exception] | None]]:
        rows = trajectories[indices.start:indices.stop]
        return indices, _run_range(bank, obs, cfg, indices, n_epochs, keep_states, rows)

    gains, failures = [], []
    with contextlib.closing(_fork.fork_map(run, range(cfg.n_samples), n_ranges)) as outcomes:
        for indices, (batch, failure) in outcomes:
            if failure is not None:
                failures.append(failure)
                continue
            rows = slice(indices.start, indices.stop)
            if states is None:  # allocated after the caller's range, off its peak
                states = np.empty((cfg.n_samples, 5, n_epochs))
            states[rows] = batch.states
            # The caller's range already wrote its slice; copy the others'.
            if not np.may_share_memory(batch.trajectories, trajectories):
                trajectories[rows] = batch.trajectories
            gains.extend(batch.gains)
            del batch  # its states are copied; free them before the next range arrives
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return Batch(states, tuple(gains), trajectories)


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
    hypnogram = majority_vote(samples)
    reports = [
        evalkit.overnight_stats(argmax_stages(y), valid_epochs) for y in samples
    ]
    stats: dict[str, float] = {}
    for name in _STAT_NAMES:
        value = evalkit.aggregate_stat(reports, name)
        if value is not None:
            stats[name] = value
    return InferenceResult(hypnogram, samples, stats, batch.gains, batch.trajectories)
