"""Per-sensor, per-epoch information gain.

A sensor's information gain at an epoch is the cosine distance between
its likelihood-denoised and prior-denoised stage-probability columns,
averaged over the M sampling states and over trajectories (a Monte-Carlo
expectation over the sampler's initial states).  A value of 0 means the
sensor never moved the estimate away from the prior.

The sampler streams the distances into running sums while it runs
(``GainSums``), so no trajectory is stored; ``information_gain`` only
averages those sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bundle import write_csv
from .evalkit import scored_epochs
from .scorekit import Features, Observations, SensorBank

if TYPE_CHECKING:  # the sampler imports GainSums from this module
    from .sampler import SampleResult, SamplerConfig

_MIN_NORM = 1e-12


@dataclass(frozen=True)
class InfoGain:
    sensor: str
    values: np.ndarray
    n_trajectories: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("values must be a vector of per-epoch gains")
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("information gain values must lie in [0, 1]")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def cosine_distance(lik: np.ndarray, pri: np.ndarray) -> np.ndarray:
    """1 − cos of each stage column; (..., 5, E) inputs give (..., E).

    Lies in [0, 1] for nonnegative inputs.
    """
    na = np.linalg.norm(lik, axis=-2)
    nb = np.linalg.norm(pri, axis=-2)
    if np.any(na < _MIN_NORM) or np.any(nb < _MIN_NORM):
        raise ValueError("cosine distance undefined for (near-)zero-norm column")
    return 1.0 - (lik * pri).sum(axis=-2) / (na * nb)


class GainSums:
    """Sampler observer: per-sample running sums of each observed sensor's
    column-wise cosine distance, one (B, E) array per sensor name.

    A sensor observed more than once is summed at its first observation.
    The sums are added step by step, in step order.
    """

    def __init__(self, names, n_samples: int, n_epochs: int):
        self._first: dict[str, int] = {}
        for k, name in enumerate(names):
            self._first.setdefault(name, k)
        self.sums = {name: np.zeros((n_samples, n_epochs)) for name in self._first}

    def __call__(self, m, sigma, y, pairs) -> None:
        for name, k in self._first.items():
            _, lik, pri = pairs[k]
            self.sums[name] += cosine_distance(lik, pri)


def information_gain(
    bank: SensorBank,
    obs: Observations,
    sensor_name: str,
    cfg: SamplerConfig,
    n_epochs: int | None = None,
    results: list[SampleResult] | None = None,
) -> InfoGain:
    """Trajectory-averaged per-epoch gain for one observed sensor.

    Requires cfg.record_trajectory.  When ``results`` from a previous
    sample_many call with the same (bank, obs, cfg) are supplied, their
    streamed gain sums are reused instead of re-running the sampler.
    """
    names = [name for name, _ in obs]
    if sensor_name not in names:
        raise KeyError(f"sensor {sensor_name!r} is not among the observations")
    if not cfg.record_trajectory:
        raise ValueError("information gain requires cfg.record_trajectory")
    if n_epochs is None:
        for name, cond in obs:
            if isinstance(cond, Features):
                n_epochs = cond.n_epochs
                break
        if n_epochs is None:
            raise ValueError("n_epochs is required when no observation carries features")
    if results is None:
        from .sampler import sample_many

        results = sample_many(bank, obs, cfg, n_epochs)
    total = np.zeros(n_epochs)
    for result in results:
        if result.gain_sums is None:
            raise ValueError("sample results carry no recorded trajectory")
        if sensor_name not in result.gain_sums:
            raise KeyError(f"sample results carry no gain for {sensor_name!r}")
        total += result.gain_sums[sensor_name] / result.n_steps
    values = np.clip(total / len(results), 0.0, 1.0)
    return InfoGain(sensor=sensor_name, values=values, n_trajectories=len(results))


def mean_information_gain(gain: InfoGain, valid_epochs: int | None = None) -> float:
    """Arithmetic mean of per-epoch gain over the first valid_epochs epochs."""
    return float(gain.values[:scored_epochs(gain.values.size, valid_epochs)].mean())


def write_infogain_csv(path, gain: InfoGain) -> None:
    """Emit per-epoch gain as (epoch_index, value) rows with a header."""
    write_csv(path, ["epoch_index", "value"], enumerate(gain.values))
