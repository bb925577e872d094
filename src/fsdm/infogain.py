"""Per-sensor, per-epoch information gain.

A sensor's information gain at an epoch is the cosine distance between
its conditioned estimate's stage-probability column and the global
prior's, averaged over the M sampling states and over trajectories (a
Monte-Carlo expectation over the sampler's initial states).  The prior
estimate is the one every sensor's term of the combination rule
subtracts (``scorekit``).  A value of 0 means the sensor never moved the
estimate away from the prior.

With ``record_trajectory`` set, the sampling loop (``sampler._run_range``)
keeps one running (B, E) sum per observed sensor as loop state, and
returns each sample's sums beside its final state.  Each step's first
denoise adds the distances to them where it combines the terms
(``scorekit.fsdm_combine_batch``), so no likelihood outlives its term.
``information_gain`` only averages those sums and never runs the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bundle import write_csv
from .evalkit import scored_epochs
from .sampler import SamplerConfig
from .scorekit import Observations, SensorBank


@dataclass(frozen=True)
class InfoGain:
    sensor: str
    values: np.ndarray
    n_trajectories: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("values must be a vector of per-epoch gains")
        if not np.all((v >= 0) & (v <= 1)):  # NaN fails both comparisons
            raise ValueError("information gain values must lie in [0, 1]")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def information_gain(
    bank: SensorBank,
    obs: Observations,
    sensor_name: str,
    cfg: SamplerConfig,
    n_epochs: int,
    results: Sequence[Mapping[str, np.ndarray]],
) -> InfoGain:
    """Trajectory-averaged per-epoch gain for one observed sensor.

    ``results`` holds each sample's gain sums from a sample_many call
    (``Batch.gains``) or an infer call (``InferenceResult.results``) on
    ``obs`` with ``cfg``, which must set record_trajectory.  Each sum is
    divided by the cfg.schedule.M steps, and the quotients are averaged
    over the samples.  ``bank`` is not read; it keeps the parameter order
    that callers pass by position.
    """
    names = [name for name, _ in obs]
    if sensor_name not in names:
        raise KeyError(f"sensor {sensor_name!r} is not among the observations")
    if not cfg.record_trajectory:
        raise ValueError("information gain requires cfg.record_trajectory")
    if len(results) == 0:
        raise ValueError("information gain requires the gain sums of at least one sample")
    total = np.zeros(n_epochs)
    for sums in results:
        if sensor_name not in sums:
            raise KeyError(f"sample results carry no gain for {sensor_name!r}")
        total += sums[sensor_name] / cfg.schedule.M
    values = np.clip(total / len(results), 0.0, 1.0)
    return InfoGain(sensor=sensor_name, values=values, n_trajectories=len(results))


def mean_information_gain(gain: InfoGain, valid_epochs: int | None = None) -> float:
    """Arithmetic mean of per-epoch gain over the first valid_epochs epochs."""
    return float(gain.values[:scored_epochs(gain.values.size, valid_epochs)].mean())


def write_infogain_csv(path, gain: InfoGain) -> None:
    """Emit per-epoch gain as (epoch_index, value) rows with a header."""
    write_csv(path, ["epoch_index", "value"], enumerate(gain.values))
