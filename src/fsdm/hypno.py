"""Core categorical-sequence types: hypnograms, hypnodensities, and votes.

A hypnogram is a sequence of sleep-stage labels, one per EPOCH_S-second
epoch; a hypnodensity is its continuous relaxation, a 5×E matrix of
per-epoch stage probabilities that doubles as the diffusion state.  All
types are immutable after construction and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np

N_STAGES = 5
# The length of one scoring epoch in seconds: the one epoch grid of the
# signal pipeline, the waveform renderer and the overnight statistics.
EPOCH_S = 30.0


def freeze_array(obj, name: str, value) -> np.ndarray:
    """Set field ``name`` of the frozen dataclass ``obj`` to a private
    read-only float64 copy of ``value``, and return that copy."""
    v = np.asarray(value, dtype=np.float64).copy()
    v.setflags(write=False)
    object.__setattr__(obj, name, v)
    return v


def json_object(value, holder: str) -> dict:
    """value if it is a JSON object; else a ValueError names its holder."""
    if not isinstance(value, dict):
        raise ValueError(f"{holder} is not a JSON object")
    return value


def json_list(value, holder: str) -> list:
    """value if it is a JSON array; else a ValueError names its holder."""
    if not isinstance(value, list):
        raise ValueError(f"{holder} is not a JSON array")
    return value


def required_field(d: dict, name: str, holder: str):
    """d[name]; ValueError names the holder if it is no JSON object or lacks name."""
    if name not in json_object(d, holder):
        raise ValueError(f"{holder} has no field {name!r}")
    return d[name]


class SleepStage(IntEnum):
    """The five scoring stages, in fixed order."""

    W = 0
    N1 = 1
    N2 = 2
    N3 = 3
    R = 4


def stage_of_label(label: str) -> SleepStage:
    """The stage a label (W, N1, N2, N3, R) names; ValueError names an
    unknown label."""
    if label not in SleepStage.__members__:
        raise ValueError(f"unknown stage label {label!r} "
                         f"(accepted: {', '.join(SleepStage.__members__)})")
    return SleepStage[label]


@dataclass(frozen=True)
class Hypnogram:
    """A sequence of sleep stages, one per EPOCH_S-second epoch.

    Each entry is converted to a SleepStage once, here; one that equals
    no stage index (5, 2.7) raises ValueError.  Integral numbers of any
    dtype (np.uint8, np.int64, 2.0) are accepted."""

    stages: tuple[SleepStage, ...]

    def __post_init__(self):
        if len(self.stages) < 1:
            raise ValueError("hypnogram must contain at least one epoch")
        object.__setattr__(
            self, "stages", tuple(SleepStage(s) for s in self.stages)
        )

    def __len__(self) -> int:
        return len(self.stages)

    def __getitem__(self, e: int) -> SleepStage:
        return self.stages[e]

    @property
    def n_epochs(self) -> int:
        return len(self.stages)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Hypnogram":
        return cls(tuple(indices))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Hypnogram":
        """Stages from their labels, each stripped of surrounding
        whitespace and read by stage_of_label."""
        return cls(tuple(stage_of_label(label.strip()) for label in labels))

    def to_indices(self) -> np.ndarray:
        return np.array(self.stages, dtype=np.int64)

    def to_labels(self) -> list[str]:
        return [s.name for s in self.stages]


@dataclass(frozen=True)
class Hypnodensity:
    """5×E matrix of per-epoch stage weights; entries must be finite.

    Columns are not required to lie on the probability simplex: the
    diffusion state wanders off it by construction.
    """

    values: np.ndarray

    def __post_init__(self):
        v = freeze_array(self, "values", self.values)
        if v.ndim != 2 or v.shape[0] != N_STAGES:
            raise ValueError(f"hypnodensity must be 5×E, got shape {v.shape}")
        if v.shape[1] < 1:
            raise ValueError("hypnodensity must have at least one epoch")
        if not np.all(np.isfinite(v)):
            raise ValueError("hypnodensity entries must be finite")

    @property
    def n_epochs(self) -> int:
        return self.values.shape[1]


def one_hot(h: Hypnogram) -> Hypnodensity:
    """Encode a hypnogram as a one-hot hypnodensity."""
    v = np.zeros((N_STAGES, len(h)))
    v[h.to_indices(), np.arange(len(h))] = 1.0
    return Hypnodensity(v)


def project_manifold(v: np.ndarray) -> np.ndarray:
    """Renormalize each column of a (5, E) or (B, 5, E) array to sum to 1
    (the projection τ).

    Only divides; negative entries survive.  Columns whose sum has
    absolute value below 1e-9 are replaced by the uniform column, since
    the division is undefined there.
    """
    sums = v.sum(axis=-2, keepdims=True)
    degenerate = np.abs(sums) < 1e-9
    out = v / np.where(degenerate, 1.0, sums)
    if np.any(degenerate):
        out = np.where(degenerate, 1.0 / N_STAGES, out)
    return out


def argmax_stages(y: Hypnodensity) -> Hypnogram:
    """Per-column argmax; ties break toward the lowest stage index."""
    return Hypnogram.from_indices(np.argmax(y.values, axis=0))


def majority_vote(states: np.ndarray) -> Hypnogram:
    """Argmax of the element-wise mean of a (B, 5, E) batch of samples
    (per-epoch vote)."""
    if len(states) == 0:
        raise ValueError("majority_vote requires at least one sample")
    return argmax_stages(Hypnodensity(np.mean(states, axis=0)))


def write_hypnogram(path, h: Hypnogram) -> None:
    """Write the text format: one stage label per line, newline-terminated."""
    with open(path, "w", encoding="utf-8") as f:
        for label in h.to_labels():
            f.write(label + "\n")


def read_hypnogram(path) -> Hypnogram:
    with open(path, "r", encoding="utf-8") as f:
        labels = [line.strip() for line in f if line.strip()]
    return Hypnogram.from_labels(labels)
