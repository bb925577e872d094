"""Agreement metrics at 5/4/3/2-class granularity, overnight sleep
statistics, and Bland-Altman analysis.

Conventions (documented because the literature varies): WASO excludes
terminal wake after the last sleep epoch; classes absent from both
prediction and reference contribute F1 = 1; Cohen's kappa is 0 when the
chance agreement is already 1 (single class in both marginals).
Every metric and statistic scores the first ``valid_epochs`` epochs
(``scored_epochs``); the rest of a padded recording counts nowhere.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .hypno import EPOCH_S, Hypnogram, SleepStage

EPOCH_MIN = EPOCH_S / 60.0


class MergeScheme(Enum):
    FIVE = "five"
    FOUR = "four"    # N1 and N2 merged
    THREE = "three"  # all NREM merged
    TWO = "two"      # sleep vs wake


_MERGE_MAPS = {
    MergeScheme.FIVE: np.array([0, 1, 2, 3, 4]),
    MergeScheme.FOUR: np.array([0, 1, 1, 2, 3]),
    MergeScheme.THREE: np.array([0, 1, 1, 1, 2]),
    MergeScheme.TWO: np.array([0, 1, 1, 1, 1]),
}


def merge_classes(h: Hypnogram, scheme: MergeScheme) -> np.ndarray:
    """Relabel stages under the merge scheme, as an integer sequence."""
    return _MERGE_MAPS[scheme][h.to_indices()]


def scored_epochs(n_epochs: int, valid_epochs: int | None) -> int:
    """How many leading epochs are scored: valid_epochs, or all when None.

    Epochs past the first valid_epochs are padding and count in no
    metric, statistic or mean.
    """
    n = n_epochs if valid_epochs is None else valid_epochs
    if not 1 <= n <= n_epochs:
        raise ValueError(f"valid_epochs={n} must lie in 1..n_epochs={n_epochs}")
    return n


def _scored_labels(pred: Hypnogram, ref: Hypnogram, scheme: MergeScheme,
                   valid_epochs: int | None) -> tuple[np.ndarray, np.ndarray]:
    a = merge_classes(pred, scheme)
    b = merge_classes(ref, scheme)
    if a.shape != b.shape:
        raise ValueError("prediction and reference lengths differ")
    n = scored_epochs(a.size, valid_epochs)
    return a[:n], b[:n]


def accuracy(pred: Hypnogram, ref: Hypnogram, scheme: MergeScheme = MergeScheme.FIVE,
             valid_epochs: int | None = None) -> float:
    a, b = _scored_labels(pred, ref, scheme, valid_epochs)
    return float(np.mean(a == b))


def cohens_kappa(pred: Hypnogram, ref: Hypnogram, scheme: MergeScheme = MergeScheme.FIVE,
                 valid_epochs: int | None = None) -> float:
    a, b = _scored_labels(pred, ref, scheme, valid_epochs)
    k = int(_MERGE_MAPS[scheme].max()) + 1
    p_o = float(np.mean(a == b))
    pa = np.bincount(a, minlength=k) / a.size
    pb = np.bincount(b, minlength=k) / b.size
    p_e = float(pa @ pb)
    if 1.0 - p_e < 1e-12:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def f1_per_class(pred: Hypnogram, ref: Hypnogram,
                 valid_epochs: int | None = None) -> np.ndarray:
    """Five per-stage F1 scores; a stage absent from both sides scores 1."""
    a, b = _scored_labels(pred, ref, MergeScheme.FIVE, valid_epochs)
    out = np.empty(5)
    for c in range(5):
        tp = int(np.sum((a == c) & (b == c)))
        fp = int(np.sum((a == c) & (b != c)))
        fn = int(np.sum((a != c) & (b == c)))
        if tp + fp + fn == 0:
            out[c] = 1.0
        else:
            out[c] = 2 * tp / (2 * tp + fp + fn)
    return out


@dataclass(frozen=True)
class StatReport:
    tst_min: float
    sol_min: float | None
    waso_min: float
    rem_latency_min: float | None
    time_in_rem_min: float
    w_min: float
    n1_min: float
    n2_min: float
    n3_min: float
    r_min: float


def overnight_stats(h: Hypnogram, valid_epochs: int | None = None) -> StatReport:
    """Overnight statistics from the first valid_epochs epochs (all by default).

    SOL counts epochs before the first non-wake epoch; WASO counts wake
    epochs strictly after sleep onset and at-or-before the last sleep
    epoch; REM latency runs from sleep onset to the first REM epoch and
    is absent without REM.  An all-wake recording has no sleep onset.
    """
    stages = h.to_indices()
    stages = stages[:scored_epochs(stages.size, valid_epochs)]
    counts = np.bincount(stages, minlength=5)
    minutes = counts * EPOCH_MIN
    sleep_idx = np.flatnonzero(stages != SleepStage.W)
    rem_idx = np.flatnonzero(stages == SleepStage.R)
    sol = rem_latency = None
    waso = 0.0
    if sleep_idx.size:
        onset, last = int(sleep_idx[0]), int(sleep_idx[-1])
        sol = onset * EPOCH_MIN
        waso = float(np.sum(stages[onset + 1:last + 1] == SleepStage.W) * EPOCH_MIN)
        if rem_idx.size:
            rem_latency = float((rem_idx[0] - onset) * EPOCH_MIN)
    return StatReport(
        tst_min=float(sleep_idx.size * EPOCH_MIN), sol_min=sol, waso_min=waso,
        rem_latency_min=rem_latency, time_in_rem_min=float(minutes[SleepStage.R]),
        w_min=float(minutes[0]), n1_min=float(minutes[1]), n2_min=float(minutes[2]),
        n3_min=float(minutes[3]), r_min=float(minutes[4]),
    )


def aggregate_stat(samples: Sequence[StatReport], stat_name: str) -> float | None:
    """Median of a statistic over per-sample reports.

    Absent (None) values are excluded; the result is None when the
    statistic is absent from every sample.  Even counts take the
    midpoint of the two central order statistics.
    """
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    values = [getattr(r, stat_name) for r in samples]
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(statistics.median(present))


def bland_altman(pairs: Sequence[tuple[float, float]]) -> dict[str, float]:
    """Bias and 95% limits of agreement of (estimate − reference) pairs."""
    if len(pairs) < 2:
        raise ValueError("Bland-Altman requires at least 2 pairs")
    d = np.array([est - ref for est, ref in pairs], dtype=np.float64)
    bias = float(d.mean())
    sd = float(d.std(ddof=1))
    return {"bias": bias, "loa_low": bias - 1.96 * sd, "loa_high": bias + 1.96 * sd}

