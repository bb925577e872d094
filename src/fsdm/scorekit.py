"""Denoiser contract, Tweedie score conversion, and the factorized
combination rule that fuses per-sensor denoisers with a shared prior.

The combined denoised estimate is

    D_all = D_prior(y, absent, σ) + λ · Σ_i [D_i(y, x_i, σ) − D_i(y, absent, σ)]

followed by per-column renormalization, and the posterior score is
recovered from it through (D_all − y) / σ².  λ defaults to 1/N so that
feeding the same signal once or many times yields the same estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .hypno import Hypnodensity, _project_values, project_manifold


class _Absent:
    """Semantic "no sensor data"; distinct from a matrix of measured zeros."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABSENT"


ABSENT = _Absent()


@dataclass(frozen=True)
class Features:
    """Epoch-aligned conditioning features, one column per epoch."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError(f"features must be F×E, got shape {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_epochs(self) -> int:
        return self.values.shape[1]


Conditioning = Features | _Absent


@runtime_checkable
class Denoiser(Protocol):
    """Evaluable denoiser: (noisy hypnodensity, conditioning, σ) → clean estimate.

    Output columns must lie on the probability simplex; evaluation must be
    deterministic and side-effect-free.  ``evaluate_batch`` maps a (B,5,E)
    batch of states to a (B,5,E) array; it is what the sampler calls, and
    it must equal per-sample ``evaluate`` bitwise.
    """

    def evaluate(
        self, y_noisy: Hypnodensity, cond: Conditioning, sigma: float
    ) -> Hypnodensity: ...

    def evaluate_batch(
        self, ys: np.ndarray, cond: Conditioning, sigma: float
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class SensorBank:
    """A global prior denoiser plus named per-sensor denoisers."""

    global_prior: Denoiser
    sensors: tuple[tuple[str, Denoiser], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        names = [name for name, _ in self.sensors]
        if len(set(names)) != len(names):
            raise ValueError("sensor names must be unique")

    def get(self, name: str) -> Denoiser:
        for n, d in self.sensors:
            if n == name:
                return d
        raise KeyError(f"unknown sensor {name!r}")


Observations = Sequence[tuple[str, Conditioning]]


def tweedie_score(
    denoised: np.ndarray | Hypnodensity,
    y_noisy: np.ndarray | Hypnodensity,
    sigma: float,
) -> np.ndarray:
    """Convert a denoised estimate into a score: (denoised − y) / σ²."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d = denoised.values if isinstance(denoised, Hypnodensity) else np.asarray(denoised)
    y = y_noisy.values if isinstance(y_noisy, Hypnodensity) else np.asarray(y_noisy)
    if d.shape != y.shape:
        raise ValueError("shape mismatch between denoised estimate and state")
    return (d - y) / (sigma * sigma)


def _resolve_lambda(lam: float | None, n_obs: int) -> float:
    if lam is not None:
        return float(lam)
    return 1.0 / n_obs if n_obs > 0 else 0.0


def fsdm_combine_batch(
    ys: np.ndarray,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
    pairs: list | None = None,
) -> np.ndarray:
    """Combined denoised estimate for a batch of states, before projection.

    ``ys`` has shape (B, 5, E).  When ``pairs`` is a list, each observation
    appends its (name, likelihood, prior) evaluations to it, in observation
    order; the sampler hands them to its per-step observers.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    for name, _ in obs:
        bank.get(name)
    lam_eff = _resolve_lambda(lam, len(obs))
    combined = bank.global_prior.evaluate_batch(ys, ABSENT, sigma)
    for name, cond in obs:
        denoiser = bank.get(name)
        lik = denoiser.evaluate_batch(ys, cond, sigma)
        pri = denoiser.evaluate_batch(ys, ABSENT, sigma)
        combined = combined + lam_eff * (lik - pri)
        if pairs is not None:
            pairs.append((name, lik, pri))
    return combined


def fsdm_combine(
    y_noisy: Hypnodensity,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
) -> Hypnodensity:
    """Single-state combined estimate before the manifold projection."""
    out = fsdm_combine_batch(y_noisy.values[None], sigma, bank, obs, lam)
    return Hypnodensity(out[0])


def fsdm_denoise(
    y_noisy: Hypnodensity,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
) -> Hypnodensity:
    """Combined denoised estimate, projected back onto the manifold."""
    return project_manifold(fsdm_combine(y_noisy, sigma, bank, obs, lam))


def fsdm_score(
    y_noisy: Hypnodensity,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
) -> np.ndarray:
    """Posterior score estimate at noise level σ."""
    return tweedie_score(fsdm_denoise(y_noisy, sigma, bank, obs, lam), y_noisy, sigma)


def fsdm_denoise_batch(
    ys: np.ndarray,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
    pairs: list | None = None,
) -> np.ndarray:
    return _project_values(fsdm_combine_batch(ys, sigma, bank, obs, lam, pairs))
