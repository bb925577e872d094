"""Denoiser contract (``evaluate_batch``), Tweedie score conversion, and
the factorized combination rule that fuses per-sensor denoisers with a
shared prior.

Every function here works on (B, 5, E) batches of states; a single state
is a batch of one.  The combined denoised estimate is

    D_all = D_prior(y, absent, σ) + λ · Σ_i [D_i(y, x_i, σ) − D_i(y, absent, σ)]

(``fsdm_combine_batch``), followed by per-column renormalization
(``fsdm_denoise_batch``); the posterior score is recovered from it
through (D_all − y) / σ² (``tweedie_score``).  λ defaults to 1/N so that
feeding the same signal once or many times yields the same estimate.

``SensorBank.evaluate`` computes every term of one denoise.  When every
sensor denoiser shares the prior's kernel (exact denoisers of one
world), D_i(y, absent, σ) is the prior's own estimate, so the prior and
the N conditioned terms run as one kernel call on an (N+1)·B batch.
Otherwise the prior makes one call and each sensor one pair of calls;
a reference network encodes each state once for both halves of its
pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

import numpy as np

from .hypno import project_manifold


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
    """Epoch-aligned conditioning features, one column per epoch.

    Values are finite, or NaN where an epoch is missing; ±inf is rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError(f"features must be F×E, got shape {v.shape}")
        if np.isinf(v).any():
            raise ValueError("features hold an infinite value (NaN marks a missing epoch)")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_epochs(self) -> int:
        return self.values.shape[1]


Conditioning = Features | _Absent


class Denoiser(Protocol):
    """Evaluable denoiser: (noisy states, conditioning, σ) → clean estimates.

    ``evaluate_batch`` maps a (B,5,E) batch of states to a (B,5,E) array,
    each sample independently of the others; a single state is a batch of
    one.  Output columns must lie on the probability simplex; evaluation
    must be deterministic and side-effect-free.
    """

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
        shares = getattr(self.global_prior, "shares_prior", None)
        object.__setattr__(self, "_stacked", shares is not None and all(
            shares(d) for _, d in self.sensors))

    def get(self, name: str) -> Denoiser:
        for n, d in self.sensors:
            if n == name:
                return d
        raise KeyError(f"unknown sensor {name!r}")

    def evaluate(
        self, ys: np.ndarray, sigma: float, obs: Observations
    ) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
        """Every term of one denoise of a (B, 5, E) batch: the prior's
        estimate and an iterator over each observation's (likelihood,
        prior) pair, in observation order.  Outside a stacked bank each
        pair is evaluated as it is reached, so a caller that drops it
        holds one pair at a time."""
        denoisers = [self.get(name) for name, _ in obs]
        if self._stacked:
            terms = [(d, cond) for d, (_, cond) in zip(denoisers, obs)]
            out = self.global_prior.evaluate_stacked(ys, terms, sigma)
            return out[0], ((lik, out[0]) for lik in out[1:])
        prior = self.global_prior.evaluate_batch(ys, ABSENT, sigma)
        return prior, (_evaluate_pair(d, ys, cond, sigma) for d, (_, cond) in zip(denoisers, obs))


Observations = Sequence[tuple[str, Conditioning]]


def _evaluate_pair(denoiser: Denoiser, ys: np.ndarray, cond: Conditioning,
                   sigma: float) -> tuple[np.ndarray, np.ndarray]:
    pair = getattr(denoiser, "evaluate_pair", None)
    if pair is not None:
        return pair(ys, cond, sigma)
    return denoiser.evaluate_batch(ys, cond, sigma), denoiser.evaluate_batch(ys, ABSENT, sigma)


def tweedie_score(denoised: np.ndarray, y_noisy: np.ndarray, sigma: float) -> np.ndarray:
    """Convert a denoised estimate into a score: (denoised − y) / σ²."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if denoised.shape != y_noisy.shape:
        raise ValueError("shape mismatch between denoised estimate and state")
    return (denoised - y_noisy) / (sigma * sigma)


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
    lam_eff = _resolve_lambda(lam, len(obs))
    combined, terms = bank.evaluate(ys, sigma, obs)
    for name, _ in obs:
        lik, pri = next(terms)
        combined = combined + lam_eff * (lik - pri)
        if pairs is not None:
            pairs.append((name, lik, pri))
        # Unbound before the next pair is evaluated, so a pair nothing
        # keeps is freed first.
        del lik, pri
    return combined


def fsdm_denoise_batch(
    ys: np.ndarray,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
    pairs: list | None = None,
) -> np.ndarray:
    """Combined denoised estimate of a (B, 5, E) batch, projected back
    onto the manifold."""
    return project_manifold(fsdm_combine_batch(ys, sigma, bank, obs, lam, pairs))
