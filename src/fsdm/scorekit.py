"""Denoiser contract (``evaluate_batch``), Tweedie score conversion, and
the factorized combination rule that fuses per-sensor denoisers with a
shared prior.

Every function here works on (B, 5, E) batches of states; a single state
is a batch of one.  The combined denoised estimate is

    D_all = D_prior(y, absent, σ) + λ · Σ_i [D_i(y, x_i, σ) − D_prior(y, absent, σ)]

(``fsdm_combine_batch``), followed by per-column renormalization
(``fsdm_denoise_batch``); the posterior score is recovered from it
through (D_all − y) / σ² (``tweedie_score``).  λ defaults to 1/N so that
feeding the same signal once or many times yields the same estimate.
The posterior score of the Bayesian factorization has one prior term,
so every sensor's term subtracts the one global prior estimate; for
exact denoisers of one world that estimate equals the sensor's own
unconditioned one.

A denoise's terms have one shape, the prior's estimate plus one
likelihood per observation.  ``SensorBank.evaluate`` computes them: one
prior call, then one conditioned call per observation.  When every
sensor denoiser shares the prior's kernel (exact denoisers of one
world), the prior and the N conditioned terms run as one kernel call on
an (N+1)·B batch.  The combination also keeps the information-gain sums
when asked: a sensor's first observation adds the cosine distance
between its likelihood and the prior (``cosine_distance``), so no
likelihood outlives its term of the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence

import numpy as np

from .hypno import project_manifold


class _Absent:
    """Semantic "no sensor data", a conditioning value distinct from a
    matrix of measured zeros.  An exact denoiser gives it no likelihood
    terms.  A reference network reads it, like a missing (NaN) epoch,
    as zeros (``ReferenceDenoiser._cond_matrix``), so its input does not
    tell it from measured zeros."""

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
    ) -> tuple[np.ndarray, Iterator[np.ndarray]]:
        """Every term of one denoise of a (B, 5, E) batch: the prior's
        estimate and an iterator over each observation's likelihood, in
        observation order.  Outside a stacked bank each likelihood is
        evaluated as it is reached, so a caller that unbinds each before
        taking the next holds one at a time; ``fsdm_combine_batch`` does,
        also when it keeps gain sums.  Holding every likelihood of a
        denoise until its gains were summed raised ``night-neural``'s
        peak RSS from 57.8–58.0 to 61.6–61.9 MB (perfbench, seed 0, 5
        alternated pairs of 20 s runs)."""
        terms = [(self.get(name), cond) for name, cond in obs]
        if self._stacked:
            stacked = self.global_prior.evaluate_stacked(ys, terms, sigma)
            return stacked[0], iter(stacked[1:])
        prior = self.global_prior.evaluate_batch(ys, ABSENT, sigma)
        return prior, (d.evaluate_batch(ys, cond, sigma) for d, cond in terms)


Observations = Sequence[tuple[str, Conditioning]]


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


_MIN_NORM = 1e-12


def cosine_distance(lik: np.ndarray, pri: np.ndarray) -> np.ndarray:
    """1 − cos of each stage column; (..., 5, E) inputs give (..., E).

    Lies in [0, 1] for nonnegative inputs.
    """
    na = np.linalg.norm(lik, axis=-2)
    nb = np.linalg.norm(pri, axis=-2)
    if np.any(na < _MIN_NORM) or np.any(nb < _MIN_NORM):
        raise ValueError("cosine distance undefined for (near-)zero-norm column")
    return 1.0 - (lik * pri).sum(axis=-2) / (na * nb)


def fsdm_combine_batch(
    ys: np.ndarray,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
    gains: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Combined denoised estimate for a batch of states, before projection.

    ``ys`` has shape (B, 5, E).  ``gains`` maps each observed sensor to
    its (B, E) information-gain sums; the sensor's first observation adds
    the cosine distance between its likelihood and the prior to them.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lam_eff = _resolve_lambda(lam, len(obs))
    prior, liks = bank.evaluate(ys, sigma, obs)
    combined = prior
    pending = set(gains or ())
    for name, _ in obs:
        lik = next(liks)
        combined = combined + lam_eff * (lik - prior)
        if name in pending:
            pending.remove(name)
            gains[name] += cosine_distance(lik, prior)
        # Unbound before the next likelihood is evaluated, so it is freed
        # first.
        del lik
    return combined


def fsdm_denoise_batch(
    ys: np.ndarray,
    sigma: float,
    bank: SensorBank,
    obs: Observations,
    lam: float | None = None,
    gains: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Combined denoised estimate of a (B, 5, E) batch, projected back
    onto the manifold."""
    return project_manifold(fsdm_combine_batch(ys, sigma, bank, obs, lam, gains))
