"""Discrete time grid for the probability-flow ODE.

The grid interpolates between sigma_max and sigma_min in 1/rho power
space over M points and appends an exact zero, so a full run makes M
steps.  The noise level at each grid point is the grid time itself,
sigma(t) = t (Karras et al. 2022), so the grid is also the sigma grid.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleParams:
    sigma_min: float = 0.0001
    sigma_max: float = 40.0
    rho: float = 7.0
    M: int = 32

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        # Denoisers divide by σ², so it must neither underflow nor overflow.
        for name in ("sigma_min", "sigma_max"):
            sigma = getattr(self, name)
            if not (sys.float_info.min <= sigma * sigma <= sys.float_info.max):
                raise ValueError(f"{name}={sigma!r}: its square is not a positive normal float")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.M < 2:
            raise ValueError("M must be at least 2")


def time_steps(p: ScheduleParams) -> np.ndarray:
    """Return the grid t_0..t_M (length M+1, strictly decreasing).

    t_0 = sigma_max and t_{M-1} = sigma_min are pinned by substitution
    rather than recomputed through the (x^{1/rho})^rho round trip, which
    would smear the endpoints by floating-point error.  t_M = 0.
    """
    m = np.arange(p.M, dtype=np.float64)
    hi = p.sigma_max ** (1.0 / p.rho)
    lo = p.sigma_min ** (1.0 / p.rho)
    t = (hi + m / (p.M - 1) * (lo - hi)) ** p.rho
    t[0] = p.sigma_max
    t[-1] = p.sigma_min
    out = np.concatenate([t, [0.0]])
    if not np.all(np.diff(out) < 0):
        raise ValueError("time grid is not strictly decreasing")
    return out
