"""Synthetic worlds with exact posterior enumeration and closed-form
Bayes-optimal denoisers.

Emissions are per-epoch independent given the stage.  The exact
denoiser at noise level σ is the posterior mean of the one-hot vertices
under Gaussian smoothing:

    D(y, cond, σ) = Σ_h w_h · onehot(h),
    w_h ∝ p(h | cond) · exp(−‖y − onehot(h)‖² / (2σ²)),

whose column e is the smoothed posterior marginal of epoch e.  Since
‖y − onehot(h)‖² splits over epochs, the mixture under a Markov prior is
a hidden Markov model and the denoiser runs forward-backward, with no
epoch cap.  Denoisers of worlds with the same prior run the same kernel
and differ only in their conditioning term, so a bank of them stacks
every term of one denoise into one kernel call (``evaluate_stacked``).
A denoiser targets the prior or one sensor.  Given several sensors,
the posterior sums their log likelihoods (``enumerate_posterior``) and
the smoothed score runs the prior's kernel on that sum
(``exact_smoothed_score``).  An explicit prior (a table over all 5^E
hypnograms) and the enumeration oracles (``hypnogram_table``,
``log_prior_table``, ``enumerate_posterior``) are capped at 8 epochs, a
cap ``_check_enumerable`` alone tests.  Each of their 5^E tables is a
C-order (5,)*E tensor, flattened, whose axis e is epoch e; the
explicit-prior kernel and ``enumerate_posterior`` build it with the
same helper.  All mixture computations run in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._kernels import _log_weights, markov_marginals, mixture_marginals
from .hypno import N_STAGES, freeze_array, json_list, required_field
from .scorekit import ABSENT, PRIOR, Conditioning, Features, SensorBank, tweedie_score

ENUMERATION_CAP = 8

# exp(-745) is the smallest positive normal-ish double; flooring log
# densities here keeps -inf out of Gaussian likelihood sums.
LOG_DENSITY_FLOOR = -745.0

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CategoricalEmission:
    """Per-stage categorical law over K symbols (5×K row-stochastic)."""

    table: np.ndarray

    def __post_init__(self):
        t = freeze_array(self, "table", self.table)
        if t.ndim != 2 or t.shape[0] != N_STAGES or t.shape[1] < 1:
            raise ValueError(f"categorical table must be 5×K, got {t.shape}")
        if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > _NORM_TOL):
            raise ValueError("categorical rows must be nonnegative and sum to 1")

    @property
    def n_symbols(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class GaussianEmission:
    """Per-stage Gaussian law with stage-specific mean and sd."""

    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        m = freeze_array(self, "means", self.means)
        s = freeze_array(self, "sds", self.sds)
        if m.shape != (N_STAGES,) or s.shape != (N_STAGES,):
            raise ValueError("means and sds must each have 5 entries")
        if np.any(s <= 0):
            raise ValueError("sds must be positive")


EmissionModel = CategoricalEmission | GaussianEmission


@dataclass(frozen=True)
class ExplicitPrior:
    """Probability table over all 5^E hypnograms, big-endian stage order
    (epoch 0 is the most significant digit)."""

    table: np.ndarray

    def __post_init__(self):
        t = freeze_array(self, "table", self.table)
        if t.ndim != 1 or np.any(t < 0) or abs(t.sum() - 1.0) > _NORM_TOL:
            raise ValueError("prior table must be a 1-D distribution summing to 1")


@dataclass(frozen=True)
class MarkovPrior:
    initial: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        init = freeze_array(self, "initial", self.initial)
        trans = freeze_array(self, "transition", self.transition)
        if init.shape != (N_STAGES,) or abs(init.sum() - 1.0) > _NORM_TOL:
            raise ValueError("initial distribution must have 5 entries summing to 1")
        if trans.shape != (N_STAGES, N_STAGES) or np.any(
            np.abs(trans.sum(axis=1) - 1.0) > _NORM_TOL
        ):
            raise ValueError("transition matrix must be 5×5 row-stochastic")
        if np.any(init < 0) or np.any(trans < 0):
            raise ValueError("probabilities must be nonnegative")


Prior = ExplicitPrior | MarkovPrior


@dataclass(frozen=True)
class WorldModel:
    n_epochs: int
    prior: Prior
    sensors: tuple[tuple[str, EmissionModel], ...] = ()

    def __post_init__(self):
        if self.n_epochs < 1:
            raise ValueError("world must have at least one epoch")
        object.__setattr__(self, "sensors", tuple(self.sensors))
        names = [n for n, _ in self.sensors]
        if len(set(names)) != len(names):
            raise ValueError("sensor names must be unique")
        if isinstance(self.prior, ExplicitPrior):
            _check_enumerable(self.n_epochs)
            if self.prior.table.shape[0] != N_STAGES**self.n_epochs:
                raise ValueError("explicit prior table must have 5^E entries")

    def sensor_names(self) -> list[str]:
        return [n for n, _ in self.sensors]

    def emission(self, name: str) -> EmissionModel:
        for n, em in self.sensors:
            if n == name:
                return em
        raise KeyError(f"unknown sensor {name!r}")


def _check_enumerable(n_epochs: int) -> None:
    if n_epochs > ENUMERATION_CAP:
        raise ValueError(
            f"n_epochs={n_epochs} too large for enumeration (cap {ENUMERATION_CAP})"
        )


@lru_cache(maxsize=None)
def hypnogram_table(n_epochs: int) -> np.ndarray:
    """All 5^E hypnograms as a (5^E, E) uint8 array, big-endian order."""
    _check_enumerable(n_epochs)
    grids = np.meshgrid(*([np.arange(N_STAGES, dtype=np.uint8)] * n_epochs), indexing="ij")
    table = np.stack([g.ravel() for g in grids], axis=1)
    table.setflags(write=False)
    return table


def log_prior_table(world: WorldModel) -> np.ndarray:
    """Log prior over all 5^E hypnograms, matching hypnogram_table order."""
    _check_enumerable(world.n_epochs)
    with np.errstate(divide="ignore"):
        if isinstance(world.prior, ExplicitPrior):
            return np.log(world.prior.table)
        lp = np.log(world.prior.initial)
        lt = np.log(world.prior.transition)
    for _ in range(world.n_epochs - 1):
        lp = lp[..., None] + lt[(np.newaxis,) * (lp.ndim - 1)]
    return lp.ravel()


def emission_loglik(em: EmissionModel, obs: np.ndarray) -> np.ndarray:
    """Per-stage log likelihood matrix L[s, e] = log p(obs_e | stage s).

    NaN observations mark missing epochs and contribute a zero column.
    """
    obs = np.asarray(obs, dtype=np.float64).ravel()
    out = np.zeros((N_STAGES, obs.shape[0]))
    present = ~np.isnan(obs)
    if not np.any(present):
        return out
    if isinstance(em, CategoricalEmission):
        symbols = obs[present]
        sym_int = symbols.astype(np.int64)
        if np.any(sym_int != symbols) or np.any(sym_int < 0) or np.any(
            sym_int >= em.n_symbols
        ):
            raise ValueError("categorical observations must be symbol indices")
        with np.errstate(divide="ignore"):
            out[:, present] = np.log(em.table)[:, sym_int]
    else:
        x = obs[present]
        z = (x[None, :] - em.means[:, None]) / em.sds[:, None]
        logpdf = -0.5 * z**2 - np.log(em.sds)[:, None] - 0.5 * np.log(2 * np.pi)
        out[:, present] = np.maximum(logpdf, LOG_DENSITY_FLOOR)
    return out


def _conditional_loglik(world: WorldModel, obs: dict[str, np.ndarray]) -> np.ndarray:
    total = np.zeros((N_STAGES, world.n_epochs))
    for name, seq in obs.items():
        seq = np.asarray(seq, dtype=np.float64).ravel()
        if seq.shape[0] != world.n_epochs:
            raise ValueError(f"observation for {name!r} must have E={world.n_epochs} entries")
        total += emission_loglik(world.emission(name), seq)
    return total


def enumerate_posterior(world: WorldModel, obs: dict[str, np.ndarray]) -> np.ndarray:
    """Exact posterior over all 5^E hypnograms given an observation subset."""
    s = _log_weights(log_prior_table(world), _conditional_loglik(world, obs)).ravel()
    m = s.max()
    if not np.isfinite(m):
        raise ValueError("observations have zero probability under this world")
    w = np.exp(s - m)
    return w / w.sum()


class ExactDenoiser:
    """Bayes-optimal denoiser for a world, for the prior or one sensor.
    Satisfies the scorekit Denoiser contract.

    A Markov prior is evaluated by forward-backward, an explicit prior
    by enumeration; the kernel is fixed at construction.
    """

    def __init__(self, world: WorldModel, target: str):
        if target != PRIOR and target not in world.sensor_names():
            raise KeyError(f"unknown denoiser target {target!r}")
        self.world = world
        self.target = target
        if isinstance(world.prior, MarkovPrior):
            with np.errstate(divide="ignore"):
                self._log_init = np.log(world.prior.initial)
                self._log_trans = np.log(world.prior.transition)
            self._marginals = self._forward_backward
        else:
            self._log_prior = log_prior_table(world)
            self._marginals = self._enumerate
        self._memo: tuple[Features, np.ndarray] | None = None

    def _forward_backward(self, a: np.ndarray) -> np.ndarray:
        return markov_marginals(self._log_init, self._log_trans, a)

    def _enumerate(self, a: np.ndarray) -> np.ndarray:
        return mixture_marginals(self._log_prior, a)

    def _cond_loglik(self, cond: Conditioning) -> np.ndarray:
        """The (5, E) terms of ``cond``, zero for ABSENT and for the prior.
        ``Features`` is immutable, so the terms of the last conditioning
        are kept, keyed by its identity, and a run of denoises with one
        conditioning computes them once.  A conditioning that raises is
        not kept."""
        if self.target == PRIOR or cond is ABSENT:
            return np.zeros((N_STAGES, self.world.n_epochs))
        if self._memo is None or self._memo[0] is not cond:
            loglik = self._features_loglik(cond)
            loglik.setflags(write=False)
            self._memo = (cond, loglik)
        return self._memo[1]

    def _features_loglik(self, cond: Features) -> np.ndarray:
        if not isinstance(cond, Features):
            raise TypeError("conditioning must be Features or ABSENT")
        v = cond.values
        if v.shape[1] != self.world.n_epochs:
            raise ValueError("conditioning epoch count does not match world")
        if v.shape[0] != 1:
            raise ValueError("per-sensor conditioning must have a single row")
        return emission_loglik(self.world.emission(self.target), v[0])

    def shares_prior(self, other) -> bool:
        """Whether ``other`` is an exact denoiser over the same epoch count
        and prior, so that its terms run this denoiser's kernel."""
        if not isinstance(other, ExactDenoiser):
            return False
        a, b = self.world, other.world
        return a.n_epochs == b.n_epochs and type(a.prior) is type(b.prior) and all(
            np.array_equal(getattr(a.prior, f.name), getattr(b.prior, f.name))
            for f in fields(a.prior)
        )

    def evaluate_batch(self, ys: np.ndarray, cond: Conditioning, sigma: float) -> np.ndarray:
        return self._run(ys, self._cond_loglik(cond)[None], sigma)[0]

    def evaluate_stacked(self, ys: np.ndarray,
                         terms: Sequence[tuple[ExactDenoiser, Conditioning]],
                         sigma: float) -> np.ndarray:
        """This denoiser's ABSENT estimate of a (B, 5, E) batch, then each
        (denoiser, cond) term's estimate, as one (1 + len(terms), B, 5, E)
        array from one kernel call.  Every term's denoiser must share
        this one's prior; the kernel treats batch items independently,
        so each slice equals its own ``evaluate_batch`` bitwise."""
        loglik = [self._cond_loglik(ABSENT)] + [d._cond_loglik(cond) for d, cond in terms]
        return self._run(ys, np.stack(loglik), sigma)

    def _run(self, ys: np.ndarray, loglik: np.ndarray, sigma: float) -> np.ndarray:
        """Kernel over every (K, 5, E) conditioning term and every state:
        a = loglik + ys/σ², shape (K, B, 5, E), as one batch of K·B."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        ys = np.asarray(ys, dtype=np.float64)
        a = loglik[:, None] + ys / (sigma * sigma)
        try:
            out = self._marginals(a.reshape(-1, *a.shape[-2:]))
        except FloatingPointError as err:
            with np.errstate(over="ignore"):  # checked here only: the normal path pays nothing
                if not np.isfinite(ys / (sigma * sigma)).all():
                    raise ValueError(f"noise level sigma={float(sigma)!r} is too small for the "
                                     "exact kernel: ys / sigma^2 overflows") from err
            raise ValueError("conditioning has zero probability under this world") from err
        return out.reshape(a.shape)


def exact_denoiser(world: WorldModel, target: str) -> ExactDenoiser:
    return ExactDenoiser(world, target)


def exact_bank(world: WorldModel, names: Iterable[str] | None = None) -> SensorBank:
    """Exact prior denoiser plus one exact denoiser per named sensor
    (every world sensor, in world order, when ``names`` is None)."""
    if names is None:
        names = world.sensor_names()
    return SensorBank(
        exact_denoiser(world, PRIOR),
        tuple((name, exact_denoiser(world, name)) for name in names),
    )


def exact_smoothed_score(
    world: WorldModel,
    obs: dict[str, np.ndarray],
    ys: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """∇_y log of the σ-smoothed posterior mixture at each state of a
    (B, 5, E) batch: the prior's kernel on the summed log likelihoods of
    the observed sensors."""
    loglik = _conditional_loglik(world, obs)[None]
    return tweedie_score(ExactDenoiser(world, PRIOR)._run(ys, loglik, sigma)[0], ys, sigma)


# ---------------------------------------------------------------------------
# JSON serialization: {"type": tag, field: nested list, ...}, with each
# dataclass field under its own name (matrices row-major)
# ---------------------------------------------------------------------------

_PRIOR_TYPES = {"explicit": ExplicitPrior, "markov": MarkovPrior}
_EMISSION_TYPES = {"categorical": CategoricalEmission, "gaussian": GaussianEmission}
_TAGS = {cls: tag for types in (_PRIOR_TYPES, _EMISSION_TYPES) for tag, cls in types.items()}


def _to_dict(value: Prior | EmissionModel) -> dict:
    return {"type": _TAGS[type(value)],
            **{f.name: getattr(value, f.name).tolist() for f in fields(value)}}


def _from_dict(d: dict, types: dict, kind: str):
    tag = required_field(d, "type", kind)
    if tag not in types:
        raise ValueError(f"unknown {kind} type {tag!r}")
    cls = types[tag]
    return cls(**{f.name: np.array(required_field(d, f.name, f"{tag} {kind}"))
                  for f in fields(cls)})


def world_to_dict(world: WorldModel) -> dict:
    return {
        "n_epochs": world.n_epochs,
        "prior": _to_dict(world.prior),
        "sensors": [
            {"name": name, "emission": _to_dict(em)} for name, em in world.sensors
        ],
    }


def world_from_dict(d: dict) -> WorldModel:
    prior = _from_dict(required_field(d, "prior", "world model"), _PRIOR_TYPES, "prior")
    sensors = tuple(
        (required_field(s, "name", "world model sensor"),
         _from_dict(required_field(s, "emission", "world model sensor"), _EMISSION_TYPES,
                    "emission"))
        for s in json_list(d.get("sensors", []), "world model field 'sensors'")
    )
    return WorldModel(n_epochs=int(required_field(d, "n_epochs", "world model")),
                      prior=prior, sensors=sensors)
