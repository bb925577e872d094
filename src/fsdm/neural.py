"""Small trainable reference denoiser.

The architecture is deliberately reduced: a per-epoch windowed affine
encoder over the scaled noisy hypnodensity and the conditioning
features, two residual blocks with an additive noise-level embedding
and a √0.5 skip scale, and an affine head with a per-epoch softmax.
It honors the same evaluation contract as any other denoiser (scaled
input, σ embedding, simplex output), which is all the combination rule
exercises.  Gradients are hand-derived and checked against central
finite differences.

Training follows the standard denoising recipe: draw a recording, draw
a noise level from ln σ ~ N(0.2, 1.4²), corrupt the one-hot target,
optionally blank part or all of the conditioning so the same network
doubles as its own prior estimator, and minimize per-epoch cross
entropy with moment-based stochastic gradient descent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hypno import Hypnodensity, Hypnogram, one_hot
from .scorekit import ABSENT, Conditioning, Features

PRIOR = "PRIOR"
MODEL_FORMAT = "fsdm-model-v1"
_SKIP_SCALE = math.sqrt(0.5)


@dataclass(frozen=True)
class TrainConfig:
    p_augment: float = 0.5
    p_zero: float = 0.1
    sigma_log_mean: float = 0.2
    sigma_log_sd: float = 1.4
    steps: int = 2000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0
    window_radius: int = 2
    channels: int = 32
    sigma_data: float = 0.3160

    def __post_init__(self):
        for name in ("p_augment", "p_zero"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.steps < 0 or self.learning_rate <= 0:
            raise ValueError("steps must be >= 0 and learning_rate positive")


def timestep_embedding(sigma: float, channels: int) -> np.ndarray:
    """Sine–cosine embedding of the scaled log noise level (length C)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if channels % 2 != 0 or channels < 4:
        raise ValueError("channels must be an even integer >= 4")
    half = channels // 2
    scaled = 0.25 * math.log(sigma)
    freqs = 1000.0 ** (-np.arange(half) / (half - 1))
    return np.concatenate([np.cos(scaled * freqs), np.sin(scaled * freqs)])


def input_scale(y, sigma: float, sigma_data: float):
    """Divide the state by √(σ_data² + σ²)."""
    if sigma_data <= 0:
        raise ValueError("sigma_data must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    factor = 1.0 / math.sqrt(sigma_data * sigma_data + sigma * sigma)
    if isinstance(y, Hypnodensity):
        return Hypnodensity(y.values * factor)
    return np.asarray(y, dtype=np.float64) * factor


def _silu(x: np.ndarray) -> np.ndarray:
    # exp(−x) overflows to inf below x ≈ −709, where x / inf = −0.0 and
    # 1 / inf = 0.0 are the exact limits, so the overflow is not reported.
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def _silu_grad(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _window_stack(mat: np.ndarray, radius: int) -> np.ndarray:
    """(D, E) → (E, D·(2r+1)); epoch e's row is mat[:, e−r..e+r], zero-padded."""
    depth, n_epochs = mat.shape
    padded = np.zeros((depth, n_epochs + 2 * radius))
    padded[:, radius:radius + n_epochs] = mat
    blocks = [padded[:, k:k + n_epochs] for k in range(2 * radius + 1)]
    return np.concatenate(blocks, axis=0).T


class ReferenceDenoiser:
    """Windowed-affine denoiser with residual blocks; Denoiser-contract member."""

    PARAM_ORDER = (
        "w_y", "w_x", "b_enc",
        "w1_0", "b1_0", "w2_0", "b2_0",
        "w1_1", "b1_1", "w2_1", "b2_1",
        "w_out", "b_out",
    )

    def __init__(self, window_radius: int, channels: int, n_features: int,
                 sigma_data: float, weights: dict[str, np.ndarray]):
        self.window_radius = int(window_radius)
        self.channels = int(channels)
        self.n_features = int(n_features)
        self.sigma_data = float(sigma_data)
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        for name in self.PARAM_ORDER:
            if name not in self.weights:
                raise ValueError(f"missing weight array {name!r}")
            if not np.all(np.isfinite(self.weights[name])):
                raise ValueError(f"weight array {name!r} has non-finite entries")

    @classmethod
    def init(cls, n_features: int, rng: np.random.Generator,
             window_radius: int = 2, channels: int = 32,
             sigma_data: float = 0.3160) -> "ReferenceDenoiser":
        width = 2 * window_radius + 1
        c = channels

        def dense(n_out, n_in):
            scale = 1.0 / math.sqrt(max(n_in, 1))
            return rng.standard_normal((n_out, n_in)) * scale

        weights = {
            "w_y": dense(c, 5 * width),
            "w_x": dense(c, n_features * width),
            "b_enc": np.zeros(c),
            "w1_0": dense(c, c), "b1_0": np.zeros(c),
            "w2_0": dense(c, c), "b2_0": np.zeros(c),
            "w1_1": dense(c, c), "b1_1": np.zeros(c),
            "w2_1": dense(c, c), "b2_1": np.zeros(c),
            "w_out": dense(5, c), "b_out": np.zeros(5),
        }
        return cls(window_radius, channels, n_features, sigma_data, weights)

    # -- forward ---------------------------------------------------------

    def _cond_matrix(self, cond: Conditioning, n_epochs: int) -> np.ndarray:
        if cond is ABSENT:
            return np.zeros((self.n_features, n_epochs))
        if not isinstance(cond, Features):
            raise TypeError("conditioning must be Features or ABSENT")
        v = cond.values
        if v.shape != (self.n_features, n_epochs):
            raise ValueError(
                f"conditioning shape {v.shape} does not match "
                f"({self.n_features}, {n_epochs})"
            )
        # NaN marks a missing epoch; training writes 0.0 into blanked spans.
        return np.where(np.isnan(v), 0.0, v)

    def _forward(self, y: np.ndarray, x: np.ndarray, sigma: float) -> dict:
        w = self.weights
        y_scaled = input_scale(y, sigma, self.sigma_data)
        y_win = _window_stack(y_scaled, self.window_radius)
        x_win = _window_stack(x, self.window_radius)
        z = timestep_embedding(sigma, self.channels)
        u0 = y_win @ w["w_y"].T + x_win @ w["w_x"].T + w["b_enc"]
        a0 = u0 @ w["w1_0"].T + w["b1_0"] + z
        h0 = _silu(a0)
        u1 = _SKIP_SCALE * (u0 + h0 @ w["w2_0"].T + w["b2_0"])
        a1 = u1 @ w["w1_1"].T + w["b1_1"] + z
        h1 = _silu(a1)
        u2 = _SKIP_SCALE * (u1 + h1 @ w["w2_1"].T + w["b2_1"])
        logits = u2 @ w["w_out"].T + w["b_out"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        return {
            "y_win": y_win, "x_win": x_win,
            "u0": u0, "a0": a0, "h0": h0,
            "u1": u1, "a1": a1, "h1": h1, "u2": u2,
            "log_probs": log_probs, "probs": np.exp(log_probs),
        }

    def forward(self, y_noisy: np.ndarray | Hypnodensity, cond: Conditioning,
                sigma: float) -> np.ndarray:
        """Denoised estimate as a raw (5, E) array with simplex columns."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        y = y_noisy.values if isinstance(y_noisy, Hypnodensity) else np.asarray(y_noisy)
        if y.ndim != 2 or y.shape[0] != 5:
            raise ValueError("state must be a 5×E matrix")
        x = self._cond_matrix(cond, y.shape[1])
        return self._forward(y, x, sigma)["probs"].T

    def evaluate(self, y_noisy: Hypnodensity, cond: Conditioning,
                 sigma: float) -> Hypnodensity:
        return Hypnodensity(self.forward(y_noisy, cond, sigma))

    def evaluate_batch(self, ys: np.ndarray, cond: Conditioning,
                       sigma: float) -> np.ndarray:
        out = np.empty_like(ys, dtype=np.float64)
        for b in range(ys.shape[0]):
            out[b] = self.forward(ys[b], cond, sigma)
        return out

    # -- loss and gradients -----------------------------------------------

    def loss_and_grads(self, y_noisy: np.ndarray, cond: Conditioning, sigma: float,
                       target: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Per-epoch mean cross entropy and its gradient in every weight."""
        w = self.weights
        n_epochs = y_noisy.shape[1]
        x = self._cond_matrix(cond, n_epochs)
        cache = self._forward(y_noisy, x, sigma)
        t = np.asarray(target, dtype=np.float64).T  # (E, 5)
        loss = float(-(t * cache["log_probs"]).sum() / n_epochs)

        d_logits = (cache["probs"] - t) / n_epochs
        grads: dict[str, np.ndarray] = {}
        grads["w_out"] = d_logits.T @ cache["u2"]
        grads["b_out"] = d_logits.sum(axis=0)
        d_u2 = d_logits @ w["w_out"]

        d_u1, g = self._block_backward(d_u2, cache["u1"], cache["a1"], cache["h1"], "1")
        grads.update(g)
        d_u0, g = self._block_backward(d_u1, cache["u0"], cache["a0"], cache["h0"], "0")
        grads.update(g)

        grads["w_y"] = d_u0.T @ cache["y_win"]
        grads["w_x"] = d_u0.T @ cache["x_win"]
        grads["b_enc"] = d_u0.sum(axis=0)
        return loss, grads

    def _block_backward(self, d_out, u_in, a, h, tag):
        w = self.weights
        d_sum = _SKIP_SCALE * d_out
        d_h = d_sum @ w[f"w2_{tag}"]
        d_a = d_h * _silu_grad(a)
        grads = {
            f"w2_{tag}": d_sum.T @ h,
            f"b2_{tag}": d_sum.sum(axis=0),
            f"w1_{tag}": d_a.T @ u_in,
            f"b1_{tag}": d_a.sum(axis=0),
        }
        d_u_in = d_sum + d_a @ w[f"w1_{tag}"]
        return d_u_in, grads

    def training_loss(self, y_noisy: np.ndarray, cond: Conditioning, sigma: float,
                      target: np.ndarray) -> float:
        loss, _ = self.loss_and_grads(y_noisy, cond, sigma, target)
        return loss


Dataset = Sequence[tuple[Hypnogram, dict[str, np.ndarray]]]


def _feature_matrix(features: dict[str, np.ndarray], sensor: str, n_epochs: int) -> np.ndarray:
    if sensor not in features:
        raise KeyError(f"recording has no features for sensor {sensor!r}")
    v = np.asarray(features[sensor], dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if v.shape[1] != n_epochs:
        raise ValueError("features are not epoch-aligned with the hypnogram")
    return v


def train(
    dataset: Dataset,
    target: str,
    cfg: TrainConfig,
    callback: Callable[[int, ReferenceDenoiser], None] | None = None,
    callback_every: int = 10,
) -> ReferenceDenoiser:
    """Train a denoiser for one sensor (or the prior) on a recording set.

    One recording per step; the conditioning span blanked under the
    augmentation draw is an inclusive epoch range [k, l] with endpoints
    drawn uniformly and swapped when k > l.  PRIOR training never sees
    conditioning.  Deterministic given cfg.seed.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    rng = np.random.default_rng(cfg.seed)
    if target == PRIOR:
        n_features = 0
    else:
        first_h, first_f = dataset[0]
        n_features = _feature_matrix(first_f, target, len(first_h)).shape[0]
    net = ReferenceDenoiser.init(
        n_features, rng, cfg.window_radius, cfg.channels, cfg.sigma_data
    )
    adam_m = {k: np.zeros_like(v) for k, v in net.weights.items()}
    adam_v = {k: np.zeros_like(v) for k, v in net.weights.items()}

    for step in range(1, cfg.steps + 1):
        h, features = dataset[int(rng.integers(len(dataset)))]
        n_epochs = len(h)
        augment = rng.random() < cfg.p_augment
        zero = rng.random() < cfg.p_zero
        sigma = math.exp(rng.normal(cfg.sigma_log_mean, cfg.sigma_log_sd))
        clean = one_hot(h).values
        noise = rng.normal(0.0, sigma, size=clean.shape)

        if target == PRIOR:
            cond: Conditioning = ABSENT
        else:
            x = _feature_matrix(features, target, n_epochs).copy()
            if augment:
                k = int(rng.integers(n_epochs))
                l = int(rng.integers(n_epochs))
                if k > l:
                    k, l = l, k
                x[:, k:l + 1] = 0.0
            if zero:
                x[:] = 0.0
            cond = Features(x)

        _, grads = net.loss_and_grads(clean + noise, cond, sigma, clean)
        for key, grad in grads.items():
            adam_m[key] = cfg.beta1 * adam_m[key] + (1 - cfg.beta1) * grad
            adam_v[key] = cfg.beta2 * adam_v[key] + (1 - cfg.beta2) * grad * grad
            m_hat = adam_m[key] / (1 - cfg.beta1**step)
            v_hat = adam_v[key] / (1 - cfg.beta2**step)
            net.weights[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        if callback is not None and step % callback_every == 0:
            callback(step, net)
    return net


def grad_check(
    net: ReferenceDenoiser,
    sample: tuple[np.ndarray, Conditioning, float, np.ndarray],
    eps: float = 1e-5,
    max_params: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Checks every parameter when there are at most max_params, otherwise a
    random subset of max_params coordinates.  The error is
    |analytic − numeric| / max(|analytic|, |numeric|, 1e-4), the absolute
    floor covering locally flat directions.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    y_noisy, cond, sigma, target = sample
    _, grads = net.loss_and_grads(y_noisy, cond, sigma, target)

    coords: list[tuple[str, int]] = []
    for name in net.PARAM_ORDER:
        coords.extend((name, i) for i in range(net.weights[name].size))
    if len(coords) > max_params:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(coords), size=max_params, replace=False)
        coords = [coords[int(i)] for i in picks]

    worst = 0.0
    for name, flat_idx in coords:
        w = net.weights[name]
        idx = np.unravel_index(flat_idx, w.shape)
        original = w[idx]
        w[idx] = original + eps
        loss_hi = net.training_loss(y_noisy, cond, sigma, target)
        w[idx] = original - eps
        loss_lo = net.training_loss(y_noisy, cond, sigma, target)
        w[idx] = original
        numeric = (loss_hi - loss_lo) / (2 * eps)
        analytic = grads[name][idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
        worst = max(worst, err)
    return worst


def save_model(path, net: ReferenceDenoiser) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "window_radius": net.window_radius,
        "channels": net.channels,
        "n_features": net.n_features,
        "sigma_data": net.sigma_data,
        "weights": {k: v.tolist() for k, v in net.weights.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_model(path) -> ReferenceDenoiser:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    return ReferenceDenoiser(
        window_radius=doc["window_radius"],
        channels=doc["channels"],
        n_features=doc["n_features"],
        sigma_data=doc["sigma_data"],
        weights={k: np.array(v) for k, v in doc["weights"].items()},
    )
