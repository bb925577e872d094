"""Small trainable reference denoiser.

The architecture is deliberately reduced: a per-epoch windowed affine
encoder over the scaled noisy hypnodensity and the conditioning
features, two residual blocks with an additive noise-level embedding
and a √0.5 skip scale, and an affine head with a per-epoch softmax.
It honors the same evaluation contract as any other denoiser (scaled
input, σ embedding, simplex output), which is all the combination rule
exercises.  Training and inference run one network routine, on a work
set: preallocated arrays that every matmul and ufunc writes with
``out=``.  Training builds a fresh work set per step, with one array
per intermediate, and keeps it as the cache its hand-derived gradients
read (checked against central finite differences); the SiLU's
denominator stays there for its derivative.  Inference has one loop,
``evaluate_batch``, one pass per state under one conditioning;
``forward`` runs it on a batch of one.  The σ embedding and the
conditioning's encoding are computed once per batch, and each state's
encoding once per sample.  A call builds one work set, whose blocks
share arrays, and reuses it for every sample.  Every sample runs the
same operations on arrays of the same shapes and layouts whatever batch
it is in, so a sample's output does not depend on the rest of its
batch; whole-night sampling relies on this when it splits its samples
across processes (see ``sampler``).

The work set makes no new arithmetic, so outputs are bitwise equal to
allocating one array per operation:

* Inference tiles the bias rows and the σ embedding to (E, ·) once per
  call; adding a contiguous array is faster than broadcasting a row and
  gives the same sums.  Training adds the (C,) rows.
* The softmax runs stage-major on a (5, E) copy of the logits: the max
  and the sum reduce elementwise down five contiguous rows, the sum in
  stage order ((((e0 + e1) + e2) + e3) + e4) as numpy's reduction over
  a 5-wide row adds, and the result is exponentiated straight into the
  output.
* Every matmul keeps the operand layouts of ``x @ w.T`` on (E, ·) rows.
  OpenBLAS rounds differently for other layouts at some epoch counts: a
  contiguous copy of w.T for E ≤ 37 with the 32×32 blocks and E ≤ 240
  with the 5×32 head, and channel-major (C, E) arrays for most E ≥ 5.
  Those layouts would change outputs.

Training follows one fixed denoising recipe: draw a recording, draw a
noise level from ln σ ~ N(0.2, 1.4²), corrupt the one-hot target,
optionally blank part or all of the conditioning so the same network
doubles as its own prior estimator, and minimize per-epoch cross
entropy with Adam.  The recipe and the architecture are module
constants; only the step count and the seed are settings.  A network is
its feature count and its weights, and a model file whose architecture
differs from the constants fails to load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypno import Hypnogram, one_hot
from .scorekit import ABSENT, Conditioning, Features

PRIOR = "PRIOR"
MODEL_FORMAT = "fsdm-model-v1"
_SKIP_SCALE = math.sqrt(0.5)
# Tags of the residual blocks, in forward order, as in the weight names.
_BLOCKS = ("0", "1")
# The bias rows, which the network adds after its affine maps.
_ROWS = ("b_enc", *(f"b{k}_{tag}" for tag in _BLOCKS for k in "12"), "b_out")
# Architecture of every network: epochs on each side of the encoder
# window, hidden width, and the σ_data of the input scaling.
WINDOW_RADIUS = 2
CHANNELS = 32
SIGMA_DATA = 0.3160
# Training recipe: the chances of blanking a random conditioning span and
# all of it, ln σ ~ N(SIGMA_LOG_MEAN, SIGMA_LOG_SD²), Adam's step size
# and moment decay rates.
P_AUGMENT, P_ZERO = 0.5, 0.1
SIGMA_LOG_MEAN, SIGMA_LOG_SD = 0.2, 1.4
LEARNING_RATE = 1e-3
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


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


def input_scale(y: np.ndarray, sigma: float, sigma_data: float) -> np.ndarray:
    """Divide the state by √(σ_data² + σ²)."""
    if sigma_data <= 0:
        raise ValueError("sigma_data must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    factor = 1.0 / math.sqrt(sigma_data * sigma_data + sigma * sigma)
    return np.asarray(y, dtype=np.float64) * factor


def _silu(x: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x / (1 + exp(−x)), computed in ``out`` (a new array by default).
    The denominator 1 + exp(−x) is formed in ``den``, which may be ``out``."""
    np.negative(x, out=den)
    # exp(−x) overflows to inf below x ≈ −709, where x / inf = −0.0 and
    # 1 / inf = 0.0 are the exact limits, so the overflow is not reported.
    with np.errstate(over="ignore"):
        np.exp(den, out=den)
    den += 1.0
    return np.divide(x, den, out=out)


def _silu_grad(x: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The SiLU's derivative at x, from its denominator 1 + exp(−x)."""
    s = 1.0 / den
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

    def __init__(self, n_features: int, weights: dict[str, np.ndarray]):
        self.n_features = int(n_features)
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        for name, shape in self._weight_shapes(self.n_features).items():
            if name not in self.weights:
                raise ValueError(f"missing weight array {name!r}")
            if self.weights[name].shape != shape:
                raise ValueError(
                    f"weight array {name!r} has shape {self.weights[name].shape}, "
                    f"expected {shape}"
                )
            if not np.all(np.isfinite(self.weights[name])):
                raise ValueError(f"weight array {name!r} has non-finite entries")

    @staticmethod
    def _weight_shapes(n_features: int) -> dict[str, tuple[int, ...]]:
        """Each weight's shape, in PARAM_ORDER; a matrix is (out, in)."""
        width, c = 2 * WINDOW_RADIUS + 1, CHANNELS
        shapes = {"w_y": (c, 5 * width), "w_x": (c, n_features * width), "b_enc": (c,)}
        for tag in _BLOCKS:
            shapes.update({f"w1_{tag}": (c, c), f"b1_{tag}": (c,),
                           f"w2_{tag}": (c, c), f"b2_{tag}": (c,)})
        shapes.update(w_out=(5, c), b_out=(5,))
        return shapes

    @classmethod
    def init(cls, n_features: int, rng: np.random.Generator) -> "ReferenceDenoiser":
        """A new network: matrices drawn N(0, 1/in) in PARAM_ORDER, biases zero."""
        weights = {
            name: (rng.standard_normal(shape) * (1.0 / math.sqrt(max(shape[1], 1)))
                   if name.startswith("w") else np.zeros(shape))
            for name, shape in cls._weight_shapes(n_features).items()
        }
        return cls(n_features, weights)

    # -- network -----------------------------------------------------------
    #
    # The encoder input splits into the state's share y_win @ w_y.T and the
    # conditioning's share x_win @ w_x.T, so inference encodes the
    # conditioning once per batch.  Training and inference run the same
    # ``_network`` on a work set: inference builds one per call and reuses
    # it for every sample, training builds one per step and keeps it as
    # its cache.

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

    def _y_windows(self, y: np.ndarray, sigma: float) -> np.ndarray:
        return _window_stack(input_scale(y, sigma, SIGMA_DATA), WINDOW_RADIUS)

    def _x_windows(self, cond: Conditioning, n_epochs: int) -> np.ndarray:
        return _window_stack(self._cond_matrix(cond, n_epochs), WINDOW_RADIUS)

    def _work_set(self, n_epochs: int, sigma: float, training: bool) -> dict[str, np.ndarray]:
        """The arrays one network pass writes, and the rows it adds.

        Each block's input u, pre-activation a, SiLU denominator
        1 + exp(−a) and activation h have keys ``u0``, ``a0``, ``den0``,
        ``h0``, ``u1``, ...; the head reads ``u2`` and writes the (E, 5)
        ``logits``, the (5, E) ``log_probs`` and the (E,) ``max`` and
        ``sum`` rows of its softmax.  The rows are the bias rows and the
        σ embedding ``z``.

        Training's work set is the cache its gradients read: one array
        per intermediate, and the (C,) rows.  Inference keeps no
        intermediate, so its blocks share four (E, C) arrays (``u2`` is
        ``u0``, ``a1`` is ``a0``, and ``h0``, ``h1``, ``den0`` and
        ``den1`` are one array) instead of nine, and it tiles the rows to
        (E, ·): adding a contiguous array gives the values of
        broadcasting a row, faster."""
        c = CHANNELS
        rows = {name: self.weights[name] for name in _ROWS}
        rows["z"] = timestep_embedding(sigma, c)
        if training:
            work = {f"{k}{tag}": np.empty((n_epochs, c))
                    for tag in _BLOCKS for k in ("u", "a", "den", "h")}
            work["u2"] = np.empty((n_epochs, c))
        else:
            rows = {name: np.tile(row, (n_epochs, 1)) for name, row in rows.items()}
            u_even, u_odd, a, h = np.empty((4, n_epochs, c))
            work = {"u0": u_even, "u1": u_odd, "u2": u_even}
            for tag in _BLOCKS:
                work.update({f"a{tag}": a, f"den{tag}": h, f"h{tag}": h})
        work.update(logits=np.empty((n_epochs, 5)), log_probs=np.empty((5, n_epochs)),
                    max=np.empty(n_epochs), sum=np.empty(n_epochs))
        work.update(rows)
        return work

    def _network(self, y_enc: np.ndarray, x_enc: np.ndarray, work: dict[str, np.ndarray],
                 probs: np.ndarray) -> np.ndarray:
        """Write the (5, E) probabilities from the two encoder shares into
        probs and return the work set's log-probabilities.  Every
        intermediate goes into its work array, in the order of operations
        of an allocating pass, so the values are bitwise equal to it."""
        w = self.weights
        u = np.add(y_enc, x_enc, out=work["u0"])
        u += work["b_enc"]
        for i, tag in enumerate(_BLOCKS):
            a = np.matmul(u, w[f"w1_{tag}"].T, out=work[f"a{tag}"])
            a += work[f"b1_{tag}"]
            a += work["z"]
            h = _silu(a, work[f"den{tag}"], out=work[f"h{tag}"])
            out = np.matmul(h, w[f"w2_{tag}"].T, out=work[f"u{i + 1}"])
            out += u
            out += work[f"b2_{tag}"]
            out *= _SKIP_SCALE
            u = out
        logits = np.matmul(u, w["w_out"].T, out=work["logits"])
        logits += work["b_out"]
        # Stage-major softmax on a (5, E) copy: reducing over its five rows
        # runs elementwise down contiguous rows and adds them in stage
        # order, ((((e0 + e1) + e2) + e3) + e4), as numpy's reduction over
        # a 5-wide row of the logits does.  probs holds the exponentials
        # until their sum is taken.
        log_probs = work["log_probs"]
        np.copyto(log_probs, logits.T)
        log_probs -= np.maximum.reduce(log_probs, axis=0, out=work["max"])
        np.exp(log_probs, out=probs)
        log_probs -= np.log(np.add.reduce(probs, axis=0, out=work["sum"]), out=work["sum"])
        np.exp(log_probs, out=probs)
        return log_probs

    def _forward(self, y: np.ndarray, cond: Conditioning, sigma: float) -> dict:
        """Training's pass over one state: the network on a fresh work set,
        returned as the cache the gradients read.  ``log_probs`` and
        ``probs`` become (E, 5) copies, the layout the gradients use."""
        w = self.weights
        n_epochs = y.shape[1]
        cache = self._work_set(n_epochs, sigma, training=True)
        cache["y_win"] = self._y_windows(y, sigma)
        cache["x_win"] = self._x_windows(cond, n_epochs)
        probs = np.empty((5, n_epochs))
        log_probs = self._network(cache["y_win"] @ w["w_y"].T, cache["x_win"] @ w["w_x"].T,
                                  cache, probs)
        cache["log_probs"] = np.ascontiguousarray(log_probs.T)
        cache["probs"] = np.ascontiguousarray(probs.T)
        return cache

    # -- inference ---------------------------------------------------------

    def evaluate_batch(self, ys: np.ndarray, cond: Conditioning,
                       sigma: float) -> np.ndarray:
        """The (B, 5, E) estimate under one conditioning.  The σ embedding,
        the tiled rows and the conditioning's encoding are computed once
        per batch; one work set serves every sample's pass."""
        ys = np.asarray(ys)
        if ys.ndim != 3 or ys.shape[1] != 5:
            raise ValueError("states must be a B×5×E batch")
        w = self.weights
        n_batch, _, n_epochs = ys.shape
        x_enc = self._x_windows(cond, n_epochs) @ w["w_x"].T
        out = np.empty(ys.shape)
        work = self._work_set(n_epochs, sigma, training=False)
        y_enc = np.empty((n_epochs, CHANNELS))
        for b in range(n_batch):
            np.matmul(self._y_windows(ys[b], sigma), w["w_y"].T, out=y_enc)
            self._network(y_enc, x_enc, work, out[b])
        return out

    def forward(self, y_noisy: np.ndarray, cond: Conditioning, sigma: float) -> np.ndarray:
        """Denoised estimate of one 5×E state, with simplex columns."""
        return self.evaluate_batch(np.asarray(y_noisy)[None], cond, sigma)[0]

    # -- loss and gradients -----------------------------------------------

    def loss_and_grads(self, y_noisy: np.ndarray, cond: Conditioning, sigma: float,
                       target: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Per-epoch mean cross entropy and its gradient in every weight."""
        w = self.weights
        n_epochs = y_noisy.shape[1]
        cache = self._forward(y_noisy, cond, sigma)
        t = np.asarray(target, dtype=np.float64).T  # (E, 5)
        loss = float(-(t * cache["log_probs"]).sum() / n_epochs)

        d_logits = (cache["probs"] - t) / n_epochs
        grads: dict[str, np.ndarray] = {}
        grads["w_out"] = d_logits.T @ cache["u2"]
        grads["b_out"] = d_logits.sum(axis=0)
        d_u = d_logits @ w["w_out"]
        for tag in reversed(_BLOCKS):
            d_u = self._block_backward(d_u, cache, tag, grads)

        grads["w_y"] = d_u.T @ cache["y_win"]
        grads["w_x"] = d_u.T @ cache["x_win"]
        grads["b_enc"] = d_u.sum(axis=0)
        return loss, grads

    def _block_backward(self, d_out, cache, tag, grads):
        """Gradient at the block's input; its weights' gradients go into grads."""
        w = self.weights
        u_in, a, h = cache[f"u{tag}"], cache[f"a{tag}"], cache[f"h{tag}"]
        d_sum = _SKIP_SCALE * d_out
        d_h = d_sum @ w[f"w2_{tag}"]
        d_a = d_h * _silu_grad(a, cache[f"den{tag}"])
        grads.update({
            f"w2_{tag}": d_sum.T @ h,
            f"b2_{tag}": d_sum.sum(axis=0),
            f"w1_{tag}": d_a.T @ u_in,
            f"b1_{tag}": d_a.sum(axis=0),
        })
        return d_sum + d_a @ w[f"w1_{tag}"]

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


def train(dataset: Dataset, target: str, cfg: TrainConfig) -> ReferenceDenoiser:
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
    net = ReferenceDenoiser.init(n_features, rng)
    # Adam is elementwise, so it runs on one flat vector whose slices are
    # the weight arrays: a few array operations per step, not a few per weight.
    params = np.concatenate([net.weights[k].ravel() for k in net.PARAM_ORDER])
    start = 0
    for key in net.PARAM_ORDER:
        weight = net.weights[key]
        net.weights[key] = params[start:start + weight.size].reshape(weight.shape)
        start += weight.size
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)

    for step in range(1, cfg.steps + 1):
        h, features = dataset[int(rng.integers(len(dataset)))]
        n_epochs = len(h)
        augment = rng.random() < P_AUGMENT
        zero = rng.random() < P_ZERO
        sigma = math.exp(rng.normal(SIGMA_LOG_MEAN, SIGMA_LOG_SD))
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
        grad = np.concatenate([grads[k].ravel() for k in net.PARAM_ORDER])
        adam_m = ADAM_BETA1 * adam_m + (1 - ADAM_BETA1) * grad
        adam_v = ADAM_BETA2 * adam_v + (1 - ADAM_BETA2) * grad * grad
        m_hat = adam_m / (1 - ADAM_BETA1**step)
        v_hat = adam_v / (1 - ADAM_BETA2**step)
        params -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
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


# The architecture a model file records, which must equal the constants.
_ARCHITECTURE = {"window_radius": WINDOW_RADIUS, "channels": CHANNELS,
                 "sigma_data": SIGMA_DATA}


def save_model(path, net: ReferenceDenoiser) -> None:
    doc = {
        "format": MODEL_FORMAT,
        **_ARCHITECTURE,
        "n_features": net.n_features,
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
    for field, value in _ARCHITECTURE.items():
        if doc.get(field) != value:
            raise ValueError(
                f"model {field} is {doc.get(field)!r}, but every network has {value!r}")
    weights = {k: np.array(v) for k, v in doc["weights"].items()}
    return ReferenceDenoiser(doc["n_features"], weights)
