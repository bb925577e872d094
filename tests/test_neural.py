import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from fsdm import neural
from fsdm.hypno import Hypnogram, one_hot
from fsdm.neural import (
    PRIOR,
    _silu,
    _silu_grad,
    _window_stack,
    ReferenceDenoiser,
    TrainConfig,
    grad_check,
    input_scale,
    load_model,
    save_model,
    timestep_embedding,
    train,
)
from fsdm.scorekit import ABSENT, Features, SensorBank, fsdm_denoise_batch


def _sample_net(n_features=2, seed=0):
    return ReferenceDenoiser.init(n_features=n_features, rng=np.random.default_rng(seed))


def _sample_case(net, n_epochs=6, seed=1, sigma=0.7):
    rng = np.random.default_rng(seed)
    h = Hypnogram.from_indices(rng.integers(0, 5, n_epochs))
    target = one_hot(h).values
    y_noisy = target + sigma * rng.standard_normal((5, n_epochs))
    cond = (
        Features(rng.standard_normal((net.n_features, n_epochs)))
        if net.n_features else ABSENT
    )
    return y_noisy, cond, sigma, target


def _reference_pass(net, y, cond, sigma, dtype):
    """The network written plainly in ``dtype``, one new array per
    operation: in float64, the cache training's gradients read, with
    (E, 5) ``probs``.  The logits are widened to float64 before the
    head's float64 bias is added, and the softmax runs in float64."""
    w = {name: value.astype(dtype) for name, value in net.weights.items()}
    x = (np.zeros((net.n_features, y.shape[1])) if cond is ABSENT
         else np.where(np.isnan(cond.values), 0.0, cond.values))
    cache = {"y_win": _window_stack(input_scale(y, sigma)).astype(dtype),
             "x_win": _window_stack(x).astype(dtype)}
    z = timestep_embedding(sigma).astype(dtype)
    u = cache["y_win"] @ w["w_y"].T + cache["x_win"] @ w["w_x"].T + w["b_enc"]
    for tag in ("0", "1"):
        a = u @ w[f"w1_{tag}"].T + w[f"b1_{tag}"] + z
        den = 1.0 + np.exp(-a)
        h = a / den
        cache.update({f"u{tag}": u, f"a{tag}": a, f"den{tag}": den, f"h{tag}": h})
        u = (h @ w[f"w2_{tag}"].T + u + w[f"b2_{tag}"]) * neural._SKIP_SCALE
    logits = (u @ w["w_out"].T).astype(np.float64) + net.weights["b_out"]
    logits = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    cache.update(u2=u, log_probs=log_probs, probs=np.exp(log_probs))
    return cache


# The largest |Δ| allowed between an estimate of inference's float32
# pass and training's float64 one: ~40 float32 ulps of 1.  Random biased
# networks read up to 1.6e-6 over the grid of
# test_float32_inference_is_within_the_tolerance_of_the_float64_pass.
FLOAT32_TOL = 5e-6


def _layout(a):
    return a.shape, a.flags.c_contiguous, a.flags.f_contiguous


def _biased_net(n_features, seed):
    """A new network with random biases, so every row the network adds
    is nonzero."""
    net = _sample_net(n_features=n_features, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for name in net.PARAM_ORDER:
        if name.startswith("b"):
            net.weights[name] = 0.5 * rng.standard_normal(net.weights[name].shape)
    return net


# Epoch counts on both sides of where OpenBLAS's float64 rounding depends
# on the weights' layout: a contiguous copy of w.T gives other bits than
# the w.T view for E ≤ 37 with the 32×32 blocks and E ≤ 240 with the head.
@pytest.mark.parametrize("n_epochs", [1, 7, 37, 38, 120, 240, 960])
@pytest.mark.parametrize("n_features", [0, 2])
def test_network_equals_allocating_reference_bitwise(n_epochs, n_features):
    # Inference equals a float32 allocating pass, and training's cache a
    # float64 one.
    net = _biased_net(n_features, seed=n_epochs)
    rng = np.random.default_rng([n_epochs, n_features])
    ys = 2.0 * rng.standard_normal((3, 5, n_epochs))
    x = rng.standard_normal((n_features, n_epochs))
    x[:, n_epochs // 2] = np.nan
    cond = Features(x) if n_features else ABSENT
    target = one_hot(Hypnogram.from_indices(rng.integers(0, 5, n_epochs))).values
    for sigma in (1e-3, 0.8, 80.0):
        want = np.stack([_reference_pass(net, y, cond, sigma, np.float32)["probs"].T
                         for y in ys])
        want_absent = np.stack([_reference_pass(net, y, ABSENT, sigma, np.float32)["probs"].T
                                for y in ys])
        assert np.array_equal(net.evaluate_batch(ys, cond, sigma), want)
        assert np.array_equal(net.evaluate_batch(ys, ABSENT, sigma), want_absent)
        assert np.array_equal(net.forward(ys[0], cond, sigma), want[0])

        # Training's cache holds the reference's values in its layouts, so
        # the loss and every gradient match the reference's cached pass.
        ref = _reference_pass(net, ys[1], cond, sigma, np.float64)
        cache = net._forward(ys[1], cond, sigma)
        for key, value in ref.items():
            assert np.array_equal(cache[key], value), key
            assert _layout(cache[key]) == _layout(value), key
        loss, grads = net.loss_and_grads(ys[1], cond, sigma, target)
        net._forward = lambda *args: ref
        ref_loss, ref_grads = net.loss_and_grads(ys[1], cond, sigma, target)
        del net._forward
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key]), key


@pytest.mark.parametrize("n_epochs", [1, 7, 37, 38, 120, 240, 960])
@pytest.mark.parametrize("n_features", [0, 2])
def test_float32_inference_is_within_the_tolerance_of_the_float64_pass(n_epochs, n_features):
    net = _biased_net(n_features, seed=n_epochs)
    rng = np.random.default_rng([n_epochs, n_features, 2])
    ys = 2.0 * rng.standard_normal((3, 5, n_epochs))
    x = rng.standard_normal((n_features, n_epochs))
    x[:, n_epochs // 2] = np.nan
    for cond in (Features(x) if n_features else ABSENT, ABSENT):
        for sigma in (1e-4, 1e-3, 0.8, 40.0, 80.0):
            got = net.evaluate_batch(ys, cond, sigma)
            want = np.stack([net._forward(y, cond, sigma)["probs"].T for y in ys])
            assert got.dtype == np.float64
            assert np.abs(got - want).max() <= FLOAT32_TOL, (cond, sigma)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_embedding_sigma_one_is_cos_sin_of_zero():
    z = timestep_embedding(1.0)
    assert z.shape == (neural.CHANNELS,) == (32,)
    np.testing.assert_array_equal(z[:16], np.ones(16))
    np.testing.assert_array_equal(z[16:], np.zeros(16))


def test_embedding_first_frequency_is_one():
    z = timestep_embedding(math.e)
    assert z[0] == pytest.approx(math.cos(0.25), abs=1e-15)


def test_embedding_exp4_c4_fixture():
    # The lowest and highest frequencies, 1 and 1/1000, at indices 0 and
    # 15 (cos) and 16 and 31 (sin).
    z = timestep_embedding(math.exp(4.0))
    expected = [math.cos(1.0), math.cos(0.001), math.sin(1.0), math.sin(0.001)]
    np.testing.assert_allclose(z[[0, 15, 16, 31]], expected, rtol=0, atol=1e-15)


def test_embedding_rejects_bad_inputs():
    with pytest.raises(ValueError):
        timestep_embedding(0.0)


def test_input_scale_at_zero_sigma():
    y = np.full((5, 2), 0.316)
    out = input_scale(y, 0.0)
    np.testing.assert_allclose(out, y / 0.3160)


def test_input_scale_large_sigma_shrink():
    y = np.ones((5, 1))
    out = input_scale(y, 40.0)
    np.testing.assert_allclose(out, 1.0 / math.sqrt(0.3160**2 + 1600.0))
    assert out[0, 0] == pytest.approx(1 / 40.0012, rel=1e-4)


def test_input_scale_zero_is_zero():
    np.testing.assert_array_equal(input_scale(np.zeros((5, 3)), 2.0), np.zeros((5, 3)))


def test_silu_saturates_without_overflow_warning():
    # exp(−x) overflows below x ≈ −709 in float64 and below x ≈ −88.7 in
    # float32, where −100 saturates too.
    for dtype, x in ((np.float64, [-1000.0, 0.0, 1000.0]),
                     (np.float32, [-1000.0, -100.0, 0.0, 1000.0])):
        x = np.array(x, dtype=dtype)
        negative = x < 0
        with np.errstate(over="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            den = np.empty_like(x)
            y = _silu(x, den)
            g = _silu_grad(x, den)
        assert y.dtype == g.dtype == dtype
        np.testing.assert_array_equal(y, np.where(negative, -0.0, x))
        np.testing.assert_array_equal(g, np.where(negative, -0.0, np.where(x == 0, 0.5, 1.0)))
        # x / inf and 0 · (negative) keep the sign of zero.
        np.testing.assert_array_equal(np.signbit(y), negative)
        np.testing.assert_array_equal(np.signbit(g), negative)


def test_forward_outputs_simplex_columns():
    net = _sample_net()
    y_noisy, cond, sigma, _ = _sample_case(net)
    out = net.forward(y_noisy, cond, sigma)
    np.testing.assert_allclose(out.sum(axis=0), 1.0, rtol=0, atol=1e-9)
    assert np.all(out >= 0)


def test_absent_equals_zero_features():
    net = _sample_net()
    rng = np.random.default_rng(2)
    y = rng.standard_normal((5, 4))
    a = net.forward(y, ABSENT, 0.5)
    b = net.forward(y, Features(np.zeros((2, 4))), 0.5)
    np.testing.assert_array_equal(a, b)


def test_epoch_permutation_locality():
    # Constant background; swapping the contents of two far-apart epochs
    # swaps the corresponding output columns and leaves epochs outside
    # both windows untouched.
    net = _sample_net()
    n_epochs, e1, e2 = 11, 2, 8
    y = np.tile(np.array([0.5, 0.1, 0.2, 0.1, 0.1])[:, None], (1, n_epochs))
    x = np.tile(np.array([0.3, -0.2])[:, None], (1, n_epochs))
    y2, x2 = y.copy(), x.copy()
    y2[:, e1] = np.array([0.0, 0.9, 0.0, 0.05, 0.05])
    x2[:, e1] = np.array([1.5, 0.7])
    out_before = net.forward(y2, Features(x2), 0.9)
    y3, x3 = y.copy(), x.copy()
    y3[:, e2] = y2[:, e1]
    x3[:, e2] = x2[:, e1]
    out_after = net.forward(y3, Features(x3), 0.9)
    np.testing.assert_allclose(out_after[:, e2], out_before[:, e1], atol=1e-12)
    for e in (0, 5, 11 - 1):
        if abs(e - e1) > 2 and abs(e - e2) > 2:
            np.testing.assert_allclose(out_after[:, e], out_before[:, e], atol=1e-12)


def test_shape_mismatch_rejected():
    net = _sample_net()
    with pytest.raises(ValueError):
        net.forward(np.zeros((5, 4)), Features(np.zeros((2, 5))), 1.0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((5, 4)), Features(np.zeros((3, 4))), 1.0)


def test_perfect_prediction_has_zero_loss():
    # Saturated output bias makes the softmax an exact one-hot in floats,
    # so the per-epoch cross entropy is exactly -log(1) = 0.
    net = _sample_net(n_features=0)
    for key in net.weights:
        net.weights[key] = np.zeros_like(net.weights[key])
    net.weights["b_out"] = np.array([-100.0, 100.0, -100.0, -100.0, -100.0])
    h = Hypnogram.from_indices([1, 1, 1])
    target = one_hot(h).values
    loss, _ = net.loss_and_grads(target + 0.1, ABSENT, 0.5, target)
    assert loss == 0.0


def test_grad_check_small_eps():
    net = _sample_net()
    case = _sample_case(net)
    assert grad_check(net, case, eps=1e-5) < 1e-4


def test_grad_check_error_scales_quadratically_in_eps():
    net = _sample_net(seed=3)
    y_noisy, cond, sigma, target = _sample_case(net, seed=4)
    _, grads = net.loss_and_grads(y_noisy, cond, sigma, target)
    coords = []
    for name in net.PARAM_ORDER:
        coords.extend((name, i) for i in range(net.weights[name].size))
    picks = np.random.default_rng(5).choice(len(coords), size=120, replace=False)

    def aggregate(eps):
        diffs = []
        for pick in picks:
            name, flat = coords[int(pick)]
            w = net.weights[name]
            idx = np.unravel_index(flat, w.shape)
            orig = w[idx]
            w[idx] = orig + eps
            hi, _ = net.loss_and_grads(y_noisy, cond, sigma, target)
            w[idx] = orig - eps
            lo, _ = net.loss_and_grads(y_noisy, cond, sigma, target)
            w[idx] = orig
            diffs.append((hi - lo) / (2 * eps) - grads[name][idx])
        return np.linalg.norm(diffs)

    ratio = aggregate(1e-3) / aggregate(5e-4)
    assert 2.0 <= ratio <= 8.0


def test_grad_check_flat_direction_tolerated():
    # A weight with (numerically) zero gradient must not blow up the
    # relative error thanks to the absolute floor.
    net = _sample_net(n_features=0, seed=6)
    h = Hypnogram.from_indices([0, 0, 0, 0])
    target = one_hot(h).values
    case = (target + 0.01, ABSENT, 0.05, target)
    assert grad_check(net, case, eps=1e-5) < 1e-4


def test_grad_check_eps_range_enforced():
    net = _sample_net()
    case = _sample_case(net)
    with pytest.raises(ValueError):
        grad_check(net, case, eps=1e-7)


def test_training_deterministic_given_seed():
    h = Hypnogram.from_indices([0, 2, 4, 1])
    rng = np.random.default_rng(7)
    dataset = [(h, {"s": rng.standard_normal(4)})]
    cfg = TrainConfig(steps=50, seed=13)
    a = train(dataset, "s", cfg)
    b = train(dataset, "s", cfg)
    for key in a.weights:
        np.testing.assert_array_equal(a.weights[key], b.weights[key])


def test_single_atom_training_reaches_constant_denoiser():
    hstar = Hypnogram.from_indices([1, 1, 1, 1])
    net = train([(hstar, {})], PRIOR, TrainConfig(steps=2000, seed=0))
    target = one_hot(hstar).values
    worst = 0.0
    for i in range(5):
        y = target + 0.1 * np.random.default_rng(i).standard_normal((5, 4))
        worst = max(worst, float(np.abs(net.forward(y, ABSENT, 0.1) - target).max()))
    assert worst <= 0.05


def test_validation_loss_non_increasing_over_ten_step_windows():
    hstar = Hypnogram.from_indices([2, 2, 2])
    target = one_hot(hstar).values
    val_y = target + 0.3 * np.random.default_rng(99).standard_normal((5, 3))
    # Training is deterministic in the seed, so the run of 10k steps is
    # the 300-step run stopped after step 10k.
    losses = [
        train([(hstar, {})], PRIOR, TrainConfig(steps=steps, seed=1))
        .loss_and_grads(val_y, ABSENT, 0.3, target)[0]
        for steps in range(10, 301, 10)
    ]
    assert len(losses) == 30
    assert np.all(np.diff(losses) <= 1e-9)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], PRIOR, TrainConfig(steps=1))


def test_trained_denoiser_satisfies_contract_and_plugs_into_bank():
    h = Hypnogram.from_indices([0, 3, 2])
    rng = np.random.default_rng(8)
    dataset = [(h, {"s": rng.standard_normal(3)})]
    net = train(dataset, "s", TrainConfig(steps=30, seed=2))
    prior = train(dataset, PRIOR, TrainConfig(steps=30, seed=3))
    ys = rng.standard_normal((2, 5, 3))
    out = net.evaluate_batch(ys, Features(rng.standard_normal((1, 3))), 0.8)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    bank = SensorBank(prior, (("s", net),))
    combined = fsdm_denoise_batch(ys, 0.8, bank, [("s", Features(rng.standard_normal((1, 3))))])
    np.testing.assert_allclose(combined.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_evaluate_batch_equals_forward_calls(monkeypatch):
    net = _sample_net(seed=12)
    rng = np.random.default_rng(13)
    ys = rng.standard_normal((3, 5, 7))
    x = rng.standard_normal((2, 7))
    x[1, 4] = np.nan
    cond = Features(x)
    batch = net.evaluate_batch(ys, cond, 0.8)
    for b in range(3):
        # Inference and training's cached pass run one network, in float32
        # and float64.
        want = net._forward(ys[b], cond, 0.8)["probs"].T
        assert np.abs(batch[b] - want).max() <= FLOAT32_TOL
        assert np.array_equal(net.forward(ys[b], cond, 0.8), batch[b])
    forwards = [(net.forward(y, cond, 0.8), net.forward(y, ABSENT, 0.8)) for y in ys]
    # Inference builds none of the training caches.
    monkeypatch.setattr(net, "_forward", None)
    lik, pri = (net.evaluate_batch(ys, c, 0.8) for c in (cond, ABSENT))
    for b, (want_lik, want_pri) in enumerate(forwards):
        assert np.array_equal(lik[b], want_lik)
        assert np.array_equal(pri[b], want_pri)
    with pytest.raises(ValueError):
        net.evaluate_batch(ys, cond, 0.0)
    with pytest.raises(ValueError):
        net.evaluate_batch(ys[0], cond, 0.8)


def test_evaluate_batch_encodes_sigma_and_conditioning_once(monkeypatch):
    net = _sample_net(seed=14)
    calls = {"embedding": 0, "conditioning": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(neural, "timestep_embedding",
                        counted("embedding", neural.timestep_embedding))
    monkeypatch.setattr(ReferenceDenoiser, "_cond_matrix",
                        counted("conditioning", ReferenceDenoiser._cond_matrix))
    rng = np.random.default_rng(15)
    out = net.evaluate_batch(rng.standard_normal((4, 5, 6)),
                             Features(rng.standard_normal((2, 6))), 0.6)
    assert out.shape == (4, 5, 6)
    assert calls == {"embedding": 1, "conditioning": 1}


# Batches smaller than, equal to and larger than the sampler's range
# counts, at epoch counts on both sides of OpenBLAS's layout-dependent
# rounding.
@pytest.mark.parametrize("n_epochs", [1, 37, 38, 240, 960])
@pytest.mark.parametrize("n_batch", [1, 2, 3, 5, 64])
def test_batch_split_keeps_every_sample_bitwise(n_batch, n_epochs):
    # Whole-night sampling splits its batch into contiguous ranges of
    # samples, each evaluated as a batch of its own: every range must give
    # the rows of the whole batch.
    net = _biased_net(2, seed=n_batch)
    rng = np.random.default_rng([n_batch, n_epochs])
    ys = 2.0 * rng.standard_normal((n_batch, 5, n_epochs))
    x = rng.standard_normal((2, n_epochs))
    x[1, ::3] = np.nan
    cond = Features(x)
    want = np.stack([_reference_pass(net, y, cond, 0.8, np.float32)["probs"].T for y in ys])
    want_absent = np.stack([_reference_pass(net, y, ABSENT, 0.8, np.float32)["probs"].T
                            for y in ys])
    for n_ranges in (1, 2, 3, 8):
        bounds = [n_batch * k // n_ranges for k in range(n_ranges + 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert np.array_equal(net.evaluate_batch(ys[lo:hi], cond, 0.8), want[lo:hi])
            assert np.array_equal(net.evaluate_batch(ys[lo:hi], ABSENT, 0.8), want_absent[lo:hi])


def test_split_under_frequent_thread_switches():
    # Calls from several threads share the network's weights and nothing
    # else, switching every microsecond: a call that wrote into another's
    # outputs or work arrays would change them.
    net = _sample_net(seed=22)
    rng = np.random.default_rng(23)
    batches = [rng.standard_normal((8, 5, 200)) for _ in range(4)]
    cond = Features(rng.standard_normal((2, 200)))

    def both(ys):
        return tuple(net.evaluate_batch(ys, c, 0.5) for c in (cond, ABSENT))

    want = [both(ys) for ys in batches]
    got = [None] * len(batches)

    def run(k):
        for _ in range(3):
            got[k] = both(batches[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for pair, want_pair in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(pair, want_pair))


def test_model_json_round_trip(tmp_path):
    net = _sample_net(seed=9)
    path = tmp_path / "model.json"
    save_model(path, net)
    loaded = load_model(path)
    save_model(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    for key in net.weights:
        np.testing.assert_array_equal(loaded.weights[key], net.weights[key])
    y = np.random.default_rng(10).standard_normal((5, 4))
    np.testing.assert_array_equal(
        loaded.forward(y, Features(np.zeros((2, 4))), 0.6),
        net.forward(y, Features(np.zeros((2, 4))), 0.6),
    )


def test_model_format_tag_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("window_radius", neural.WINDOW_RADIUS + 1),
    ("channels", 2 * neural.CHANNELS),
    ("sigma_data", 0.5),
])
def test_model_file_architecture_must_equal_the_constants(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_model(path, _sample_net(seed=9))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc[field] == getattr(neural, field.upper())
    doc[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^model {field} is {value!r}, but every network has "):
        load_model(path)
    del doc[field]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^model {field} is None, but every network has "):
        load_model(path)


@pytest.mark.parametrize("name, shape, expected", [
    ("w1_0", (16, 32), (32, 32)),
    ("w_x", (32, 5), (32, 10)),
    ("b_out", (4,), (5,)),
])
def test_weight_shapes_checked_at_construction(name, shape, expected):
    net = _sample_net(n_features=2)
    weights = dict(net.weights, **{name: np.zeros(shape)})
    message = f"weight array {name!r} has shape {shape}, expected {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ReferenceDenoiser(net.n_features, weights)
    del weights[name]
    with pytest.raises(ValueError, match=f"missing weight array {name!r}"):
        ReferenceDenoiser(net.n_features, weights)


@pytest.mark.parametrize("n_features", [1.5, True, "1", -1, None])
def test_n_features_must_be_a_nonnegative_integer(n_features):
    weights = _sample_net(n_features=1).weights
    message = f"n_features is {n_features!r}, expected a nonnegative integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ReferenceDenoiser(n_features, weights)
    assert ReferenceDenoiser(np.int64(1), weights).n_features == 1


def test_unknown_weight_names_are_rejected():
    weights = dict(_sample_net(n_features=1).weights, w_typo=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^unknown weight array 'w_typo'$"):
        ReferenceDenoiser(1, weights)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
