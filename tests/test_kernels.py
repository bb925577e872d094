"""Exact-denoiser kernels (enumeration and forward-backward) and the AMPD
kernels.  The AMPD kernels are checked against a per-sample loop."""

import numpy as np
import pytest

from fsdm._kernels import (
    ampd_gamma,
    ampd_local_maxima,
    markov_marginals,
    mixture_marginals,
)
from fsdm.oracle import hypnogram_table


def _case(n_epochs=4, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    hyp = hypnogram_table(n_epochs)
    log_prior = np.log(rng.dirichlet(np.ones(hyp.shape[0])))
    a = rng.standard_normal((batch, 5, n_epochs))
    return log_prior, hyp, a


def test_mixture_marginals_normalized_columns():
    log_prior, hyp, a = _case()
    out = mixture_marginals(log_prior, hyp, a)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


def test_batched_equals_one_at_a_time():
    log_prior, hyp, a = _case(n_epochs=3, batch=5, seed=2)
    batch = mixture_marginals(log_prior, hyp, a)
    for b in range(a.shape[0]):
        single = mixture_marginals(log_prior, hyp, a[b:b + 1])
        np.testing.assert_array_equal(batch[b], single[0])


def test_all_zero_weight_raises():
    hyp = hypnogram_table(2)
    log_prior = np.full(hyp.shape[0], -np.inf)
    with pytest.raises((FloatingPointError, ValueError)):
        mixture_marginals(log_prior, hyp, np.zeros((1, 5, 2)))


def _markov_case(n_epochs=6, batch=5, seed=3):
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(5), 5)
    trans[0, 1] = trans[2, 4] = 0.0
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans / trans.sum(axis=1, keepdims=True))
    log_init = np.log(rng.dirichlet(np.ones(5)))
    return log_init, log_trans, rng.standard_normal((batch, 5, n_epochs)) * 3


def test_markov_marginals_match_enumeration():
    log_init, log_trans, a = _markov_case()
    # Stage 0 forced at epoch 0 and 0 -> 1 forbidden: at epoch 1, stage 1
    # has no finite predecessor.
    a[:, 1:, 0] = -np.inf
    hyp = hypnogram_table(a.shape[2])
    log_prior = log_init[hyp[:, 0]]
    for e in range(1, hyp.shape[1]):
        log_prior = log_prior + log_trans[hyp[:, e - 1], hyp[:, e]]
    np.testing.assert_allclose(
        markov_marginals(log_init, log_trans, a),
        mixture_marginals(log_prior, hyp, a), rtol=0, atol=1e-12,
    )


def test_markov_marginals_batched_equals_one_at_a_time():
    log_init, log_trans, a = _markov_case(n_epochs=40, batch=7)
    batch = markov_marginals(log_init, log_trans, a)
    for b in range(a.shape[0]):
        single = markov_marginals(log_init, log_trans, a[b:b + 1])
        np.testing.assert_array_equal(batch[b], single[0])


def test_markov_marginals_single_epoch_is_softmax():
    log_init, log_trans, a = _markov_case(n_epochs=1)
    w = np.exp(log_init[None, :, None] + a)
    np.testing.assert_allclose(
        markov_marginals(log_init, log_trans, a), w / w.sum(axis=1, keepdims=True),
        rtol=0, atol=1e-15,
    )


def test_markov_marginals_zero_weight_raises():
    log_init, log_trans, a = _markov_case(n_epochs=4, batch=2)
    a[1, :, 2] = -np.inf
    with pytest.raises(FloatingPointError):
        markov_marginals(log_init, log_trans, a)
    # The first item alone is fine: items never contaminate each other.
    assert np.all(np.isfinite(markov_marginals(log_init, log_trans, a[:1])))


def _loop_gamma(x, max_scale):
    """AMPD scalogram by its per-sample definition."""
    n = len(x)
    gamma = []
    for k in range(1, max_scale + 1):
        if 2 * k >= n:
            gamma.append(n)
            continue
        cnt = sum(1 for i in range(k, n - k) if x[i] > x[i - k] and x[i] > x[i + k])
        gamma.append(n - cnt)
    return np.array(gamma, dtype=np.int64)


def _loop_peaks(x, lam):
    """Samples that are local maxima at every scale 1..lam, per sample."""
    n = len(x)
    return np.array([
        lam <= i < n - lam
        and all(x[i] > x[i - k] and x[i] > x[i + k] for k in range(1, lam + 1))
        for i in range(n)
    ], dtype=np.bool_)


def _ampd_inputs():
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.standard_normal(300)) + np.sin(np.arange(300) / 4.0)
    # Ties, runs of exact zeros and plateaus clipped to [-5, 5].
    ties = np.round(walk * 2.0) / 2.0
    ties[40:70] = 0.0
    clipped = np.clip(walk * 3.0, -5.0, 5.0)
    signed_zero = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 2.0, 0.0, -0.0, 1.0, 0.0, -0.0])
    with_nan = np.round(np.sin(np.arange(60) / 2.0), 1)
    with_nan[[7, 8, 23, 40]] = np.nan
    short = [np.array([1.0]), np.array([1.0, 2.0]), np.array([0.0, 3.0, 0.0]),
             np.array([1.0, 3.0, 2.0, 0.0])]
    return [ties, clipped, signed_zero, with_nan, *short]


def test_ampd_kernels_agree():
    for x in _ampd_inputs():
        n = x.size
        # Scales past (n-1)//2 (2k >= n) have no interior samples.
        for max_scale in sorted({1, 2, 5, max((n - 1) // 2, 1), n // 2 + 1, n + 3}):
            want = _loop_gamma(x, max_scale)
            np.testing.assert_array_equal(ampd_gamma(x, max_scale), want)
        for lam in sorted({1, 2, 3, 7, max((n - 1) // 2, 1), n // 2, n}):
            want = _loop_peaks(x, lam)
            np.testing.assert_array_equal(ampd_local_maxima(x, lam), want)
    # A noisy pulse train of a few thousand samples at scales of hundreds:
    # most samples drop out at scale 1 and the rest thin out scale by scale.
    rng = np.random.default_rng(8)
    t = np.arange(4000)
    x = np.sin(2 * np.pi * t / 230.0) ** 15 + 0.05 * rng.standard_normal(t.size)
    x[1000:1200] = 0.0
    x[2500] = np.nan
    for lam in (200, 230, 499):
        want = _loop_peaks(x, lam)
        assert want.any()
        np.testing.assert_array_equal(ampd_local_maxima(x, lam), want)


def test_ampd_boundaries_never_peaks():
    x = np.concatenate([[10.0], np.zeros(50), [10.0]])
    mask = ampd_local_maxima(x, 5)
    assert not mask[:5].any()
    assert not mask[-5:].any()
