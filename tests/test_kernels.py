"""Exact-denoiser kernels (enumeration and forward-backward) and the AMPD
kernels.  The active AMPD implementation is chosen by the
FSDM_DISABLE_NUMBA environment flag at import time, so the numpy
fallback is exercised here explicitly."""

import numpy as np
import pytest

from fsdm._kernels import (
    _ampd_gamma_numpy,
    _ampd_peaks_numpy,
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


def test_ampd_kernels_agree():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(2048)) + np.sin(np.arange(2048) / 10.0)
    for max_scale in (5, 60, 200):
        np.testing.assert_array_equal(
            ampd_gamma(x, max_scale), _ampd_gamma_numpy(x, max_scale)
        )
    for lam in (1, 10, 64):
        np.testing.assert_array_equal(
            ampd_local_maxima(x, lam), _ampd_peaks_numpy(x, lam)
        )


def test_ampd_boundaries_never_peaks():
    x = np.concatenate([[10.0], np.zeros(50), [10.0]])
    mask = ampd_local_maxima(x, 5)
    assert not mask[:5].any()
    assert not mask[-5:].any()
