"""Exact-denoiser kernels (enumeration and forward-backward) and the AMPD
kernels.  The AMPD kernels are checked against a per-sample loop, and the
scale-range scalogram against slices of the full one."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsdm._kernels import (
    ampd_gamma,
    ampd_gamma_range,
    ampd_local_maxima,
    markov_marginals,
    mixture_marginals,
)
from fsdm.checks import explicit_twin, informative_emission, persistent_markov, sparse_markov
from fsdm.oracle import (
    CategoricalEmission, WorldModel, emission_loglik, hypnogram_table,
)


def _case(n_epochs=4, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    log_prior = np.log(rng.dirichlet(np.ones(5**n_epochs)))
    a = rng.standard_normal((batch, 5, n_epochs))
    return log_prior, a


def test_mixture_marginals_normalized_columns():
    log_prior, a = _case()
    out = mixture_marginals(log_prior, a)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


def test_batched_equals_one_at_a_time():
    log_prior, a = _case(n_epochs=3, batch=5, seed=2)
    batch = mixture_marginals(log_prior, a)
    for b in range(a.shape[0]):
        single = mixture_marginals(log_prior, a[b:b + 1])
        np.testing.assert_array_equal(batch[b], single[0])


def test_all_zero_weight_raises():
    log_prior = np.full(5**2, -np.inf)
    with pytest.raises((FloatingPointError, ValueError)):
        mixture_marginals(log_prior, np.zeros((1, 5, 2)))


def _loop_mixture(log_prior, a):
    """Mixture marginals by a loop over the rows of the hypnogram table."""
    ht = hypnogram_table(a.shape[2])
    epochs = np.arange(a.shape[2])
    out = np.zeros(a.shape)
    for b in range(a.shape[0]):
        s = np.array([log_prior[i] + a[b, h, epochs].sum() for i, h in enumerate(ht)])
        if not np.isfinite(s.max()):
            raise FloatingPointError("all mixture components have zero weight")
        w = np.exp(s - s.max())
        for i, h in enumerate(ht):
            out[b, h, epochs] += w[i]
        out[b] /= w.sum()
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 4), batch=st.integers(1, 3),
       zero_frac=st.floats(0.0, 1.0), forbid_frac=st.floats(0.0, 0.6))
def test_mixture_marginals_equal_row_by_row_enumeration(seed, n_epochs, batch, zero_frac,
                                                        forbid_frac):
    # Sparse explicit priors and forbidden stages put components at −inf;
    # where none is left, both must raise.
    rng = np.random.default_rng(seed)
    prior = rng.dirichlet(np.ones(5**n_epochs))
    a = rng.standard_normal((batch, 5, n_epochs)) * 3
    a[rng.random(a.shape) < forbid_frac] = -np.inf
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.where(rng.random(prior.size) < zero_frac, 0.0, prior))
    want = _outcome(_loop_mixture, log_prior, a)
    got = _outcome(mixture_marginals, log_prior, a)
    assert (want is None) == (got is None)
    if want is not None:
        assert np.abs(got - want).max() <= 1e-12


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
        mixture_marginals(log_prior, a), rtol=0, atol=1e-12,
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


def _log_matvec(v, log_trans):
    """out[j, b] = log Σ_i exp(v[i, b] + log_trans[i, j]) for v of shape (5, B)."""
    t = v[:, None, :] + log_trans[:, :, None]
    m = np.maximum(t.max(axis=0), -1e300)
    return np.log(np.exp(t - m).sum(axis=0)) + m


def _two_loop_markov(log_init, log_trans, a):
    """Forward-backward as a forward loop then a backward loop, each step
    in new arrays: the recursion ``markov_marginals`` fuses."""
    top = a.max(axis=1, keepdims=True)
    a = a - np.where(np.isfinite(top), top, 0.0)
    at = np.ascontiguousarray(a.transpose(2, 1, 0))
    alpha = np.empty_like(at)
    beta = np.empty_like(at)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = log_init[:, None] + at[0]
        alpha[0] = x - x.max(axis=0)
        for e in range(1, at.shape[0]):
            x = _log_matvec(alpha[e - 1], log_trans) + at[e]
            alpha[e] = x - x.max(axis=0)
        if not np.all(np.isfinite(alpha[-1].max(axis=0))):
            raise FloatingPointError("all mixture components have zero weight")
        beta[-1] = 0.0
        for e in range(at.shape[0] - 2, -1, -1):
            x = _log_matvec(at[e + 1] + beta[e + 1], log_trans.T)
            beta[e] = x - x.max(axis=0)
    g = alpha + beta
    w = np.exp(g - g.max(axis=1, keepdims=True))
    out = w / w.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(out.transpose(2, 1, 0))


@pytest.mark.parametrize("n_epochs", [1, 2, 5, 8, 120, 960])
@pytest.mark.parametrize("batch", [1, 5, 192])
def test_markov_marginals_bitwise_equal_two_loop_recursion(n_epochs, batch):
    # _markov_case forbids two transitions (−inf entries); stage terms
    # scaled up to 1e8 put the messages' shifts far from 0.
    log_init, log_trans, a = _markov_case(n_epochs, batch, seed=n_epochs + batch)
    for scale in (1.0, 1e4, 1e8):
        got = markov_marginals(log_init, log_trans, a * scale)
        assert got.tobytes() == _two_loop_markov(log_init, log_trans, a * scale).tobytes()


def test_markov_marginals_no_finite_path_raises_like_two_loop_recursion():
    log_init, log_trans, a = _markov_case(n_epochs=8, batch=5)
    # Item 3 is held in stage 0 at epoch 4 and must be in stage 1 at
    # epoch 5, a forbidden transition; the other items are fine.
    a[3, 1:, 4] = -np.inf
    a[3, [0, 2, 3, 4], 5] = -np.inf
    for kernel in (markov_marginals, _two_loop_markov):
        with pytest.raises(FloatingPointError):
            kernel(log_init, log_trans, a)
    ok = np.delete(a, 3, axis=0)
    want = _two_loop_markov(log_init, log_trans, ok)
    assert markov_marginals(log_init, log_trans, ok).tobytes() == want.tobytes()


def _kernel_pair(seed, n_epochs, sparse):
    """Both kernels' arguments for one Markov world and its explicit twin."""
    rng = np.random.default_rng(seed)
    prior = sparse_markov(rng) if sparse else persistent_markov(rng)
    world = WorldModel(n_epochs, prior, ())
    with np.errstate(divide="ignore"):
        markov = (np.log(prior.initial), np.log(prior.transition))
        mixture = (np.log(explicit_twin(world).prior.table),)
    return rng, markov, mixture


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except FloatingPointError:
        return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 6), batch=st.integers(1, 3),
       log_sigma=st.floats(np.log(1e-4), np.log(40.0)), sparse=st.booleans())
def test_markov_marginals_equal_enumeration_of_explicit_twin(seed, n_epochs, batch, log_sigma,
                                                             sparse):
    rng, markov, mixture = _kernel_pair(seed, n_epochs, sparse)
    sigma = float(np.exp(log_sigma))
    ys = rng.standard_normal((batch, 5, n_epochs))
    # An informative sensor, and a deterministic one whose sequence a
    # sparse prior often forbids: both kernels reject the same inputs.
    sensor = informative_emission(rng, 0.8)
    seq = rng.integers(0, 5, n_epochs).astype(float)
    for em in (sensor, CategoricalEmission(np.eye(5))):
        with np.errstate(divide="ignore"):
            a = emission_loglik(em, seq)[None] + ys / (sigma * sigma)
        fb = _outcome(markov_marginals, *markov, a)
        en = _outcome(mixture_marginals, *mixture, a)
        assert (fb is None) == (en is None)
        if fb is not None:
            assert np.abs(fb - en).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_epochs=st.integers(1, 5),
       sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       log_scale=st.floats(np.log(1e-2), np.log(1e8)), sparse=st.booleans())
def test_kernels_on_concatenated_batch_equal_concatenated_runs(seed, n_epochs, sizes, log_scale,
                                                               sparse):
    rng, markov, mixture = _kernel_pair(seed, n_epochs, sparse)
    parts = [rng.standard_normal((n, 5, n_epochs)) * np.exp(log_scale) for n in sizes]
    whole = np.concatenate(parts)
    for kernel, args in ((markov_marginals, markov), (mixture_marginals, mixture)):
        want = np.concatenate([kernel(*args, part) for part in parts])
        assert np.array_equal(kernel(*args, whole), want)


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


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.nan]) | st.floats(-5, 5),
                  min_size=1, max_size=80),
       lo=st.integers(1, 8), width=st.integers(-1, 50))
@example(x=[0.0, 0.0, 1.0, 0.0, 0.0, np.nan, 1.0], lo=2, width=3)
def test_ampd_gamma_range_equals_slice_of_full_scalogram(x, lo, width):
    # Ties and NaN come from the sampled values; lo + width reaches past
    # (n - 1) // 2, where no sample is interior; width -1 is empty.
    x = np.array(x)
    hi = lo + width
    np.testing.assert_array_equal(ampd_gamma_range(x, lo, hi), ampd_gamma(x, hi)[lo - 1:])


def test_ampd_boundaries_never_peaks():
    x = np.concatenate([[10.0], np.zeros(50), [10.0]])
    mask = ampd_local_maxima(x, 5)
    assert not mask[:5].any()
    assert not mask[-5:].any()
