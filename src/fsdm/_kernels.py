"""Hot numeric kernels.

Exact-denoiser marginals come from one of two pure-numpy kernels,
chosen by the prior's type: ``markov_marginals`` runs forward-backward
over a Markov prior in O(25·E) per batch item, and ``mixture_marginals``
enumerates all 5^E hypnograms of an explicit prior (E ≤ 8).  Both treat
every batch item independently, so batched evaluation is bitwise equal
to one-at-a-time evaluation.

The AMPD scalogram kernels compare the float64 samples directly, so
every comparison with NaN is false, as in the per-sample definition.
The scalogram writes each scale's comparisons into bool buffers
allocated once per call and counts them with ``np.count_nonzero``; the
peak mask compares every sample until at most 1/16 of them survive,
then only the survivors.
"""

from __future__ import annotations

import numpy as np

# No kernel is jitted; the benchmark harness still records this flag in
# its run metadata.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Exact-denoiser marginals.
#
# Both kernels take
#   a         : (B, 5, E)  per-epoch additive log-likelihood terms; the
#                          total log weight of hypnogram h for batch item b
#                          is log_prior(h) + sum_e a[b, h_e, e]
# and return
#   out       : (B, 5, E)  normalized mixture marginals
#                          out[b,s,e] = sum_{h: h_e=s} w_h / sum_h w_h
# They raise FloatingPointError when every hypnogram has zero weight.
# ---------------------------------------------------------------------------


def _shift_stages(a, axis):
    """Shift each epoch's stage terms to a maximum of 0.

    Every hypnogram takes one stage per epoch, so this subtracts the same
    constant from every log weight and leaves the marginals unchanged; it
    keeps the summed log weights small, and so their rounding, where the
    stage terms are large (σ → 0).  An epoch with no finite term stays
    at −inf.
    """
    m = a.max(axis=axis, keepdims=True)
    return a - np.where(np.isfinite(m), m, 0.0)


def mixture_marginals(log_prior, hyp, a):
    """Marginals by enumeration over an explicit prior.

    ``log_prior`` (Nh,) is the log weight of each of the Nh = 5^E
    hypnograms and ``hyp`` (Nh, E) their stage indices.
    """
    log_prior = np.asarray(log_prior, dtype=np.float64)
    a = _shift_stages(np.asarray(a, dtype=np.float64), axis=1)
    n_hyp, n_epochs = hyp.shape
    batch = a.shape[0]
    out = np.empty((batch, 5, n_epochs))
    for b in range(batch):
        s = log_prior.copy()
        for e in range(n_epochs):
            s += a[b, hyp[:, e], e]
        m = s.max()
        if not np.isfinite(m):
            raise FloatingPointError("all mixture components have zero weight")
        w = np.exp(s - m)
        z = w.sum()
        for e in range(n_epochs):
            out[b, :, e] = np.bincount(hyp[:, e], weights=w, minlength=5) / z
    return out


def _log_matvec(v, log_trans):
    """out[j, b] = log Σ_i exp(v[i, b] + log_trans[i, j]) for v of shape (5, B).

    The shift is taken per output entry, so no finite term underflows
    behind a larger one, and an entry with no finite term comes out −inf
    (its shift is floored at −1e300 instead of −inf, which avoids a NaN).
    """
    t = v[:, None, :] + log_trans[:, :, None]
    m = np.maximum(t.max(axis=0), -1e300)
    return np.log(np.exp(t - m).sum(axis=0)) + m


def markov_marginals(log_init, log_trans, a):
    """Marginals by log-space forward-backward over a Markov prior.

    ``log_init`` (5,) and ``log_trans`` (5, 5) are the log initial
    distribution and log transition matrix (rows: from-stage); −inf
    entries are allowed.  The 5^E-component mixture is a hidden Markov
    model with emission term a[b, :, e], so its marginals are exact in
    O(25·E) per batch item (Rabiner 1989, Proc. IEEE 77(2)).
    """
    log_init = np.asarray(log_init, dtype=np.float64)
    log_trans = np.asarray(log_trans, dtype=np.float64)
    # (E, 5, B): reductions over stages run across contiguous batch rows.
    at = np.ascontiguousarray(
        _shift_stages(np.asarray(a, dtype=np.float64), axis=1).transpose(2, 1, 0)
    )
    alpha = np.empty_like(at)
    beta = np.empty_like(at)
    # Each message is shifted to a maximum of 0, so rounding tracks one
    # epoch's terms rather than their sum over the night.  A batch item
    # with no finite path turns into NaN and is caught below.
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


# ---------------------------------------------------------------------------
# AMPD local-maxima scalogram.
#
# Stage 1 returns gamma[k-1] = count of i that are NOT k-local maxima,
# for scales k = 1..L.  Stage 2 returns the boolean mask of samples that
# are local maxima at every scale 1..lam (the detected peaks).
# ---------------------------------------------------------------------------


def ampd_gamma(x, max_scale):
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    gamma = np.full(max_scale, n, dtype=np.int64)
    # Scales with 2k >= n have no interior sample and keep gamma = n.
    # The masks are allocated once and each scale writes into a prefix;
    # count_nonzero counts a bool mask without casting it to int64.
    core = np.empty(max(n - 2, 0), dtype=np.bool_)
    right = np.empty_like(core)
    for k in range(1, min(max_scale, (n - 1) // 2) + 1):
        m = n - 2 * k
        mid = x[k:n - k]
        c = core[:m]
        r = right[:m]
        np.greater(mid, x[:m], out=c)
        np.greater(mid, x[2 * k:], out=r)
        c &= r
        gamma[k - 1] = n - np.count_nonzero(c)
    return gamma


def ampd_local_maxima(x, lam):
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    is_peak = np.zeros(n, dtype=np.bool_)
    if 2 * lam < n:
        # Scales run over every interior sample while more than 1/16 of
        # them survive; after that each scale compares only the survivors,
        # by index, so wide scales cost little once few candidates remain.
        mid = x[lam:n - lam]
        core = np.ones(mid.size, dtype=np.bool_)
        tmp = np.empty_like(core)
        k = 1
        while k <= lam and 16 * np.count_nonzero(core) > core.size:
            np.greater(mid, x[lam - k:n - lam - k], out=tmp)
            core &= tmp
            np.greater(mid, x[lam + k:n - lam + k], out=tmp)
            core &= tmp
            k += 1
        idx = lam + np.flatnonzero(core)
        for k in range(k, lam + 1):
            if idx.size == 0:
                break
            v = x[idx]
            idx = idx[(v > x[idx - k]) & (v > x[idx + k])]
        is_peak[idx] = True
    return is_peak
