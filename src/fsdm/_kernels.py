"""Hot numeric kernels.

Exact-denoiser marginals come from one of two pure-numpy kernels,
chosen by the prior's type: ``markov_marginals`` runs forward-backward
over a Markov prior in O(25·E) per batch item, and ``mixture_marginals``
enumerates all 5^E hypnograms of an explicit prior (E ≤ 8) as one
C-order (5,)*E tensor of log weights whose axis e is epoch e.  Both
treat every batch item independently, so batched evaluation is bitwise
equal to one-at-a-time evaluation.  Forward-backward runs its two
recursions as one loop of E − 1 steps: each step advances the forward
message one epoch and the backward message one epoch from the end, as
one stacked (2, 5, B) message, in work arrays allocated once per call
and written in place.

The AMPD scalogram kernels compare the float64 samples directly, so
every comparison with NaN is false, as in the per-sample definition.
The scalogram writes each scale's comparisons into bool buffers
allocated once per call and counts them with ``np.count_nonzero``.
``ampd_gamma`` covers scales 1..L and is the ``ampd_gamma_range`` case
of one contiguous range lo..hi.  ``dsp.ampd_scale`` calls ``ampd_gamma``
once per window, on the full window (the exact search) or on a
low-passed, decimated copy (the coarse search of a search band), and
refines a coarse choice at the full rate with ``ampd_gamma_range``.  The peak
mask compares every sample until at most 1/16 of them survive, then
only the survivors.
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
    """Shift each epoch's stage terms to a maximum of 0, in place.

    Every hypnogram takes one stage per epoch, so this subtracts the same
    constant from every log weight and leaves the marginals unchanged; it
    keeps the summed log weights small, and so their rounding, where the
    stage terms are large (σ → 0).  An epoch with no finite term stays
    at −inf.
    """
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    return np.subtract(a, np.where(np.isfinite(m), m, 0.0), out=a)


def _log_weights(log_prior, terms):
    """Log weights of all hypnograms as a (5,)*E tensor: the flat log
    prior plus each epoch's (5,) term of ``terms`` (5, E) along its axis."""
    s = np.reshape(log_prior, (5,) * terms.shape[1]).copy()
    for e, t in enumerate(terms.T):
        s += t.reshape((5,) + (1,) * (s.ndim - 1 - e))
    return s


def _epoch_marginals(w):
    """(5, E) sums of a (5,)*E tensor, column e over every axis but e."""
    axes = range(w.ndim)
    return np.stack([w.sum(axis=tuple(a for a in axes if a != e)) for e in axes], axis=1)


def mixture_marginals(log_prior, a):
    """Marginals by enumeration over an explicit prior whose (5^E,) log
    weights ``log_prior`` run in the tensor's C order."""
    log_prior = np.asarray(log_prior, dtype=np.float64)
    a = _shift_stages(np.array(a, dtype=np.float64), axis=1)
    out = np.empty(a.shape)
    for b in range(a.shape[0]):
        s = _log_weights(log_prior, a[b])
        m = s.max()
        if not np.isfinite(m):
            raise FloatingPointError("all mixture components have zero weight")
        w = np.exp(s - m)
        out[b] = _epoch_marginals(w) / w.sum()
    return out


def markov_marginals(log_init, log_trans, a):
    """Marginals by log-space forward-backward over a Markov prior.

    ``log_init`` (5,) and ``log_trans`` (5, 5) are the log initial
    distribution and log transition matrix (rows: from-stage); −inf
    entries are allowed.  The 5^E-component mixture is a hidden Markov
    model with emission term a[b, :, e], so its marginals are exact in
    O(25·E) per batch item (Rabiner 1989, Proc. IEEE 77(2)).

    Step k of one loop advances the forward message to epoch k and the
    backward message to epoch E − 1 − k, as one (2, 5, B) message
    against the transitions [log_trans, log_trans.T]:
    out[h, j, b] = log Σ_i exp(v[h, i, b] + T[h, i, j]).  The shift is
    taken per output entry, so no finite term underflows behind a larger
    one, and an entry with no finite term comes out −inf (its shift is
    floored at −1e300 instead of −inf, which avoids a NaN).
    """
    log_init = np.asarray(log_init, dtype=np.float64)
    log_trans = np.asarray(log_trans, dtype=np.float64)
    # (E, 5, B), a copy: reductions over stages run across contiguous
    # batch rows.
    at = _shift_stages(np.asarray(a, dtype=np.float64).transpose(2, 1, 0).copy(), axis=1)
    n_epochs, _, batch = at.shape
    # ab[0, e] is the forward message at epoch e and ab[1, e] the backward
    # message at epoch E − 1 − e, so step k writes both halves of ab[:, k].
    # Each message is shifted to a maximum of 0, so rounding tracks one
    # epoch's terms rather than their sum over the night.  A batch item
    # with no finite path turns into NaN and is caught below.
    ab = np.empty((2,) + at.shape)
    alpha, beta = ab[0], ab[1, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        first = log_init[:, None] + at[0]
        np.subtract(first, first.max(axis=0), out=alpha[0])
        beta[-1] = 0.0
        if n_epochs > 1:
            trans = np.stack([log_trans, log_trans.T])[:, :, :, None]
            v = np.empty((2, 5, batch))
            t = np.empty((2, 5, 5, batch))
            m = np.empty((2, 5, batch))
            x = np.empty((2, 5, batch))
            top = np.empty((2, 1, batch))
            v[0] = alpha[0]
            np.add(at[-1], beta[-1], out=v[1])
            for k in range(1, n_epochs):
                np.add(v[:, :, None, :], trans, out=t)
                np.maximum.reduce(t, axis=1, out=m, initial=-1e300)
                np.subtract(t, m[:, None], out=t)
                np.exp(t, out=t)
                np.add.reduce(t, axis=1, out=x)
                np.log(x, out=x)
                np.add(x, m, out=x)
                np.add(x[0], at[k], out=x[0])
                np.maximum.reduce(x, axis=1, keepdims=True, out=top)
                np.subtract(x, top, out=v)
                ab[:, k] = v
                np.add(at[n_epochs - 1 - k], v[1], out=v[1])
        if not np.all(np.isfinite(alpha[-1].max(axis=0))):
            raise FloatingPointError("all mixture components have zero weight")
    w = np.add(alpha, beta, out=alpha)
    np.subtract(w, np.maximum.reduce(w, axis=1, keepdims=True), out=w)
    np.exp(w, out=w)
    np.divide(w, np.add.reduce(w, axis=1, keepdims=True), out=w)
    return np.ascontiguousarray(w.transpose(2, 1, 0))


# ---------------------------------------------------------------------------
# AMPD local-maxima scalogram.
#
# Stage 1 returns gamma[k-1] = count of i that are NOT k-local maxima,
# for scales k = 1..L (ampd_gamma), or gamma[k-lo] for scales
# k = lo..hi (ampd_gamma_range).  Stage 2 returns the boolean mask of
# samples that are local maxima at every scale 1..lam (the detected
# peaks).
# ---------------------------------------------------------------------------


def ampd_gamma_range(x, lo, hi):
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    gamma = np.full(max(hi - lo + 1, 0), n, dtype=np.int64)
    # Scales with 2k >= n have no interior sample and keep gamma = n.
    # The masks are allocated once and each scale writes into a prefix;
    # count_nonzero counts a bool mask without casting it to int64.
    core = np.empty(max(n - 2 * lo, 0), dtype=np.bool_)
    right = np.empty_like(core)
    for k in range(lo, min(hi, (n - 1) // 2) + 1):
        m = n - 2 * k
        mid = x[k:n - k]
        c = core[:m]
        r = right[:m]
        np.greater(mid, x[:m], out=c)
        np.greater(mid, x[2 * k:], out=r)
        c &= r
        gamma[k - lo] = n - np.count_nonzero(c)
    return gamma


def ampd_gamma(x, max_scale):
    return ampd_gamma_range(x, 1, max_scale)


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
