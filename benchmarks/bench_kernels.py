#!/usr/bin/env python3
"""Time the exact-denoiser kernels and the AMPD kernels.

    PYTHONPATH=src python benchmarks/bench_kernels.py

Forward-backward (Markov priors) is timed against enumeration (explicit
priors) on the same inputs where E ≤ 8, and alone on whole-night
lengths.  The AMPD numba kernel, when numba is installed, is timed
against its pure-numpy fallback, which FSDM_DISABLE_NUMBA=1 selects
package-wide.
"""

import time

import numpy as np

from fsdm import _kernels
from fsdm.oracle import ENUMERATION_CAP, hypnogram_table


def timeit(fn, *args, repeat=5, warmup=1):
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_mixture():
    print("exact-denoiser marginals: enumeration vs forward-backward")
    rng = np.random.default_rng(0)
    log_init = np.log(rng.dirichlet(np.ones(5)))
    log_trans = np.log(rng.dirichlet(np.ones(5), 5))
    for n_epochs, batch in ((4, 64), (6, 64), (8, 8), (120, 64), (960, 64)):
        a = rng.standard_normal((batch, 5, n_epochs))
        t_fb = timeit(_kernels.markov_marginals, log_init, log_trans, a, repeat=3)
        line = f"  E={n_epochs:3d} B={batch:3d}: forward-backward {t_fb*1e3:8.2f} ms"
        if n_epochs <= ENUMERATION_CAP:
            hyp = hypnogram_table(n_epochs)
            log_prior = np.log(rng.dirichlet(np.ones(hyp.shape[0])))
            t_en = timeit(_kernels.mixture_marginals, log_prior, hyp, a, repeat=3)
            line += f" | enumeration ({hyp.shape[0]:>6d} components) {t_en*1e3:8.2f} ms"
        print(line)


def bench_ampd():
    print("AMPD local-maxima scalogram")
    rng = np.random.default_rng(1)
    for fs, seconds, max_scale_s in ((64, 180, 5.0), (128, 600, 5.0), (128, 600, 60.0)):
        n = int(fs * seconds)
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(n)
        max_scale = min(int(max_scale_s * fs), (n - 1) // 2)
        t_np = timeit(_kernels._ampd_gamma_numpy, x, max_scale, repeat=3)
        line = f"  n={n:6d} scales={max_scale:5d}: numpy {t_np*1e3:8.2f} ms"
        if _kernels.USING_NUMBA:
            t_nb = timeit(_kernels._ampd_gamma_numba, x, max_scale, repeat=3)
            line += f" | numba {t_nb*1e3:8.2f} ms | speedup {t_np/t_nb:5.1f}x"
        print(line)


if __name__ == "__main__":
    print(f"numba available: {_kernels.USING_NUMBA}")
    bench_mixture()
    bench_ampd()
