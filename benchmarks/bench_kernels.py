#!/usr/bin/env python3
"""Time the exact-denoiser kernels, the AMPD kernels, the reference
denoiser's network and whole-night sampling.

    PYTHONPATH=src python benchmarks/bench_kernels.py

Forward-backward (Markov priors) is timed against enumeration (explicit
priors) on the same inputs where E ≤ 8, and alone on whole-night
lengths; the B = 192 rows are the stacked batch of one exact-bank
denoise with two sensors and 64 samples.  The AMPD scalogram is timed
at three window lengths and scale ranges.  The reference denoiser's
float32 ``evaluate_batch`` (one network pass per state) is timed
conditioned and under ABSENT, the two kinds of pass a denoise makes,
beside training's float64 pass (``_forward``, one state at a time), on a
new network at a training length and a whole night, as the time per
pass; the network runs in the calling process.  ``sample_many`` is timed on a whole night with a
neural bank, with and without its trajectories kept (``keep_states``),
split across worker processes and in the calling process, with the CPU
time of the caller and its workers beside the wall time, and so is
``ampd_peaks`` on 2-hour 128 Hz PPG-like and belt-like signals, each with
the exact scale search and with its rate category's search band
(cardiac 16 Hz, respiratory 4 Hz).  BLAS runs on one thread, as in
``perfbench/run.py``.
"""

import os

# Pinned before numpy loads, so that only the worker processes run in parallel.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import time

import numpy as np

from fsdm import _kernels, dsp, sampler
from fsdm.hypno import Hypnogram
from fsdm.neural import ReferenceDenoiser
from fsdm.oracle import ENUMERATION_CAP
from fsdm.sched import ScheduleParams
from fsdm.scorekit import ABSENT, Features, SensorBank
from fsdm.synth import WaveformSpec, render_waveform


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
    # B = 192 is an oracle-e5 denoise: a prior and two sensors' terms on 64 states.
    for n_epochs, batch in ((4, 64), (5, 192), (6, 64), (8, 8), (120, 64), (960, 64),
                            (960, 192)):
        a = rng.standard_normal((batch, 5, n_epochs))
        t_fb = timeit(_kernels.markov_marginals, log_init, log_trans, a, repeat=3)
        line = f"  E={n_epochs:3d} B={batch:3d}: forward-backward {t_fb*1e3:8.2f} ms"
        if n_epochs <= ENUMERATION_CAP:
            log_prior = np.log(rng.dirichlet(np.ones(5**n_epochs)))
            t_en = timeit(_kernels.mixture_marginals, log_prior, a, repeat=3)
            line += f" | enumeration ({log_prior.size:>6d} components) {t_en*1e3:8.2f} ms"
        print(line)


def bench_ampd():
    print("AMPD local-maxima scalogram")
    rng = np.random.default_rng(1)
    for fs, seconds, max_scale_s in ((64, 180, 5.0), (128, 600, 5.0), (128, 600, 60.0)):
        n = int(fs * seconds)
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * t) + 0.05 * rng.standard_normal(n)
        max_scale = min(int(max_scale_s * fs), (n - 1) // 2)
        best = timeit(_kernels.ampd_gamma, x, max_scale, repeat=3)
        print(f"  n={n:6d} scales={max_scale:5d}: {best*1e3:8.2f} ms")


def bench_network():
    print("reference denoiser network, time per pass (one feature row, sigma = 0.8)")
    rng = np.random.default_rng(2)
    net = ReferenceDenoiser.init(1, rng)

    def training_passes(ys, cond):
        for y in ys:
            net._forward(y, cond, 0.8)

    for n_epochs, batch in ((120, 64), (960, 64)):
        ys = rng.standard_normal((batch, 5, n_epochs))
        cond = Features(rng.standard_normal((1, n_epochs)))
        t_batch = timeit(net.evaluate_batch, ys, cond, 0.8, repeat=3) / batch
        t_absent = timeit(net.evaluate_batch, ys, ABSENT, 0.8, repeat=3) / batch
        t_train = timeit(training_passes, ys, cond, repeat=3) / batch
        print(f"  E={n_epochs:3d} B={batch:3d}: float32 evaluate_batch {t_batch*1e6:6.0f} µs"
              f" | ABSENT {t_absent*1e6:6.0f} µs | float64 _forward {t_train*1e6:6.0f} µs")


def _cpu_s():
    """CPU time of this process and of the workers it has joined."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _best_wall_and_cpu(fn, *args, repeat=3):
    """The fastest of ``repeat`` runs: its wall time and the CPU time of
    this process and its workers over it."""
    wall, cpu = float("inf"), 0.0
    for _ in range(repeat):
        t0, c0 = time.perf_counter(), _cpu_s()
        fn(*args)
        t, c = time.perf_counter() - t0, _cpu_s() - c0
        if t < wall:
            wall, cpu = t, c
    return wall, cpu


def _print_split_row(label, wall, cpu):
    print(f"  {label:>30}: wall {wall*1e3:8.1f} ms | CPU {cpu*1e3:8.1f} ms"
          f" | CPU/wall {cpu / wall:.2f}")


def bench_ampd_peaks():
    print("2-hour ampd_peaks at 128 Hz (600 s windows, 120 s overlap)")
    hypnogram = Hypnogram.from_indices(np.random.default_rng(4).integers(0, 5, 240))
    for name, rates, pulse_width_s, category in (
            ("PPG-like", (1.1, 1.0, 0.95, 0.85, 1.05), 0.3, "cardiac"),
            ("belt-like", (0.33, 0.29, 0.25, 0.22, 0.31), 1.5, "respiratory")):
        spec = WaveformSpec(stage_rates=dict(enumerate(rates)), noise_sd=0.02,
                            pulse_width_s=pulse_width_s)
        x = render_waveform(hypnogram, spec, np.random.default_rng(5))
        max_scale_s, _, band = dsp.RATE_CATEGORIES[category]
        _, starts, _ = dsp.ampd_window_plan(x.size, dsp.TARGET_FS, dsp.AMPD_WINDOW_S,
                                            dsp.AMPD_OVERLAP_S, max_scale_s)
        ranges = dsp._fork.range_count(len(starts), dsp._usable_cores())
        split_min_work = dsp._SPLIT_MIN_WORK
        for search_hz in (None, band):
            search = "exact search" if search_hz is None else f"{search_hz:g} Hz search band"
            print(f"  {name} (max scale {max_scale_s:g} s, {search})")
            for label, gate in ((f"split, {ranges} ranges", 0),
                                ("in-process", float("inf"))):
                dsp._SPLIT_MIN_WORK = gate
                try:
                    wall, cpu = _best_wall_and_cpu(dsp.ampd_peaks, x, dsp.TARGET_FS,
                                                   dsp.AMPD_WINDOW_S, dsp.AMPD_OVERLAP_S,
                                                   max_scale_s, search_hz)
                finally:
                    dsp._SPLIT_MIN_WORK = split_min_work
                _print_split_row(label, wall, cpu)


def bench_sampling():
    n_epochs, n_samples, steps = 960, 64, 4
    print(f"whole-night sample_many (neural bank: prior and two sensors, "
          f"E={n_epochs}, B={n_samples}, M={steps})")
    rng = np.random.default_rng(3)
    bank = SensorBank(ReferenceDenoiser.init(0, rng),
                      tuple((name, ReferenceDenoiser.init(1, rng)) for name in ("a", "b")))
    obs = [(name, Features(rng.standard_normal((1, n_epochs)))) for name in ("a", "b")]
    cfg = sampler.SamplerConfig(schedule=ScheduleParams(M=steps), n_samples=n_samples,
                                record_trajectory=True)
    split_min_epochs = sampler._SPLIT_MIN_EPOCHS
    ranges = sampler._split_count(n_samples, n_epochs)
    for keep_states in (False, True):
        kept = ", states kept" if keep_states else ""
        for label, gate in ((f"split, {ranges} ranges{kept}", split_min_epochs),
                            (f"in-process{kept}", n_epochs + 1)):
            sampler._SPLIT_MIN_EPOCHS = gate
            try:
                wall, cpu = _best_wall_and_cpu(sampler.sample_many, bank, obs, cfg, n_epochs,
                                               keep_states)
            finally:
                sampler._SPLIT_MIN_EPOCHS = split_min_epochs
            _print_split_row(label, wall, cpu)


if __name__ == "__main__":
    bench_mixture()
    bench_ampd()
    bench_network()
    bench_ampd_peaks()
    bench_sampling()
