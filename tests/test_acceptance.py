"""Acceptance criteria, one test per criterion (A1..A9).

Each test prints a single pass/fail line with the measured values and
the pinned tolerance (visible under ``pytest -v -s``); tolerances come
verbatim from the criteria, not from calibration.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsdm
from fsdm import checks, evalkit, experiments, neural
from fsdm.checks import (
    posterior_marginals,
    random_world,
    stage_observations,
    uniform_emission,
)
from fsdm.dsp import ampd_peaks, apply_filter, clip, design_butterworth, peaks_to_rate, resample, scale_signal, zero_pad
from fsdm.dsp import KINDS
from fsdm.hypno import Hypnogram, one_hot
from fsdm.infogain import information_gain
from fsdm.oracle import MarkovPrior, WorldModel, enumerate_posterior, exact_bank
from fsdm.sampler import SamplerConfig, infer
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import Features, SensorBank
from fsdm.synth import SynthConfig, gen_recording


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"{name} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{name}: {detail}"


def test_a1_single_atom_exactness():
    [result] = checks.suite_single_atom(seed=101, n_worlds=20, n_seeds=5)
    worst = result.measured
    _report("A1", worst <= 1e-6,
            f"max inf-norm over 20 worlds x 5 seeds = {worst:.3e} (tol 1e-6)")


def test_a2_posterior_recovery():
    rng = np.random.default_rng(202)
    results = checks.suite_posterior(seed=rng, n_worlds=10, n_samples=1024)
    worst_tv = max(r.measured for r in results)

    agree = 0
    total = 0
    for w in range(50):
        world = random_world(4, 1, rng)
        h = Hypnogram.from_indices(rng.integers(0, 5, 4))
        obs = stage_observations(world, h)
        expected = np.argmax(
            posterior_marginals(world, enumerate_posterior(world, obs)), axis=0
        )
        bank = exact_bank(world)
        cfg = SamplerConfig(n_samples=32, base_seed=w, lam=1.0)
        result = infer(bank, [("s0", Features(obs["s0"]))], cfg, 4)
        agree += int(np.sum(result.hypnogram.to_indices() == expected))
        total += 4
    frac = agree / total
    _report("A2", worst_tv <= 0.1 and frac >= 0.95,
            f"max TV over 10 worlds = {worst_tv:.4f} (tol 0.1); "
            f"marginal-argmax agreement = {frac:.3f} (>= 0.95)")


def test_a3_factorization_consistency():
    # Within 0.05 of a vertex at sigma=0.01 both scores are (onehot - y)/sigma^2
    # bit for bit, so the bounded value reads 0; the larger-sigma medians are
    # measured only.
    small, *larger = checks.suite_factorization(seed=303, n_worlds=10, n_points=20)
    worst = small.measured
    medians = ", ".join(f"sigma={r.name.rsplit('_', 1)[1]} {r.measured:.3g}" for r in larger)
    _report("A3", worst <= 1e-3,
            f"max relative L2 over 10 worlds x 20 points at sigma=0.01 = "
            f"{worst:.3e} (tol 1e-3); measured only: median at {medians}")


def test_a4_identities():
    measured = {r.name: r.measured for r in checks.suite_identities(seed=404)}
    worst_n1 = measured["identities.n1_equals_likelihood"]
    worst_dup = measured["identities.duplication_invariance"]
    worst_sum = measured["identities.column_sums_pre_projection"]
    _report("A4", worst_n1 <= 1e-12 and worst_dup <= 1e-12 and worst_sum <= 1e-9,
            f"N=1 identity {worst_n1:.2e} (tol 1e-12); duplication {worst_dup:.2e} "
            f"(tol 1e-12); pre-projection column sums {worst_sum:.2e} (tol 1e-9)")


@pytest.fixture(scope="module")
def sweep():
    return experiments.degradation_sweep(seed=0)


def test_a5_information_gain(sweep):
    # zero-evidence sensor: gain exactly 0
    trans = np.full((5, 5), 0.2)
    world = WorldModel(3, MarkovPrior(np.full(5, 0.2), trans),
                       (("flat", uniform_emission()),))
    bank = exact_bank(world)
    cfg = SamplerConfig(n_samples=8, base_seed=0, record_trajectory=True)
    obs = [("flat", Features(np.array([0.0, 3.0, 1.0])))]
    gain = information_gain(bank, obs, "flat", cfg, 3, infer(bank, obs, cfg, 3).results)
    zero_ok = bool(np.all(np.abs(gain.values) <= 1e-9))
    bounds_ok = bool(np.all(gain.values >= 0) and np.all(gain.values <= 1))

    rows, summaries = sweep
    bounds_ok = bounds_ok and all(0.0 <= r.mean_info_gain <= 1.0 for r in rows)
    zero_sweep = [s for s in summaries if s.mode == "zero"]
    awgn_sweep = [s for s in summaries if s.mode == "awgn"]
    zero_gains = [s.mean_info_gain for s in zero_sweep]
    zero_accs = [s.accuracy for s in zero_sweep]
    awgn_gains = [s.mean_info_gain for s in awgn_sweep]
    awgn_accs = [s.accuracy for s in awgn_sweep]
    mono = (
        all(np.diff(zero_gains) <= 0) and all(np.diff(zero_accs) <= 0)
        and all(np.diff(awgn_gains) <= 0) and all(np.diff(awgn_accs) <= 0)
    )
    corr = float(np.corrcoef(
        [s.mean_info_gain for s in summaries], [s.accuracy for s in summaries]
    )[0, 1])
    _report("A5", zero_ok and bounds_ok and mono and corr > 0,
            f"zero-evidence max gain {float(np.abs(gain.values).max()):.1e} (tol 1e-9); "
            f"zero sweep gains {np.round(zero_gains, 4).tolist()} accs "
            f"{np.round(zero_accs, 4).tolist()}; awgn sweep gains "
            f"{np.round(awgn_gains, 4).tolist()} accs {np.round(awgn_accs, 4).tolist()} "
            f"(each non-increasing); gain/accuracy correlation {corr:.3f} > 0")


def test_a6_learning():
    # gradient check
    net = neural.ReferenceDenoiser.init(n_features=2, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    h = Hypnogram.from_indices(rng.integers(0, 5, 6))
    target = one_hot(h).values
    case = (target + 0.5 * rng.standard_normal((5, 6)),
            Features(rng.standard_normal((2, 6))), 0.7, target)
    gc_err = neural.grad_check(net, case, eps=1e-5)

    # single-atom training
    hstar = Hypnogram.from_indices([1, 1, 1, 1])
    trained = neural.train([(hstar, {})], neural.PRIOR,
                           neural.TrainConfig(steps=2000, seed=0))
    atom_target = one_hot(hstar).values
    atom_err = 0.0
    for i in range(5):
        y = atom_target + 0.1 * np.random.default_rng(i).standard_normal((5, 4))
        out = trained.forward(y, neural.ABSENT, 0.1)
        atom_err = max(atom_err, float(np.abs(out - atom_target).max()))

    # 200-recording two-sensor world: trained FSDM strictly beats prior-only
    from fsdm.oracle import GaussianEmission

    trans = np.full((5, 5), 0.1)
    np.fill_diagonal(trans, 0.6)
    world = WorldModel(6, MarkovPrior(np.full(5, 0.2), trans), (
        ("a", GaussianEmission(np.array([0.0, 1, 2, 3, 4]), np.full(5, 0.8))),
        ("b", GaussianEmission(np.array([4.0, 3, 2, 1, 0]), np.full(5, 1.0))),
    ))
    synth_cfg = SynthConfig(world=world, n_recordings=200, seed=11)
    recordings = [gen_recording(synth_cfg, i) for i in range(200)]
    train_set = [(r.hypnogram, r.features) for i, r in enumerate(recordings) if i % 10 < 7]
    test_set = [(r.hypnogram, r.features) for i, r in enumerate(recordings) if i % 10 >= 8][:40]
    tc = neural.TrainConfig(steps=4000, seed=5)
    bank = SensorBank(
        neural.train(train_set, neural.PRIOR, tc),
        (("a", neural.train(train_set, "a", tc)),
         ("b", neural.train(train_set, "b", tc))),
    )
    acc_fsdm = []
    acc_prior = []
    for i, (h_true, feats) in enumerate(test_set):
        obs = [("a", Features(feats["a"])), ("b", Features(feats["b"]))]
        cfg = SamplerConfig(n_samples=16, base_seed=1000 + i)
        acc_fsdm.append(evalkit.accuracy(infer(bank, obs, cfg, 6).hypnogram, h_true))
        acc_prior.append(evalkit.accuracy(infer(bank, [], cfg, 6).hypnogram, h_true))
    mean_fsdm = float(np.mean(acc_fsdm))
    mean_prior = float(np.mean(acc_prior))
    _report("A6", gc_err < 1e-4 and atom_err <= 0.05 and mean_fsdm > mean_prior,
            f"grad check {gc_err:.2e} (tol 1e-4); single-atom inf-norm "
            f"{atom_err:.3f} (tol 0.05); FSDM {mean_fsdm:.3f} > prior-only "
            f"{mean_prior:.3f} over 40 paired test recordings")


def test_a7_dsp():
    fs = 128.0

    def steady_gain_db(sos, freq, duration):
        n = int(round(duration * fs))
        t = np.arange(n) / fs
        y = apply_filter(sos, np.sin(2 * np.pi * freq * t))
        i0 = n // 2
        periods = int(duration / 2 * freq)
        i1 = i0 + int(round(periods / freq * fs))
        c = 2 * np.mean(y[i0:i1] * np.cos(2 * np.pi * freq * t[i0:i1]))
        s = 2 * np.mean(y[i0:i1] * np.sin(2 * np.pi * freq * t[i0:i1]))
        return 20 * np.log10(np.hypot(c, s))

    cutoffs = sorted({(k.hp_cutoff, "highpass") for k in KINDS.values() if k.hp_cutoff}
                     | {(k.lp_cutoff, "lowpass") for k in KINDS.values() if k.lp_cutoff})
    gains = {}
    for cutoff, mode in cutoffs:
        duration = max(240.0, 120.0 / cutoff)
        gains[f"{mode[:2]}{cutoff:g}"] = steady_gain_db(
            design_butterworth(mode, cutoff), cutoff, duration)
    filters_ok = all(-3.2 <= g <= -2.8 for g in gains.values())

    t = np.arange(int(8 * 256)) / 256.0
    resampled = resample(np.sin(2 * np.pi * 10 * t), 256.0)
    t2 = np.arange(resampled.size) / 128.0
    seg = slice(resampled.size // 4, 3 * resampled.size // 4)
    amp = np.hypot(2 * np.mean(resampled[seg] * np.cos(2 * np.pi * 10 * t2[seg])),
                   2 * np.mean(resampled[seg] * np.sin(2 * np.pi * 10 * t2[seg])))
    resample_ok = abs(amp - 1.0) < 0.01

    # 60 events/min jittered pulse train
    rng = np.random.default_rng(7)
    duration = 600.0
    times = []
    t_event = 0.5
    while t_event < duration:
        times.append(t_event)
        t_event += 1.0 + 0.005 * rng.standard_normal()
    n = int(duration * fs)
    sig = 0.01 * rng.standard_normal(n)
    sigma_w = 0.08 * fs / 2.355
    half = int(np.ceil(4 * sigma_w))
    kernel = np.exp(-0.5 * ((np.arange(-half, half + 1)) / sigma_w) ** 2)
    for tc in times:
        c = int(round(tc * fs))
        lo, hi = max(c - half, 0), min(c + half + 1, n)
        sig[lo:hi] += kernel[lo - (c - half):hi - (c - half)]
    rate = peaks_to_rate(ampd_peaks(sig, fs, max_scale_s=5.0), fs, "cardiac", n_out=n)
    frac = float(np.mean(np.abs(rate * 60.0 - 60.0) <= 2.0))
    ampd_ok = frac >= 0.95

    planted = (np.array([0, 1, 2, 3, 3.25, 4.25, 5.25]) * fs).astype(int)
    validity_ok = bool(np.allclose(
        peaks_to_rate(planted, fs, "cardiac", n_out=int(6 * fs)), 1.0))

    scale_ok = bool(np.allclose(scale_signal(np.full(3, 1e-4), KINDS["eeg"]), 1.0))
    clip_ok = clip(np.array([7.0]))[0] == 5.0 and clip(np.array([-9.0]))[0] == -5.0
    padded, valid = zero_pad(np.ones(10 * 30 * 128), target_epochs=1792)
    pad_ok = padded.size == 1792 * 30 * 128 and valid == 10

    ok = filters_ok and resample_ok and ampd_ok and validity_ok and scale_ok and clip_ok and pad_ok
    _report("A7", ok,
            f"Butterworth gains dB {{{', '.join(f'{k}: {v:.2f}' for k, v in gains.items())}}} "
            f"(tol -3 +- 0.2); resampler amp err {abs(amp - 1):.2e} (< 1%); "
            f"rate within +-2/min for {frac:.3f} of samples (>= 0.95); "
            f"0.25 s interval removed: {validity_ok}; 100 uV -> 1.0: {scale_ok}; "
            f"clip/pad exact: {clip_ok and pad_ok}")


def test_a8_metrics():
    h_pred = Hypnogram.from_labels(["W"] * 40 + ["W"] * 10 + ["N2"] * 5 + ["N2"] * 45)
    h_ref = Hypnogram.from_labels(["W"] * 40 + ["N2"] * 10 + ["W"] * 5 + ["N2"] * 45)
    kappa = evalkit.cohens_kappa(h_pred, h_ref, evalkit.MergeScheme.TWO)
    # exact value 0.700 sits on the 0.699 +- 0.001 boundary; 1e-9 covers
    # float roundoff only
    kappa_ok = abs(kappa - 0.699) <= 1e-3 + 1e-9

    rng = np.random.default_rng(808)
    mono_ok = True
    for _ in range(100):
        pred = Hypnogram.from_indices(rng.integers(0, 5, 30))
        ref = Hypnogram.from_indices(rng.integers(0, 5, 30))
        accs = [evalkit.accuracy(pred, ref, scheme) for scheme in (
            evalkit.MergeScheme.FIVE, evalkit.MergeScheme.FOUR,
            evalkit.MergeScheme.THREE, evalkit.MergeScheme.TWO)]
        mono_ok = mono_ok and accs[0] <= accs[1] <= accs[2] <= accs[3]

    # overnight fixture; TST from the definition (5 non-wake epochs x 0.5)
    report = evalkit.overnight_stats(
        Hypnogram.from_labels(["W", "W", "N1", "N2", "N3", "R", "W", "R"]), 8)
    fixture_ok = (report.sol_min == 1.0 and report.tst_min == 2.5
                  and report.waso_min == 0.5 and report.rem_latency_min == 1.5
                  and report.time_in_rem_min == 1.0)

    # dyadic fixture so the translation property holds bitwise: bias and
    # both limits shift by exactly the added constant
    base_pairs = [(1.0, 0.0), (0.0, 1.0)]
    base = evalkit.bland_altman(base_pairs)
    shifted = evalkit.bland_altman([(e + 3.25, r) for e, r in base_pairs])
    ba_ok = (shifted["bias"] == base["bias"] + 3.25
             and shifted["loa_low"] == base["loa_low"] + 3.25
             and shifted["loa_high"] == base["loa_high"] + 3.25)

    def rep(value):
        return evalkit.StatReport(
            tst_min=0.0, sol_min=None, waso_min=0.0, rem_latency_min=value,
            time_in_rem_min=0.0, w_min=0.0, n1_min=0.0, n2_min=0.0,
            n3_min=0.0, r_min=0.0)

    median_ok = (
        evalkit.aggregate_stat([rep(1.0), rep(2.0), rep(100.0)], "rem_latency_min") == 2.0
        and evalkit.aggregate_stat([rep(1.0), rep(3.0)], "rem_latency_min") == 2.0
        and evalkit.aggregate_stat([rep(None), rep(7.0)], "rem_latency_min") == 7.0
    )
    _report("A8", kappa_ok and mono_ok and fixture_ok and ba_ok and median_ok,
            f"kappa {kappa:.4f} (0.699 +- 0.001 inclusive); merge monotone on 100 "
            f"pairs: {mono_ok}; overnight fixture exact: {fixture_ok}; "
            f"Bland-Altman translation exact: {ba_ok}; median fixture exact: {median_ok}")


def test_a9_schedule_and_cli_reproducibility(tmp_path):
    ts = time_steps(ScheduleParams())
    sched_ok = ts[0] == 40.0 and ts[31] == 1e-4 and ts[32] == 0.0

    root = tmp_path
    rng = np.random.default_rng(5)
    world = WorldModel(6, checks.persistent_markov(rng),
                       (("pulse", checks.informative_emission(rng)),))
    from fsdm.oracle import world_to_dict

    cfg = {
        "schedule": {"M": 16},
        "sampler": {"n_samples": 4, "base_seed": 11, "denoisers": "exact"},
        "train": {"steps": 30, "seed": 3},
        "world": {
            "model": world_to_dict(world),
            "n_recordings": 3,
            "waveform": {"pulse": {
                "stage_rates": {"W": 1.4, "N1": 1.2, "N2": 1.0, "N3": 0.8, "R": 1.1},
                "base_amplitude": 0.4, "noise_sd": 0.02, "fs": 64,
                "jitter_sd": 0.01, "pulse_width_s": 0.35}},
        },
        "paths": {
            "bundles_dir": str(root / "bundles"),
            "bundle": str(root / "bundles" / "rec_0000"),
            "models_dir": str(root / "models_a"),
            "predictions_dir": str(root / "preds_a"),
            "pad_epochs": 8,
        },
    }
    config = root / "config.json"
    config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    # The children import the same fsdm as this suite, installed or not.
    src = str(Path(fsdm.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(cmd, out, extra=()):
        proc = subprocess.run(
            [sys.executable, "-m", "fsdm.cli", cmd, "--config", str(config),
             "--out", str(out), *extra],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, f"{cmd} failed: {proc.stderr}"

    def same_tree(a, b):
        cmp = filecmp.dircmp(a, b)
        if cmp.left_only or cmp.right_only or cmp.diff_files:
            return False
        return all(same_tree(Path(a) / d, Path(b) / d) for d in cmp.common_dirs)

    run("synth", root / "bundles")
    commands = [
        ("synth", ()),
        ("sample", ()),
        ("infogain", ("--sensor", "pulse")),
        ("preprocess", ()),
        ("train", ()),
        ("oracle-check", ("--suite", "schedule")),
        ("degrade", ()),
    ]
    repro = {}
    for cmd, extra in commands:
        out_a = root / f"{cmd.replace('-', '_')}_a"
        out_b = root / f"{cmd.replace('-', '_')}_b"
        run(cmd, out_a, extra)
        run(cmd, out_b, extra)
        repro[cmd] = same_tree(out_a, out_b)
    # eval needs predictions in place first
    pred_dir = root / "preds_a"
    run("sample", pred_dir / "rec_0000")
    for tag in ("a", "b"):
        run("eval", root / f"eval_{tag}")
    repro["eval"] = same_tree(root / "eval_a", root / "eval_b")

    all_ok = sched_ok and all(repro.values())
    bad = [k for k, v in repro.items() if not v]
    _report("A9", all_ok,
            f"t0=40, t31=1e-4, t32=0 exact: {sched_ok}; byte-identical reruns for "
            f"{sorted(repro)} {'(all)' if not bad else 'FAILING: ' + str(bad)}")
