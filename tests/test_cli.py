import argparse
import filecmp
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fsdm
import fsdm.sampler
from fsdm.bundle import Bundle, SignalEntry, read_bundle, write_bundle
from fsdm.checks import informative_emission, oracle_bank, persistent_markov, random_world
from fsdm.cli import build_parser, emit_plot_data, load_config, main
from fsdm.evalkit import aggregate_stat, overnight_stats
from fsdm.hypno import Hypnogram
from fsdm.infogain import information_gain, write_infogain_csv
from fsdm.oracle import WorldModel, world_to_dict
from fsdm.sampler import SamplerConfig, _initial_state
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import Features


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(5)
    world = WorldModel(
        6, persistent_markov(rng), (("pulse", informative_emission(rng)),)
    )
    cfg = {
        "schedule": {"M": 16},
        "sampler": {"n_samples": 6, "base_seed": 11, "denoisers": "exact"},
        "train": {"steps": 40, "seed": 3},
        "world": {
            "model": world_to_dict(world),
            "n_recordings": 4,
            "waveform": {
                "pulse": {
                    "stage_rates": {"W": 1.4, "N1": 1.2, "N2": 1.0, "N3": 0.8, "R": 1.1},
                    "base_amplitude": 0.4, "noise_sd": 0.02, "fs": 64,
                    "jitter_sd": 0.01, "pulse_width_s": 0.35,
                },
            },
        },
        "paths": {
            "bundles_dir": str(root / "bundles"),
            "bundle": str(root / "bundles" / "rec_0000"),
            "models_dir": str(root / "models"),
            "predictions_dir": str(root / "preds"),
            "pad_epochs": 8,
        },
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    return all(_same_tree(Path(a) / d, Path(b) / d) for d in cmp.common_dirs)


def test_unknown_config_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schedule": {"sigma_minn": 1}}', encoding="utf-8")
    with pytest.raises(Exception):
        load_config(path)
    path.write_text('{"unknown_section": {}}', encoding="utf-8")
    with pytest.raises(Exception):
        load_config(path)


def test_missing_config_is_single_line_error(tmp_path, capsys):
    rc = main(["sample", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_synth_writes_readable_bundles(config_path, tmp_path):
    out = tmp_path / "bundles"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    split = json.loads((out / "split.json").read_text())
    assert sorted(split) == ["test", "train", "val"]
    bundle = read_bundle(out / "rec_0000")
    assert bundle.n_epochs == 6
    assert "pulse" in bundle.features
    assert "pulse" in bundle.signals
    samples, entry = bundle.signals["pulse"]
    assert entry.fs == 64.0
    assert samples.size == 6 * 30 * 64


def test_synth_byte_reproducible(config_path, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--config", str(config_path), "--out", str(a)]) == 0
    assert main(["synth", "--config", str(config_path), "--out", str(b)]) == 0
    assert _same_tree(a, b)


@pytest.fixture(scope="module")
def bundles(config_path):
    cfg = json.loads(Path(config_path).read_text())
    out = Path(cfg["paths"]["bundles_dir"])
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    return out


def test_sample_outputs_and_reproducibility(config_path, bundles, tmp_path):
    cfg = json.loads(Path(config_path).read_text())
    pred = Path(cfg["paths"]["predictions_dir"]) / "rec_0000"
    assert main(["sample", "--config", str(config_path), "--out", str(pred)]) == 0
    for name in ("hypnogram.txt", "samples.csv", "stats.json"):
        assert (pred / name).exists()
    lines = (pred / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_index,epoch_index,stage"
    assert len(lines) == 1 + 6 * 6  # n_samples × n_epochs
    again = tmp_path / "again"
    assert main(["sample", "--config", str(config_path), "--out", str(again)]) == 0
    assert _same_tree(pred, again)


def test_eval_report(config_path, bundles):
    cfg = json.loads(Path(config_path).read_text())
    pred = Path(cfg["paths"]["predictions_dir"]) / "rec_0000"
    if not pred.exists():
        assert main(["sample", "--config", str(config_path), "--out", str(pred)]) == 0
    out = Path(cfg["paths"]["bundles_dir"]).parent / "evalout"
    assert main(["eval", "--config", str(config_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_recordings"] == 1
    assert 0.0 <= report["mean_accuracy_five"] <= 1.0
    rows = (out / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("recording,accuracy_five")


def test_infogain_csv_has_epoch_rows(config_path, bundles, tmp_path):
    out = tmp_path / "ig"
    assert main(["infogain", "--config", str(config_path), "--sensor", "pulse",
                 "--out", str(out)]) == 0
    lines = (out / "infogain_pulse.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch_index,value"
    assert len(lines) == 1 + 6
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_infogain_requires_sensor(config_path, bundles, tmp_path, capsys):
    rc = main(["infogain", "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert rc != 0


def test_preprocess_outputs(config_path, bundles, tmp_path):
    out = tmp_path / "proc"
    assert main(["preprocess", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "pulse_proc.f32").exists()
    assert (out / "pulse_rate.f32").exists()
    summary = json.loads((out / "preprocess.json").read_text())
    assert summary["pulse"]["valid_epochs"] == 6
    from fsdm.dsp import read_signal_f32

    proc = read_signal_f32(out / "pulse_proc.f32")
    assert proc.size == 8 * 30 * 128


def test_train_writes_models(config_path, bundles, tmp_path):
    out = tmp_path / "models"
    assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "prior.json").exists()
    assert (out / "pulse.json").exists()
    from fsdm.neural import load_model

    net = load_model(out / "pulse.json")
    assert net.n_features == 1


def test_trained_models_usable_for_sampling(config_path, bundles, tmp_path):
    cfg = json.loads(Path(config_path).read_text())
    models = Path(cfg["paths"]["models_dir"])
    if not (models / "prior.json").exists():
        assert main(["train", "--config", str(config_path), "--out", str(models)]) == 0
    trained_cfg = dict(cfg)
    trained_cfg["sampler"] = dict(cfg["sampler"], denoisers="trained", n_samples=2)
    path = tmp_path / "trained.json"
    path.write_text(json.dumps(trained_cfg), encoding="utf-8")
    out = tmp_path / "pred_trained"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "hypnogram.txt").exists()


def test_oracle_check_schedule_suite(config_path, tmp_path):
    out = tmp_path / "oc"
    assert main(["oracle-check", "--config", str(config_path), "--suite", "schedule",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(entry["passed"] for entry in report)
    assert {"check", "tolerance", "measured", "passed"} <= set(report[0])


def test_oracle_check_unknown_suite_fails(config_path, tmp_path, capsys):
    rc = main(["oracle-check", "--config", str(config_path), "--suite", "nope",
               "--out", str(tmp_path / "oc2")])
    assert rc != 0


def test_oracle_check_all_suites_pass(config_path, tmp_path, capsys):
    out = tmp_path / "oc_all"
    rc = main(["oracle-check", "--config", str(config_path), "--suite", "all",
               "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    names = {entry["check"] for entry in report}
    assert any(n.startswith("single_atom") for n in names)
    assert any(n.startswith("posterior") for n in names)
    assert any(n.startswith("factorization") for n in names)
    assert any(n.startswith("forward_backward") for n in names)
    assert any(n.startswith("identities") for n in names)
    assert all(entry["passed"] for entry in report)
    # measured-only rows (large-sigma factorization) carry a null tolerance
    assert any(entry["tolerance"] is None for entry in report)
    assert "PASS" in stdout


def test_sample_emits_trajectories_when_requested(config_path, bundles, tmp_path):
    cfg = json.loads(Path(config_path).read_text())
    cfg["sampler"] = dict(cfg["sampler"], record_trajectory=True, n_samples=2)
    path = tmp_path / "traj_config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "traj_out"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_index,step,sigma,epoch_index,w,n1,n2,n3,r"
    # 2 samples × M=16 steps × 6 epochs data rows, sample-major
    assert len(lines) == 1 + 2 * 16 * 6
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1]), int(r[3])) for r in rows] == [
        (i, m, e) for i in range(2) for m in range(16) for e in range(6)
    ]
    ts = time_steps(ScheduleParams(M=16))
    assert [float(r[2]) for r in rows[:16 * 6:6]] == list(ts[:-1])
    # Step 0 holds each sample's initial state.
    for i in range(2):
        y0 = np.array([[float(v) for v in r[4:]] for r in rows[i * 96:i * 96 + 6]]).T
        assert np.array_equal(y0, _initial_state(11, i, 6, ts[0]))


def test_sample_stats_cover_valid_epochs_only(config_path, bundles, tmp_path):
    full = read_bundle(bundles / "rec_0000")
    write_bundle(tmp_path / "rec_pad", Bundle(
        recording_id="rec_pad", n_epochs=full.n_epochs, valid_epochs=4,
        hypnogram=full.hypnogram, features=full.features,
    ))
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["bundle"] = str(tmp_path / "rec_pad")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "pred"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    labels: dict[str, list[str]] = {}
    for line in (out / "samples.csv").read_text().strip().splitlines()[1:]:
        i, _, stage = line.split(",")
        labels.setdefault(i, []).append(stage)
    assert len(labels) == 6 and all(len(v) == full.n_epochs for v in labels.values())

    def median_stats(n_epochs):
        reports = [overnight_stats(Hypnogram.from_labels(v), n_epochs) for v in labels.values()]
        stats = {name: aggregate_stat(reports, name) for name in asdict(reports[0])}
        return {k: v for k, v in stats.items() if v is not None}

    stats = json.loads((out / "stats.json").read_text())
    assert stats == median_stats(4)
    assert stats != median_stats(full.n_epochs)


def test_emit_plot_data(tmp_path):
    rows = [
        {"sensor_set": "a", "recording": f"rec_{i:04d}", "mean_info_gain": 0.1 * i,
         "accuracy": 0.5, "kappa": 0.2}
        for i in range(10)
    ] + [
        {"sensor_set": "b", "recording": f"rec_{i:04d}", "mean_info_gain": 0.05 * i,
         "accuracy": 0.4, "kappa": 0.1}
        for i in range(10)
    ]
    path = tmp_path / "plot.csv"
    emit_plot_data(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sensor_set,recording,mean_info_gain,accuracy,kappa"
    assert len(lines) == 21  # two sensor sets × 10 recordings


def test_lambda_flag_parsing(config_path, bundles, tmp_path):
    out = tmp_path / "lam"
    assert main(["sample", "--config", str(config_path), "--out", str(out),
                 "--lambda", "1.0", "--n-samples", "2"]) == 0
    rc = main(["sample", "--config", str(config_path), "--out", str(tmp_path / "bad"),
               "--lambda", "xyz"])
    assert rc != 0


_SAMPLING_FLAGS = {"--seed", "--sensor", "--n-samples", "--lambda"}
_COMMAND_FLAGS = {
    "synth": {"--seed"},
    "train": {"--seed", "--sensor"},
    "sample": _SAMPLING_FLAGS,
    "infogain": _SAMPLING_FLAGS,
    "degrade": {"--seed", "--n-samples"},
    "eval": set(),
    "preprocess": set(),
    "oracle-check": {"--suite"},
}


def test_each_command_declares_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_COMMAND_FLAGS)
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert {"--config", "--out"} <= flags
        assert flags - {"-h", "--help", "--config", "--out"} == _COMMAND_FLAGS[name], name


@pytest.mark.parametrize("argv", [
    ["eval", "--seed", "1"],
    ["preprocess", "--sensor", "x"],
    ["preprocess", "--lambda", "0.3"],
    ["oracle-check", "--n-samples", "2"],
    ["synth", "--sensor", "pulse"],
])
def test_unread_flag_is_a_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_degrade_zero_samples_exits_1(config_path, tmp_path, capsys):
    rc = main(["degrade", "--config", str(config_path), "--out", str(tmp_path / "d"),
               "--n-samples", "0"])
    assert rc == 1
    assert "n_samples" in capsys.readouterr().err


def test_infogain_runs_the_sampler_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    world = random_world(5, 2, rng)
    features = {name: rng.integers(0, 5, (1, 5)).astype(np.float64) for name in ("s0", "s1")}
    write_bundle(tmp_path / "rec", Bundle(
        recording_id="rec", n_epochs=5, valid_epochs=5,
        hypnogram=Hypnogram.from_indices([0] * 5), features=features,
    ))
    cfg = {"schedule": {"M": 6}, "sampler": {"n_samples": 3, "base_seed": 4},
           "world": {"model": world_to_dict(world)},
           "paths": {"bundle": str(tmp_path / "rec")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    runs = []
    run_indices = fsdm.sampler._run_indices

    def counting(*args, **kwargs):
        runs.append(1)
        return run_indices(*args, **kwargs)

    monkeypatch.setattr(fsdm.sampler, "_run_indices", counting)
    out = tmp_path / "ig"
    assert main(["infogain", "--config", str(path), "--out", str(out),
                 "--sensor", "s0", "--sensor", "s1"]) == 0
    assert len(runs) == 1
    # Each file is what a sampler run of its own gives for that sensor.
    obs = [(name, Features(features[name])) for name in ("s0", "s1")]
    sampler_cfg = SamplerConfig(schedule=ScheduleParams(M=6), n_samples=3, base_seed=4,
                                record_trajectory=True)
    for name in ("s0", "s1"):
        gain = information_gain(oracle_bank(world), obs, name, sampler_cfg, 5)
        write_infogain_csv(tmp_path / f"want_{name}.csv", gain)
        assert filecmp.cmp(out / f"infogain_{name}.csv", tmp_path / f"want_{name}.csv",
                           shallow=False)


def test_console_entry_point_runs():
    # The child imports the same fsdm as this suite, installed or not.
    src = str(Path(fsdm.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fsdm.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for cmd in ("synth", "train", "sample", "eval", "infogain", "preprocess",
                "oracle-check", "degrade"):
        assert cmd in proc.stdout


def test_bundle_round_trip(tmp_path):
    bundle = Bundle(
        recording_id="rec_x",
        n_epochs=3,
        valid_epochs=3,
        hypnogram=Hypnogram.from_labels(["W", "N2", "R"]),
        features={"s": np.array([[1.0, 2.0, 3.0]])},
        signals={"raw": (np.array([0.5, 0.25]), SignalEntry(
            name="raw", kind="eeg", fs=2.0, file="signals/raw.f32"))},
    )
    write_bundle(tmp_path / "b", bundle)
    loaded = read_bundle(tmp_path / "b")
    assert loaded.recording_id == "rec_x"
    assert loaded.hypnogram == bundle.hypnogram
    np.testing.assert_array_equal(loaded.features["s"], bundle.features["s"])
    np.testing.assert_allclose(loaded.signals["raw"][0], [0.5, 0.25])


def test_bundle_missing_reference_rejected(tmp_path):
    bundle = Bundle(
        recording_id="rec_y", n_epochs=2, valid_epochs=2,
        hypnogram=Hypnogram.from_labels(["W", "R"]),
        features={"s": np.array([[1.0, 2.0]])},
    )
    write_bundle(tmp_path / "b", bundle)
    (tmp_path / "b" / "features" / "s.csv").unlink()
    with pytest.raises(FileNotFoundError):
        read_bundle(tmp_path / "b")


@pytest.mark.parametrize("valid_epochs", [0, 3])
def test_bundle_valid_epochs_out_of_range_rejected(tmp_path, valid_epochs):
    bundle = Bundle(
        recording_id="rec_z", n_epochs=2, valid_epochs=valid_epochs,
        hypnogram=Hypnogram.from_labels(["W", "R"]),
        features={"s": np.array([[1.0, 2.0]])},
    )
    write_bundle(tmp_path / "b", bundle)
    with pytest.raises(ValueError, match="valid_epochs"):
        read_bundle(tmp_path / "b")


def test_bundle_infinite_features_rejected(tmp_path):
    bundle = Bundle(
        recording_id="rec_inf", n_epochs=3, valid_epochs=3,
        hypnogram=Hypnogram.from_labels(["W", "N2", "R"]),
        features={"ok": np.array([[1.0, np.nan, 2.0]]),
                  "s": np.array([[1.0, np.inf, -np.inf]])},
    )
    write_bundle(tmp_path / "b", bundle)
    with pytest.raises(ValueError, match="features s hold an infinite value"):
        read_bundle(tmp_path / "b")
    # NaN alone marks missing epochs and is kept.
    write_bundle(tmp_path / "c", Bundle(
        recording_id="rec_nan", n_epochs=3, valid_epochs=3,
        hypnogram=bundle.hypnogram, features={"ok": bundle.features["ok"]},
    ))
    assert np.isnan(read_bundle(tmp_path / "c").features["ok"][0, 1])


def test_sample_infinite_features_exits_1(config_path, tmp_path, capsys):
    cfg = json.loads(config_path.read_text())
    values = np.zeros((1, 6))
    values[0, 1], values[0, 4] = np.inf, -np.inf
    write_bundle(tmp_path / "rec_inf", Bundle(
        recording_id="rec_inf", n_epochs=6, valid_epochs=6,
        hypnogram=Hypnogram.from_indices([0] * 6), features={"pulse": values},
    ))
    cfg["paths"]["bundle"] = str(tmp_path / "rec_inf")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: features pulse hold an infinite value")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "pred").exists()


def test_trained_denoisers_read_nan_features_as_zero(config_path, bundles, tmp_path):
    cfg = json.loads(config_path.read_text())
    models = Path(cfg["paths"]["models_dir"])
    if not (models / "prior.json").exists():
        assert main(["train", "--config", str(config_path), "--out", str(models)]) == 0
    cfg["sampler"] = dict(cfg["sampler"], denoisers="trained", n_samples=2,
                          record_trajectory=True)
    full = read_bundle(bundles / "rec_0000")
    outputs = []
    for fill in (np.nan, 0.0):
        values = full.features["pulse"].copy()
        values[0, 2] = fill
        name = f"rec_{fill}"
        write_bundle(tmp_path / name, Bundle(
            recording_id="rec", n_epochs=full.n_epochs, valid_epochs=full.n_epochs,
            hypnogram=full.hypnogram, features={"pulse": values},
        ))
        cfg["paths"]["bundle"] = str(tmp_path / name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs.append(tmp_path / f"pred_{fill}")
        assert main(["sample", "--config", str(path), "--out", str(outputs[-1])]) == 0
    assert _same_tree(*outputs)


def test_sample_bad_valid_epochs_exits_1(config_path, tmp_path, capsys):
    cfg = json.loads(config_path.read_text())
    bundle = Bundle(
        recording_id="rec_bad", n_epochs=6, valid_epochs=7,
        hypnogram=Hypnogram.from_indices([0] * 6),
        features={"pulse": np.zeros((1, 6))},
    )
    write_bundle(tmp_path / "rec_bad", bundle)
    cfg["paths"]["bundle"] = str(tmp_path / "rec_bad")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    assert "valid_epochs" in capsys.readouterr().err
