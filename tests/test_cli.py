import argparse
import csv
import filecmp
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsdm
import fsdm.sampler
import fsdm.scorekit
from fsdm.bundle import Bundle, SignalEntry, read_bundle, write_bundle, write_csv
from fsdm.checks import SUITES, CheckResult, informative_emission, persistent_markov, random_world
from fsdm.cli import build_parser, load_config, main
from fsdm.evalkit import MergeScheme, accuracy, aggregate_stat, cohens_kappa, overnight_stats
from fsdm.hypno import Hypnogram, SleepStage, read_hypnogram
from fsdm.infogain import information_gain, write_infogain_csv
from fsdm.neural import ReferenceDenoiser, TrainConfig, save_model
from fsdm.oracle import (
    CategoricalEmission, MarkovPrior, WorldModel, exact_bank, world_from_dict, world_to_dict,
)
from fsdm.sampler import SamplerConfig, _initial_state, sample_many
from fsdm.sched import ScheduleParams, time_steps
from fsdm.scorekit import Features
from fsdm.synth import WaveformSpec


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

    stage_rates = {"W": 1.4, "N1": 1.2, "N2": 1.0, "N3": 0.8, "R": 1.1}

    def accepted(section, key, value):
        body = {key: value}
        if section == "waveform":  # a waveform section requires its stage rates
            cfg = {"world": {"waveform": {"pulse": {"stage_rates": stage_rates, **body}}}}
        else:
            cfg = {section: body}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        try:
            load_config(path)
        except ValueError:
            return False
        return True

    # The schedule, train and waveform sections accept exactly their
    # dataclass's fields, each with a value of its type.
    for section, cls in (("schedule", ScheduleParams), ("train", TrainConfig),
                         ("waveform", WaveformSpec)):
        for f in fields(cls):
            value = stage_rates if f.default is MISSING else f.default
            assert accepted(section, f.name, value), f.name
            assert not accepted(section, f.name, 16 if isinstance(value, str) else "16"), f.name
        assert not accepted(section, "unknown_key", 1)


def test_a_waveform_section_without_stage_rates_names_the_missing_field(config_path, tmp_path,
                                                                       capsys):
    cfg = json.loads(Path(config_path).read_text())
    del cfg["world"]["waveform"]["pulse"]["stage_rates"]
    path = tmp_path / "no_rates.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: 'stage_rates' is a required property\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [2.0, True])
@pytest.mark.parametrize("section, key", [
    ("schedule", "M"), ("sampler", "n_samples"), ("sampler", "base_seed"), ("train", "steps"),
    ("train", "seed"), ("world", "n_recordings"), ("paths", "pad_epochs"),
])
def test_an_integer_field_rejects_floats_and_bools(tmp_path, section, key, value):
    # An integral float here once passed the check and crashed a command later.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == f"config {section}.{key} is {json.dumps(value)}, expected integer"


_STAGE_RATES_WITH_X = {"X": 1.4, "N1": 1.2, "N2": 1.0, "N3": 0.8, "R": 1.1}


@pytest.mark.parametrize("argv, keys, value, message", [
    (["sample"], ("paths",), None, "config paths.bundle is required for this command"),
    (["preprocess"], ("paths",), None, "config paths.bundle is required for this command"),
    (["infogain", "--sensor", "pulse"], ("paths",), None,
     "config paths.bundle is required for this command"),
    (["sample"], ("paths", "bundle"), None, "config paths.bundle is required for this command"),
    (["eval"], ("paths", "bundles_dir"), None,
     "config paths.bundles_dir is required for this command"),
    (["eval"], ("paths", "predictions_dir"), None,
     "config paths.predictions_dir is required for this command"),
    (["synth"], ("world", "model"), None, "config world.model is required for this command"),
    (["synth"], ("world", "model", "prior"), None, "world model has no field 'prior'"),
    (["synth"], ("world", "model", "prior", "transition"), None,
     "markov prior has no field 'transition'"),
    (["synth"], ("world", "waveform", "pulse", "stage_rates"), _STAGE_RATES_WITH_X,
     "unknown stage label 'X' (accepted: W, N1, N2, N3, R)"),
    (["sample"], ("schedule", "M"), 16.0, "config schedule.M is 16.0, expected integer"),
    (["sample"], ("sampler", "denoisers"), "neural",
     'config sampler.denoisers is "neural", expected "exact" or "trained"'),
    (["sample"], ("paths", "bundle_dir"), "x", "config paths.bundle_dir is not a known key"),
], ids=["sample-no-paths", "preprocess-no-paths", "infogain-no-paths", "sample-no-bundle",
        "eval-no-bundles_dir", "eval-no-predictions_dir", "synth-no-model", "synth-no-prior",
        "synth-no-transition", "synth-stage-X", "sample-float-M", "sample-denoisers",
        "sample-unknown-key"])
def test_a_bad_or_missing_config_value_is_named(config_path, tmp_path, capsys, argv, keys,
                                                value, message):
    # value None deletes the key.
    cfg = json.loads(config_path.read_text())
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    if value is None:
        del section[keys[-1]]
    else:
        section[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_names_a_split_file_without_a_train_list(tmp_path, capsys):
    bundles = tmp_path / "bundles"
    bundles.mkdir()
    (bundles / "split.json").write_text('{"val": []}', encoding="utf-8")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": {"bundles_dir": str(bundles)}}), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "models")]) == 1
    assert capsys.readouterr().err == f'error: {bundles / "split.json"} has no "train" list\n'


def test_readme_config_builds_the_library_settings(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "readme.json"
    path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    cfg = load_config(path)
    ScheduleParams(**cfg["schedule"])
    TrainConfig(**cfg["train"])
    world_from_dict(cfg["world"]["model"])
    for spec in cfg["world"]["waveform"].values():
        WaveformSpec(**{**spec, "stage_rates": {
            SleepStage[k]: v for k, v in spec["stage_rates"].items()}})


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
    # Every recording lands in exactly one part (split_of_index).
    assert sorted(sum(split.values(), [])) == [f"rec_{i:04d}" for i in range(4)]
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


def test_eval_of_an_unknown_stage_label_names_it(config_path, bundles, tmp_path, capsys):
    cfg = json.loads(Path(config_path).read_text())
    cfg["paths"]["predictions_dir"] = str(tmp_path / "preds")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    pred = tmp_path / "preds" / "rec_0000" / "hypnogram.txt"
    pred.parent.mkdir(parents=True)
    pred.write_text("W\nN1\nN4\nN2\nN2\nR\n", encoding="utf-8")
    assert main(["eval", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: unknown stage label 'N4' (accepted: W, N1, N2, N3, R)\n")


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


def test_train_on_empty_bundles_dir_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": {"bundles_dir": str(empty)}}), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "models")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(empty) in err
    assert len(err.strip().splitlines()) == 1


def test_train_unknown_sensor_fails_before_training(config_path, bundles, tmp_path, capsys):
    out = tmp_path / "models"
    assert main(["train", "--config", str(config_path), "--sensor", "pulse",
                 "--sensor", "nosuch", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: training recordings have no features for sensors ['nosuch']\n"
    assert not out.exists() or not any(out.iterdir())


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


def test_sample_with_misshapen_model_weight_exits_1(config_path, bundles, tmp_path, capsys):
    cfg = json.loads(config_path.read_text())
    models = tmp_path / "models"
    models.mkdir()
    rng = np.random.default_rng(0)
    save_model(models / "prior.json", ReferenceDenoiser.init(0, rng))
    save_model(models / "pulse.json", ReferenceDenoiser.init(1, rng))
    doc = json.loads((models / "pulse.json").read_text())
    doc["weights"]["w1_0"] = np.zeros((16, 32)).tolist()
    (models / "pulse.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg["paths"]["models_dir"] = str(models)
    cfg["sampler"] = dict(cfg["sampler"], denoisers="trained", n_samples=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: weight array 'w1_0' has shape (16, 32), expected (32, 32)\n"
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("field, value", [
    ("window_radius", 3), ("channels", 16), ("sigma_data", 0.5),
])
def test_sample_with_other_model_architecture_exits_1(config_path, bundles, tmp_path, capsys,
                                                      field, value):
    cfg = json.loads(config_path.read_text())
    models = tmp_path / "models"
    models.mkdir()
    rng = np.random.default_rng(0)
    save_model(models / "prior.json", ReferenceDenoiser.init(0, rng))
    save_model(models / "pulse.json", ReferenceDenoiser.init(1, rng))
    doc = json.loads((models / "pulse.json").read_text())
    doc[field] = value
    (models / "pulse.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg["paths"]["models_dir"] = str(models)
    cfg["sampler"] = dict(cfg["sampler"], denoisers="trained", n_samples=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: model {field} is {value!r}, but every network has ")
    assert err.count("\n") == 1
    assert not (tmp_path / "pred").exists()


def test_sample_and_infogain_files_do_not_depend_on_the_split(config_path, bundles, tmp_path,
                                                             monkeypatch, capsys):
    outputs = []
    monkeypatch.setattr(fsdm.sampler, "_SPLIT_MIN_EPOCHS", 1)
    for cores in (1, 2, 4):
        monkeypatch.setattr(fsdm.sampler, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        assert main(["sample", "--config", str(config_path), "--out", str(out / "sample")]) == 0
        assert main(["infogain", "--config", str(config_path), "--sensor", "pulse",
                     "--out", str(out / "infogain")]) == 0
        outputs.append((out, capsys.readouterr()))
    for out, std in outputs[1:]:
        assert _same_tree(outputs[0][0], out)
        assert std == outputs[0][1]


def test_sampling_error_in_a_worker_range_exits_1_as_in_process(config_path, bundles, tmp_path,
                                                                monkeypatch, capfd):
    cfg = json.loads(Path(config_path).read_text())
    models = Path(cfg["paths"]["models_dir"])
    if not (models / "prior.json").exists():
        assert main(["train", "--config", str(config_path), "--out", str(models)]) == 0
    cfg["sampler"] = dict(cfg["sampler"], denoisers="trained")
    path = tmp_path / "trained.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    # Samples 3 to 5 start non-finite: with two ranges, the worker's.
    initial_state = fsdm.sampler._initial_state
    monkeypatch.setattr(fsdm.sampler, "_initial_state", lambda seed, i, n_epochs, sigma0: (
        initial_state(seed, i, n_epochs, sigma0) * (np.nan if i >= 3 else 1.0)))
    run_ranges, splits = fsdm.sampler._run_ranges, []
    monkeypatch.setattr(fsdm.sampler, "_run_ranges", lambda *args: (
        splits.append(args[4]), run_ranges(*args))[1])
    monkeypatch.setattr(fsdm.sampler, "_SPLIT_MIN_EPOCHS", 1)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(fsdm.sampler, "_usable_cores", lambda: cores)
        capfd.readouterr()
        rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
        runs.append((rc, capfd.readouterr()))
    assert splits == [1, 2]
    assert runs[1] == runs[0]
    assert runs[0][0] == 1 and runs[0][1].out == ""
    assert runs[0][1].err.startswith("error: non-finite state after step 0 (sigma=40.0 -> ")
    assert not (tmp_path / "pred").exists()


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
    assert rc == 1
    # A KeyError prints its message, not the repr of it.
    assert capsys.readouterr().err == (
        f"error: unknown suite 'nope' (have {sorted(SUITES)})\n")


def test_sample_unknown_sensor_prints_the_message(config_path, bundles, tmp_path, capsys):
    assert main(["sample", "--config", str(config_path), "--sensor", "nosuch",
                 "--out", str(tmp_path / "pred")]) == 1
    assert capsys.readouterr().err == "error: bundle has no features for sensors ['nosuch']\n"


def test_oracle_check_rejects_missing_or_invalid_config(tmp_path, capsys):
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"unknown": 1}', encoding="utf-8")
    for path in (tmp_path / "none.json", invalid):
        assert main(["oracle-check", "--config", str(path), "--suite", "schedule",
                     "--out", str(tmp_path / "oc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "oc").exists()


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
    rows = {entry["check"]: entry for entry in report}
    assert rows["ampd.windows_with_different_peaks"]["tolerance"] == 0.0
    assert rows["ampd.windows_with_different_peaks"]["measured"] == 0.0
    assert rows["ampd.windows_with_different_scale"]["tolerance"] is None
    assert all(entry["passed"] for entry in report)
    # measured-only rows (large-sigma factorization) carry a null tolerance
    assert any(entry["tolerance"] is None for entry in report)
    assert "PASS" in stdout


def test_check_passes_when_measured_is_within_tolerance(config_path, tmp_path, capsys,
                                                        monkeypatch):
    assert not CheckResult("above", 1e-12, 2e-12).passed
    assert CheckResult("exact", 0.0, 0.0).passed
    assert CheckResult("measured_only", None, 1e6).passed
    monkeypatch.setitem(fsdm.checks.SUITES, "schedule", lambda: [
        CheckResult("above", 1e-12, 2e-12), CheckResult("exact", 0.0, 0.0)])
    out = tmp_path / "oc"
    assert main(["oracle-check", "--config", str(config_path), "--suite", "schedule",
                 "--out", str(out)]) == 1
    assert [entry["passed"] for entry in json.loads((out / "report.json").read_text())] == [
        False, True]
    assert capsys.readouterr().out.splitlines() == [
        "FAIL above: 2.000e-12 (tol 1e-12)", "PASS exact: 0.000e+00 (tol 0)"]


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


def test_sample_stats_cover_valid_epochs_only(config_path, bundles, tmp_path, capsys):
    full = read_bundle(bundles / "rec_0000")
    # Padding labelled N3 where the sampler predicts other stages: scoring
    # it would change the printed accuracy.
    padded = Bundle(
        recording_id="rec_pad", n_epochs=full.n_epochs, valid_epochs=4,
        hypnogram=Hypnogram.from_labels(
            full.hypnogram.to_labels()[:4] + ["N3"] * (full.n_epochs - 4)),
        features=full.features,
    )
    write_bundle(tmp_path / "bundles" / "rec_pad", padded)
    cfg = json.loads(config_path.read_text())
    cfg["paths"].update(bundles_dir=str(tmp_path / "bundles"),
                        bundle=str(tmp_path / "bundles" / "rec_pad"),
                        predictions_dir=str(tmp_path / "preds"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "preds" / "rec_pad"
    capsys.readouterr()
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    pred = read_hypnogram(out / "hypnogram.txt")
    acc = accuracy(pred, padded.hypnogram, valid_epochs=4)
    assert f"{acc:.3f}" != f"{accuracy(pred, padded.hypnogram):.3f}"
    assert capsys.readouterr().out == (
        f"sample: 6 samples, 5-class accuracy vs bundle hypnogram {acc:.3f}\n")
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

    # eval scores the first valid_epochs epochs only.
    assert main(["eval", "--config", str(path), "--out", str(tmp_path / "eval")]) == 0
    header, values = (tmp_path / "eval" / "rows.csv").read_text().strip().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    pred = Hypnogram(read_hypnogram(out / "hypnogram.txt").stages[:4])
    ref = Hypnogram(full.hypnogram.stages[:4])
    for scheme in MergeScheme:
        assert float(row[f"accuracy_{scheme.value}"]) == accuracy(pred, ref, scheme)
        assert float(row[f"kappa_{scheme.value}"]) == cohens_kappa(pred, ref, scheme)

    # infogain writes every epoch and reports the mean over the valid ones.
    capsys.readouterr()
    assert main(["infogain", "--config", str(path), "--sensor", "pulse",
                 "--out", str(tmp_path / "ig")]) == 0
    lines = (tmp_path / "ig" / "infogain_pulse.csv").read_text().strip().splitlines()[1:]
    gains = [float(line.split(",")[1]) for line in lines]
    assert len(gains) == full.n_epochs
    assert capsys.readouterr().out == (
        f"infogain: pulse mean {np.mean(gains[:4]):.4f} over 4 epochs\n")


def test_sample_with_trajectories_splits_and_keeps_every_file(tmp_path, monkeypatch, capsys):
    # A recording long enough to split: writing trajectories.csv splits the
    # samples across the cores like any other run, and every file is the
    # same from 2 ranges as from 1.
    rng = np.random.default_rng(8)
    n_epochs = 40
    assert n_epochs >= fsdm.sampler._SPLIT_MIN_EPOCHS
    world = WorldModel(n_epochs, persistent_markov(rng), (("pulse", informative_emission(rng)),))
    write_bundle(tmp_path / "rec", Bundle(
        recording_id="rec", n_epochs=n_epochs, valid_epochs=36,
        hypnogram=Hypnogram.from_indices(rng.integers(0, 5, n_epochs)),
        features={"pulse": rng.integers(0, 5, (1, n_epochs)).astype(np.float64)},
    ))
    cfg = {"schedule": {"M": 6},
           "sampler": {"n_samples": 5, "base_seed": 4, "record_trajectory": True},
           "world": {"model": world_to_dict(world)},
           "paths": {"bundle": str(tmp_path / "rec")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    run_ranges, splits = fsdm.sampler._run_ranges, []
    monkeypatch.setattr(fsdm.sampler, "_run_ranges", lambda *args: (
        splits.append(args[4]), run_ranges(*args))[1])
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(fsdm.sampler, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
        runs.append((out, capsys.readouterr()))
    assert splits == [1, 2]
    names = ["hypnogram.txt", "samples.csv", "stats.json", "trajectories.csv"]
    assert sorted(p.name for p in runs[0][0].iterdir()) == names
    for name in names:
        assert (runs[1][0] / name).read_bytes() == (runs[0][0] / name).read_bytes(), name
    assert runs[1][1] == runs[0][1]
    lines = (runs[0][0] / "trajectories.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 6 * n_epochs


def test_only_infogain_builds_gain_sums(config_path, bundles, tmp_path, monkeypatch):
    # fsdm sample writes no gains, so it samples without the sums even
    # when it writes trajectories; infogain adds one cosine distance per
    # step for its one sensor, M = 16 in all.
    built = []
    cosine_distance = fsdm.scorekit.cosine_distance

    def counting(*args, **kwargs):
        built.append(1)
        return cosine_distance(*args, **kwargs)

    monkeypatch.setattr(fsdm.scorekit, "cosine_distance", counting)
    cfg = json.loads(config_path.read_text())
    cfg["sampler"] = dict(cfg["sampler"], record_trajectory=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "trajectories.csv").exists()
    assert built == []
    assert main(["infogain", "--config", str(path), "--sensor", "pulse",
                 "--out", str(tmp_path / "ig")]) == 0
    assert len(built) == 16


def test_degrade_writes_one_plot_data_row_per_set_and_recording(config_path, tmp_path):
    out = tmp_path / "degrade"
    assert main(["degrade", "--config", str(config_path), "--out", str(out),
                 "--n-samples", "2"]) == 0
    with open(out / "plot_data.csv", encoding="utf-8", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["sensor_set", "recording", "mean_info_gain", "accuracy", "kappa"]
    # n_recordings = 4 recordings under each of the sweep's 8 sensor sets.
    assert len(rows) == 4 * 8
    assert len({(row[0], row[1]) for row in rows}) == 4 * 8


def test_lambda_flag_parsing(config_path, bundles, tmp_path):
    out = tmp_path / "lam"
    assert main(["sample", "--config", str(config_path), "--out", str(out),
                 "--lambda", "1.0", "--n-samples", "2"]) == 0


@pytest.mark.parametrize("flag", [["--lambda", "xyz"], ["--lambda", "nan"], ["--lambda", "inf"],
                                  ["--lambda=-inf"]])
def test_invalid_lambda_is_a_usage_error(config_path, bundles, tmp_path, capsys, flag):
    out = tmp_path / "pred"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sample", "--config", str(config_path), "--out", str(out), *flag])
    assert rc == 2
    value = flag[-1].removeprefix("--lambda=")
    assert capsys.readouterr().err == f"error: invalid --lambda {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_lambda_exits_1(config_path, bundles, tmp_path, capsys, source):
    # A negative weight inverts the evidence; it is refused, not sampled.
    cfg = json.loads(config_path.read_text())
    flag = ["--lambda", "-1"] if source == "flag" else []
    if source == "config":
        cfg["sampler"] = dict(cfg["sampler"], **{"lambda": -1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "pred"
    assert main(["sample", "--config", str(path), "--out", str(out), *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lam must be a finite number >= 0") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("lam", ["0", "auto"])
def test_zero_and_auto_lambda_stay_valid(config_path, bundles, tmp_path, lam):
    assert main(["sample", "--config", str(config_path), "--out", str(tmp_path / "lam"),
                 "--lambda", lam, "--n-samples", "2"]) == 0


@pytest.mark.parametrize("command, keys, value", [
    ("sample", ("sampler", "lambda"), math.nan),
    ("synth", ("world", "waveform", "pulse", "stage_rates", "N2"), math.inf),
])
def test_non_finite_config_number_exits_1(config_path, tmp_path, capsys, command, keys, value):
    # json.dumps writes these as the NaN and Infinity literals.
    cfg = json.loads(config_path.read_text())
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config number {json.dumps(value)} is not finite\n"
    assert not out.exists()


def test_sample_zero_probability_observation_exits_1(tmp_path, capsys):
    # Stages never change, yet the deterministic sensor reports a change.
    world = WorldModel(3, MarkovPrior(np.full(5, 0.2), np.eye(5)),
                       (("det", CategoricalEmission(np.eye(5))),))
    write_bundle(tmp_path / "rec", Bundle(
        recording_id="rec", n_epochs=3, valid_epochs=3,
        hypnogram=Hypnogram.from_indices([0] * 3),
        features={"det": np.array([[0.0, 1.0, 0.0]])},
    ))
    cfg = {"sampler": {"n_samples": 2}, "world": {"model": world_to_dict(world)},
           "paths": {"bundle": str(tmp_path / "rec")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    assert capsys.readouterr().err == "error: conditioning has zero probability under this world\n"
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("field, value", [("sigma_min", 1e-170), ("sigma_max", 1e200)])
def test_sample_sigma_with_non_normal_square_exits_1(config_path, bundles, tmp_path, capsys,
                                                     field, value):
    cfg = json.loads(config_path.read_text())
    cfg["schedule"][field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {field}={value!r}: its square is not a positive normal float\n")
    assert not (tmp_path / "pred").exists()


def test_sample_at_a_sigma_min_near_the_exact_kernel_limit_exits_0(config_path, bundles,
                                                                    tmp_path, capsys):
    # At σ_min = 1e-120, ys / σ² is ~1e240 for the bounded states the
    # solver hands the kernel: it stays finite, and the run samples.
    cfg = json.loads(config_path.read_text())
    cfg["schedule"] = {"M": 32, "sigma_min": 1e-120}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "pred")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    for name in ("hypnogram.txt", "samples.csv", "stats.json"):
        assert (tmp_path / "pred" / name).exists()


def test_sample_final_state_off_the_simplex_exits_1(config_path, bundles, tmp_path, capsys,
                                                    monkeypatch):
    # A projection whose columns sum to 1 + 1e-6 leaves every final state
    # off the simplex: the run names σ_min and M on one error line.
    project = fsdm.scorekit.project_manifold
    monkeypatch.setattr(fsdm.scorekit, "project_manifold", lambda v: project(v) * (1 + 1e-6))
    rc = main(["sample", "--config", str(config_path), "--out", str(tmp_path / "pred")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: final state off the simplex: a column sum is off by ")
    assert err.endswith(" (sigma_min=0.0001, M=16)\n") and err.count("\n") == 1
    assert not (tmp_path / "pred").exists()


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
    run_ranges = fsdm.sampler._run_ranges

    def counting(*args, **kwargs):
        runs.append(1)
        return run_ranges(*args, **kwargs)

    monkeypatch.setattr(fsdm.sampler, "_run_ranges", counting)
    out = tmp_path / "ig"
    assert main(["infogain", "--config", str(path), "--out", str(out),
                 "--sensor", "s0", "--sensor", "s1"]) == 0
    assert len(runs) == 1
    # Each file is what a sampler run of its own gives for that sensor.
    obs = [(name, Features(features[name])) for name in ("s0", "s1")]
    sampler_cfg = SamplerConfig(schedule=ScheduleParams(M=6), n_samples=3, base_seed=4,
                                record_trajectory=True)
    for name in ("s0", "s1"):
        bank = exact_bank(world)
        gains = sample_many(bank, obs, sampler_cfg, 5).gains
        gain = information_gain(bank, obs, name, sampler_cfg, 5, gains)
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


def _child_output(code: str) -> str:
    """What a fresh interpreter running ``code`` prints, stripped."""
    src = str(Path(fsdm.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["fsdm.cli", "fsdm.bundle"])
def test_import_leaves_scipy_signal_unloaded(module):
    # scipy.signal takes most of a CLI process's start-up; only a filter
    # or a resampler imports it.
    assert _child_output(f"import sys, {module}; print('scipy.signal' in sys.modules)") == "False"


def test_cli_import_loads_only_the_declared_dependencies():
    # Beyond the standard library, importing the CLI loads only the runtime
    # dependencies pyproject.toml declares: the config check is fsdm's own.
    loaded = _child_output(
        "import sys; before = set(sys.modules); import fsdm.cli; "
        "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names))))")
    assert {m for m in loaded.split() if not m.startswith("_")} <= {"fsdm", "numpy", "scipy"}


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.999999999999999e-05, 1e-4,
                   9999999999999998.0, 1e16, 1.7976931348623157e308, math.nan, math.inf,
                   -math.inf]
_FLOAT64 = (st.sampled_from(_SPECIAL_FLOATS) | st.floats()
            | st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack(
                "<d", struct.pack("<Q", bits))[0]))
_CELLS = (_FLOAT64 | _FLOAT64.map(np.float64) | st.integers() | st.text() | st.none())


def _cell_text(v):
    if v is None:
        return ""
    if isinstance(v, float):  # np.float64 too
        return repr(float(v))
    return str(v)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=1, max_size=4), min_size=1, max_size=4))
def test_write_csv_cells_read_back_as_their_shortest_text(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    write_csv(path, ["a"], rows)
    with open(path, encoding="utf-8", newline="") as f:
        header, *read = list(csv.reader(f))
    assert header == ["a"]
    assert read == [[_cell_text(v) for v in row] for row in rows]


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
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["signals"][0]["encoding"] == "f32"
    sidecar = json.loads((tmp_path / "b" / "signals" / "raw.json").read_text())
    assert sidecar == {"fs": 2.0, "kind": "eeg", "unit": ""}


def test_bundle_rejects_csv_signal_payload(tmp_path, capsys):
    root = tmp_path / "b"
    (root / "signals").mkdir(parents=True)
    (root / "hypnogram.txt").write_text("W\nR\n", encoding="utf-8")
    (root / "signals" / "raw.csv").write_text("value\n0.5\n-1.25\n3.0\n", encoding="utf-8")
    (root / "manifest.json").write_text(json.dumps({
        "recording_id": "rec_csv", "n_epochs": 2, "valid_epochs": 2,
        "signals": [{"name": "raw", "kind": "eeg", "fs": 2.0,
                     "file": "signals/raw.csv", "encoding": "csv"}],
    }), encoding="utf-8")
    with pytest.raises(ValueError, match="'csv'"):
        read_bundle(root)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": {"bundle": str(root)}}), encoding="utf-8")
    assert main(["preprocess", "--config", str(path), "--out", str(tmp_path / "proc")]) == 1
    assert capsys.readouterr().err == "error: signal raw has unsupported encoding 'csv'\n"


def test_preprocess_rejects_non_finite_signal_samples(tmp_path, capsys):
    samples = np.sin(np.arange(2 * 30 * 64) / 10.0) * 100.0
    samples[500] = np.nan
    write_bundle(tmp_path / "b", Bundle(
        recording_id="rec_nan", n_epochs=2, valid_epochs=2,
        hypnogram=Hypnogram.from_labels(["W", "N1"]),
        signals={"ppg": (samples, SignalEntry(name="ppg", kind="finger_ppg", fs=64.0,
                                              file="signals/ppg.f32"))},
    ))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": {"bundle": str(tmp_path / "b")}}), encoding="utf-8")
    assert main(["preprocess", "--config", str(path), "--out", str(tmp_path / "proc")]) == 1
    assert capsys.readouterr().err == "error: signal holds 1 non-finite samples\n"


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


def _run_on_an_edited_manifest(config_path, bundles, tmp_path, capsys, command, edit):
    """Run ``command`` on a copy of rec_0000 whose manifest holds edit(doc)
    of the original's JSON; check that it exits 1 and writes no output,
    and return the manifest's path and the standard error."""
    rec = tmp_path / "bundles" / "rec_0000"
    shutil.copytree(bundles / "rec_0000", rec)
    manifest = rec / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    cfg = json.loads(config_path.read_text())
    cfg["paths"].update(bundle=str(rec), bundles_dir=str(rec.parent))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    return manifest, capsys.readouterr().err


@pytest.mark.parametrize("command, entry, key", [
    ("sample", None, "recording_id"), ("sample", None, "n_epochs"),
    ("sample", None, "valid_epochs"), ("train", None, "valid_epochs"),
    ("sample", "features", "name"), ("sample", "features", "file"),
    ("sample", "signals", "name"), ("sample", "signals", "kind"),
    ("sample", "signals", "fs"), ("sample", "signals", "file"),
])
def test_a_missing_manifest_field_is_named(config_path, bundles, tmp_path, capsys, command,
                                           entry, key):
    manifest, err = _run_on_an_edited_manifest(
        config_path, bundles, tmp_path, capsys, command,
        lambda doc: (doc if entry is None else doc[entry][0]).pop(key))
    holder = manifest if entry is None else f"{manifest} {entry[:-1]} entry 0"
    assert err == f"error: {holder} has no field {key!r}\n"


@pytest.mark.parametrize("entry", ["features", "signals"])
def test_a_manifest_entry_that_is_not_an_object_is_named(config_path, bundles, tmp_path, capsys,
                                                         entry):
    manifest, err = _run_on_an_edited_manifest(
        config_path, bundles, tmp_path, capsys, "sample", lambda doc: doc.update({entry: [1]}))
    assert err == f"error: {manifest} {entry[:-1]} entry 0 is not a JSON object\n"


@pytest.mark.parametrize("entry", ["features", "signals"])
def test_a_manifest_list_that_is_not_a_list_is_named(config_path, bundles, tmp_path, capsys,
                                                     entry):
    manifest, err = _run_on_an_edited_manifest(
        config_path, bundles, tmp_path, capsys, "sample", lambda doc: doc.update({entry: 5}))
    assert err == f"error: {manifest} field {entry!r} is not a JSON array\n"


@pytest.mark.parametrize("command", ["sample", "synth"])
def test_world_model_sensors_that_are_not_a_list_are_named(config_path, tmp_path, capsys,
                                                           command):
    cfg = json.loads(config_path.read_text())
    cfg["world"]["model"]["sensors"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: world model field 'sensors' is not a JSON array\n"


def _sample_with_a_bad_pulse_model(config_path, tmp_path, capsys, edit) -> tuple[Path, str]:
    """Run fsdm sample on trained denoisers whose pulse model file holds
    edit(doc) of a good one's JSON; check that it exits 1 and writes no
    output, and return the model file's path and the standard error."""
    models = tmp_path / "models"
    models.mkdir()
    rng = np.random.default_rng(0)
    save_model(models / "prior.json", ReferenceDenoiser.init(0, rng))
    save_model(models / "pulse.json", ReferenceDenoiser.init(1, rng))
    doc = json.loads((models / "pulse.json").read_text())
    (models / "pulse.json").write_text(json.dumps(edit(doc)), encoding="utf-8")
    cfg = json.loads(config_path.read_text())
    cfg["paths"]["models_dir"] = str(models)
    cfg["sampler"] = dict(cfg["sampler"], denoisers="trained", n_samples=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "pred"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    return models / "pulse.json", capsys.readouterr().err


@pytest.mark.parametrize("key", ["n_features", "weights"])
def test_sample_names_a_missing_model_field(config_path, bundles, tmp_path, capsys, key):
    model, err = _sample_with_a_bad_pulse_model(
        config_path, tmp_path, capsys, lambda doc: {k: v for k, v in doc.items() if k != key})
    assert err == f"error: {model} has no field {key!r}\n"


@pytest.mark.parametrize("edit, holder", [
    (lambda doc: [], ""), (lambda doc: dict(doc, weights=[]), " field 'weights'"),
], ids=["file", "weights"])
def test_sample_names_a_model_part_that_is_not_an_object(config_path, bundles, tmp_path, capsys,
                                                         edit, holder):
    model, err = _sample_with_a_bad_pulse_model(config_path, tmp_path, capsys, edit)
    assert err == f"error: {model}{holder} is not a JSON object\n"


@pytest.mark.parametrize("value", [1.5, True, "1", -1],
                         ids=["float", "bool", "string", "negative"])
def test_sample_names_a_model_n_features_that_is_not_a_nonnegative_integer(
        config_path, bundles, tmp_path, capsys, value):
    _, err = _sample_with_a_bad_pulse_model(
        config_path, tmp_path, capsys, lambda doc: dict(doc, n_features=value))
    assert err == f"error: n_features is {value!r}, expected a nonnegative integer\n"


def test_sample_names_an_unknown_model_weight(config_path, bundles, tmp_path, capsys):
    def edit(doc):
        doc["weights"]["w_typo"] = [[0.0]]
        return doc
    _, err = _sample_with_a_bad_pulse_model(config_path, tmp_path, capsys, edit)
    assert err == "error: unknown weight array 'w_typo'\n"
