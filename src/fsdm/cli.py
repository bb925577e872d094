"""Command-line surface tying the modules into reproducible experiments.

Commands: synth, train, sample, eval, infogain, preprocess, oracle-check,
degrade.  Every command reads a JSON run configuration (schema-validated,
unknown keys rejected), writes machine-readable JSON/CSV under --out, and
prints a short human summary.  Each command accepts only the flags it
reads, and a value set in neither the config nor a flag keeps the
library's default.  Outputs carry no timestamps, so a fixed
(config, seed) pair reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import jsonschema
import numpy as np

from . import checks, evalkit, experiments, neural
from .bundle import Bundle, SignalEntry, dump_json, read_bundle, write_bundle, write_csv
from .dsp import KINDS, TARGET_EPOCHS, TARGET_FS, RawSignal, preprocess, write_signal_f32
from .hypno import SleepStage, argmax_stages, read_hypnogram, write_hypnogram
from .infogain import information_gain, mean_information_gain, write_infogain_csv
from .oracle import WorldModel, exact_bank, world_from_dict
from .sampler import SamplerConfig, SamplingError, infer, sample_many
from .sched import ScheduleParams, time_steps
from .scorekit import Features, SensorBank
from .synth import SynthConfig, WaveformSpec, gen_recording, split_of_index

_NUMBER = {"type": "number"}
_INT = {"type": "integer"}
# JSON schema of each dataclass field annotation a config section holds;
# stage rates map stage names (W, N1, ...) to numbers.
_JSON_TYPES = {
    "float": _NUMBER, "int": _INT, "str": {"type": "string"},
    "dict[SleepStage, float]": {"type": "object", "additionalProperties": _NUMBER},
}
# Column names of per-stage values (F1 scores, trajectory states).
_STAGE_COLUMNS = [stage.name.lower() for stage in SleepStage]


def _fields_schema(cls) -> dict:
    """Object schema accepting exactly the dataclass's fields, typed by
    their annotations, and requiring each field without a default."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {f.name: _JSON_TYPES[f.type] for f in fields(cls)},
        "required": [f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING],
    }


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schedule": _fields_schema(ScheduleParams),
        "sampler": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": _INT,
                "lambda": {"oneOf": [_NUMBER, {"const": "auto"}]},
                "base_seed": _INT,
                "record_trajectory": {"type": "boolean"},
                "denoisers": {"enum": ["exact", "trained"]},
            },
        },
        "train": _fields_schema(neural.TrainConfig),
        "world": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "model": {"type": "object"},
                "n_recordings": _INT,
                "waveform": {
                    "type": "object",
                    "additionalProperties": _fields_schema(WaveformSpec),
                },
            },
        },
        "paths": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bundles_dir": {"type": "string"},
                "bundle": {"type": "string"},
                "models_dir": {"type": "string"},
                "predictions_dir": {"type": "string"},
                "pad_epochs": _INT,
            },
        },
    },
}


def _non_finite(literal: str):
    raise ValueError(f"config number {literal} is not finite")


def load_config(path) -> dict:
    # json.load accepts NaN and ±Infinity literals, and the schema's
    # number type lets them through.
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f, parse_constant=_non_finite)
    jsonschema.validate(cfg, CONFIG_SCHEMA)
    return cfg


def _given(**values) -> dict:
    """The values that are set, as keyword arguments; None means unset."""
    return {k: v for k, v in values.items() if v is not None}


def _flag_or(flag, section: dict, key: str):
    """A flag's value if given, else the config section's (or None)."""
    return flag if flag is not None else section.get(key)


def _schedule(cfg: dict) -> ScheduleParams:
    return ScheduleParams(**cfg.get("schedule", {}))


def _sampler_config(cfg: dict, args) -> SamplerConfig:
    section = cfg.get("sampler", {})
    settings = _given(
        n_samples=_flag_or(args.n_samples, section, "n_samples"),
        lam=_flag_or(args.lambda_, section, "lambda"),
        base_seed=_flag_or(args.seed, section, "base_seed"),
    )
    if settings.get("lam") == "auto":  # SamplerConfig's own 1/N weighting
        del settings["lam"]
    return SamplerConfig(schedule=_schedule(cfg), **settings)


def _train_config(cfg: dict, args) -> neural.TrainConfig:
    return neural.TrainConfig(**{**cfg.get("train", {}), **_given(seed=args.seed)})


def _world(cfg: dict) -> WorldModel:
    section = cfg.get("world", {})
    if "model" not in section:
        raise ValueError("config world.model is required for this command")
    return world_from_dict(section["model"])


def _waveform_specs(cfg: dict) -> dict[str, WaveformSpec]:
    return {
        name: WaveformSpec(**{
            **spec,
            "stage_rates": {SleepStage[k]: v for k, v in spec["stage_rates"].items()},
        })
        for name, spec in cfg.get("world", {}).get("waveform", {}).items()
    }


def _bank_and_obs(cfg: dict, args, bundle: Bundle) -> tuple[SensorBank, list]:
    """Build the denoiser bank (exact or trained) and the observation list."""
    mode = cfg.get("sampler", {}).get("denoisers", "exact")
    wanted = args.sensor or sorted(bundle.features)
    missing = [s for s in wanted if s not in bundle.features]
    if missing:
        raise KeyError(f"bundle has no features for sensors {missing}")
    obs = [(name, Features(bundle.features[name])) for name in wanted]
    if mode == "exact":
        bank = exact_bank(_world(cfg), wanted)
    else:
        models_dir = Path(cfg.get("paths", {}).get("models_dir", "models"))
        prior = neural.load_model(models_dir / "prior.json")
        bank = SensorBank(
            prior,
            tuple((name, neural.load_model(models_dir / f"{name}.json")) for name in wanted),
        )
    return bank, obs


def emit_plot_data(rows: list[dict], path) -> None:
    """One CSV row per (sensor-set, recording): gain, accuracy, kappa."""
    header = ["sensor_set", "recording", "mean_info_gain", "accuracy", "kappa"]
    write_csv(path, header, ([row[k] for k in header] for row in rows))


# -- commands ------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    world = _world(cfg)
    specs = _waveform_specs(cfg)
    n = cfg.get("world", {}).get("n_recordings", 10)
    seed = _flag_or(args.seed, cfg.get("sampler", {}), "base_seed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synth_cfg = SynthConfig(world=world, n_recordings=n, waveform=specs, **_given(seed=seed))
    split: dict[str, list[str]] = {"train": [], "val": [], "test": []}
    for i in range(n):
        rec = gen_recording(synth_cfg, i)
        signals = {}
        for name, wave in rec.waveforms.items():
            spec = specs[name]
            signals[name] = (wave, SignalEntry(
                name=name, kind=spec.kind_name, fs=spec.fs, file=f"signals/{name}.f32",
            ))
        write_bundle(out / rec.recording_id, Bundle(
            recording_id=rec.recording_id,
            n_epochs=world.n_epochs,
            valid_epochs=world.n_epochs,
            hypnogram=rec.hypnogram,
            features={k: v[None, :] for k, v in rec.features.items()},
            signals=signals,
        ))
        split[split_of_index(i)].append(rec.recording_id)
    dump_json(out / "split.json", split)
    print(f"synth: wrote {n} recording bundles to {out}")
    return 0


def _load_dataset(bundles_dir: Path, ids: list[str]):
    dataset = []
    for rec_id in ids:
        bundle = read_bundle(bundles_dir / rec_id)
        dataset.append((bundle.hypnogram, bundle.features))
    return dataset


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_cfg = _train_config(cfg, args)
    bundles_dir = Path(cfg.get("paths", {}).get("bundles_dir", "bundles"))
    split_file = bundles_dir / "split.json"
    if split_file.exists():
        with open(split_file, "r", encoding="utf-8") as f:
            ids = json.load(f)["train"]
    else:
        ids = sorted(p.name for p in bundles_dir.iterdir() if p.is_dir())
    dataset = _load_dataset(bundles_dir, ids)
    if not dataset:
        raise ValueError(f"no training recordings in {bundles_dir}")
    sensors = args.sensor or sorted(dataset[0][1])
    missing = [s for s in sensors if any(s not in features for _, features in dataset)]
    if missing:
        raise KeyError(f"training recordings have no features for sensors {missing}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = neural.train(dataset, neural.PRIOR, train_cfg)
    neural.save_model(out / "prior.json", net)
    print(f"train: prior on {len(dataset)} recordings -> {out / 'prior.json'}")
    for name in sensors:
        net = neural.train(dataset, name, train_cfg)
        neural.save_model(out / f"{name}.json", net)
        print(f"train: {name} -> {out / (name + '.json')}")
    return 0


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    bundle = read_bundle(Path(cfg["paths"]["bundle"]))
    bank, obs = _bank_and_obs(cfg, args, bundle)
    sampler_cfg = _sampler_config(cfg, args)
    # The config key asks for trajectories.csv: each step's m, σ and states.
    record = cfg.get("sampler", {}).get("record_trajectory", False)
    result = infer(bank, obs, sampler_cfg, bundle.n_epochs, keep_states=record,
                   valid_epochs=bundle.valid_epochs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_hypnogram(out / "hypnogram.txt", result.hypnogram)
    write_csv(out / "samples.csv", ["sample_index", "epoch_index", "stage"], (
        [i, e, label]
        for i, y in enumerate(result.samples)
        for e, label in enumerate(argmax_stages(y).to_labels())
    ))
    dump_json(out / "stats.json", {k: v for k, v in sorted(result.stats.items())})
    if record:
        sigmas = time_steps(sampler_cfg.schedule).tolist()
        # Rows per sample, then step, then epoch, of Python floats (faster to write).
        write_csv(out / "trajectories.csv",
                  ["sample_index", "step", "sigma", "epoch_index", *_STAGE_COLUMNS], (
                      [i, m, sigmas[m], e, *column]
                      for i, trajectory in enumerate(result.trajectories)
                      for m, y in enumerate(trajectory)
                      for e, column in enumerate(y.T.tolist())
                  ))
    acc = evalkit.accuracy(result.hypnogram, bundle.hypnogram, valid_epochs=bundle.valid_epochs)
    print(f"sample: {sampler_cfg.n_samples} samples, "
          f"5-class accuracy vs bundle hypnogram {acc:.3f}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    bundles_dir = Path(cfg["paths"]["bundles_dir"])
    pred_dir = Path(cfg["paths"]["predictions_dir"])
    rows = []
    stat_pairs: dict[str, list[tuple[float, float]]] = {}
    for rec_dir in sorted(p for p in bundles_dir.iterdir() if p.is_dir()):
        pred_file = pred_dir / rec_dir.name / "hypnogram.txt"
        if not pred_file.exists():
            continue
        bundle = read_bundle(rec_dir)
        pred = read_hypnogram(pred_file)
        valid = bundle.valid_epochs
        row = {"recording": bundle.recording_id}
        for scheme in evalkit.MergeScheme:
            row[f"accuracy_{scheme.value}"] = evalkit.accuracy(
                pred, bundle.hypnogram, scheme, valid)
            row[f"kappa_{scheme.value}"] = evalkit.cohens_kappa(
                pred, bundle.hypnogram, scheme, valid)
        f1 = evalkit.f1_per_class(pred, bundle.hypnogram, valid)
        for stage, value in zip(_STAGE_COLUMNS, f1):
            row[f"f1_{stage}"] = float(value)
        est = evalkit.overnight_stats(pred, valid)
        ref = evalkit.overnight_stats(bundle.hypnogram, valid)
        for stat, val in asdict(est).items():
            row[f"est_{stat}"] = val
            ref_val = getattr(ref, stat)
            row[f"ref_{stat}"] = ref_val
            if val is not None and ref_val is not None:
                stat_pairs.setdefault(stat, []).append((val, ref_val))
        rows.append(row)
    if not rows:
        raise ValueError("no predictions found to evaluate")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    write_csv(out / "rows.csv", header, ([row[k] for k in header] for row in rows))
    report = {
        "n_recordings": len(rows),
        "mean_accuracy_five": float(np.mean([r["accuracy_five"] for r in rows])),
        "mean_kappa_five": float(np.mean([r["kappa_five"] for r in rows])),
        "bland_altman": {
            stat: evalkit.bland_altman(pairs)
            for stat, pairs in sorted(stat_pairs.items()) if len(pairs) >= 2
        },
    }
    dump_json(out / "report.json", report)
    print(f"eval: {len(rows)} recordings, mean 5-class accuracy "
          f"{report['mean_accuracy_five']:.3f}")
    return 0


def cmd_infogain(args) -> int:
    cfg = load_config(args.config)
    if not args.sensor:
        raise ValueError("--sensor is required for infogain")
    bundle = read_bundle(Path(cfg["paths"]["bundle"]))
    bank, obs = _bank_and_obs(cfg, args, bundle)
    sampler_cfg = replace(_sampler_config(cfg, args), record_trajectory=True)
    # One sampler run carries the gain sums of every observed sensor.
    gains = sample_many(bank, obs, sampler_cfg, bundle.n_epochs).gains
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sensor in args.sensor:
        gain = information_gain(bank, obs, sensor, sampler_cfg, bundle.n_epochs, gains)
        write_infogain_csv(out / f"infogain_{sensor}.csv", gain)
        mean = mean_information_gain(gain, bundle.valid_epochs)
        print(f"infogain: {sensor} mean {mean:.4f} over {bundle.valid_epochs} epochs")
    return 0


def cmd_preprocess(args) -> int:
    cfg = load_config(args.config)
    bundle = read_bundle(Path(cfg["paths"]["bundle"]))
    pad_epochs = cfg.get("paths", {}).get("pad_epochs", TARGET_EPOCHS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, (samples, entry) in sorted(bundle.signals.items()):
        if entry.kind not in KINDS:
            raise KeyError(f"unknown signal kind {entry.kind!r}")
        raw = RawSignal(samples=samples, fs=entry.fs, kind=KINDS[entry.kind])
        processed = preprocess(raw, target_epochs=pad_epochs)
        write_signal_f32(out / f"{name}_proc.f32", processed.samples)
        dump_json(out / f"{name}_proc.json",
                  {"fs": TARGET_FS, "kind": entry.kind, "unit": ""})
        info = {"valid_epochs": processed.valid_epochs,
                "n_missing": int(processed.missing_indices.size)}
        if processed.rate is not None:
            write_signal_f32(out / f"{name}_rate.f32", processed.rate)
            info["rate_file"] = f"{name}_rate.f32"
        summary[name] = info
    dump_json(out / "preprocess.json", summary)
    print(f"preprocess: {len(summary)} signals -> {out}")
    return 0


def cmd_oracle_check(args) -> int:
    load_config(args.config)  # the suites take no settings, but the file must be valid
    names = list(checks.SUITES) if args.suite in (None, "all") else [args.suite]
    results = checks.run_suites(names)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / "report.json", [
        {"check": r.name, "tolerance": r.tolerance,
         "measured": float(r.measured), "passed": bool(r.passed)}
        for r in results
    ])
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        bound = "measured only" if r.tolerance is None else f"tol {r.tolerance:g}"
        print(f"{status} {r.name}: {r.measured:.3e} ({bound})")
    if failed:
        print(f"oracle-check: {len(failed)}/{len(results)} checks failed",
              file=sys.stderr)
        return 1
    print(f"oracle-check: all {len(results)} checks passed")
    return 0


def cmd_degrade(args) -> int:
    cfg = load_config(args.config)
    sampler = cfg.get("sampler", {})
    rows, summaries = experiments.degradation_sweep(
        schedule=_schedule(cfg),
        **_given(
            n_recordings=cfg.get("world", {}).get("n_recordings"),
            n_samples=_flag_or(args.n_samples, sampler, "n_samples"),
            seed=_flag_or(args.seed, sampler, "base_seed"),
        ),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv", ["mode", "level", "mean_info_gain", "accuracy", "kappa"], (
        [s.mode, s.level, s.mean_info_gain, s.accuracy, s.kappa] for s in summaries
    ))
    emit_plot_data([
        {"sensor_set": f"{r.mode}:{r.level:g}", "recording": r.recording,
         "mean_info_gain": r.mean_info_gain, "accuracy": r.accuracy,
         "kappa": r.kappa}
        for r in rows
    ], out / "plot_data.csv")
    for s in summaries:
        print(f"degrade {s.mode}:{s.level:g}: gain {s.mean_info_gain:.4f} "
              f"accuracy {s.accuracy:.4f}")
    return 0


# The optional flags; build_parser gives each command only those it reads.
_FLAGS = {
    "--seed": {"type": int, "help": "override config seed"},
    "--sensor": {"action": "append", "help": "sensor name (repeatable)"},
    "--n-samples": {"type": int},
    "--lambda": {"dest": "lambda_", "help": "combination weight or 'auto'"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsdm",
        description="Factorized score-based diffusion for stage-sequence inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    sampling = ("--seed", "--sensor", "--n-samples", "--lambda")
    add("synth", cmd_synth, ("--seed",), help="generate synthetic recording bundles")
    add("train", cmd_train, ("--seed", "--sensor"), help="train denoisers on bundles")
    add("sample", cmd_sample, sampling, help="run posterior sampling on a bundle")
    add("eval", cmd_eval, (), help="score predictions against bundle hypnograms")
    add("infogain", cmd_infogain, sampling, help="per-epoch information gain for a sensor")
    add("preprocess", cmd_preprocess, (), help="run the signal pipeline on a bundle")
    p = add("oracle-check", cmd_oracle_check, (), help="run verification suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (%s)" % ", ".join(sorted(checks.SUITES)))
    add("degrade", cmd_degrade, ("--seed", "--n-samples"),
        help="degradation sweep (zero spans, added noise)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "lambda_", None) not in (None, "auto"):
        try:
            lam = float(args.lambda_)
        except ValueError:
            lam = math.nan
        if not math.isfinite(lam):
            print(f"error: invalid --lambda {args.lambda_!r}", file=sys.stderr)
            return 2
        args.lambda_ = lam
    try:
        return args.fn(args)
    except (ValueError, KeyError, TypeError, OSError, SamplingError,
            jsonschema.ValidationError) as err:
        # str() of a KeyError is the repr of its message; print the message.
        text = str(err.args[0]) if isinstance(err, KeyError) and err.args else str(err)
        message = text.splitlines()[0] if text else repr(err)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
