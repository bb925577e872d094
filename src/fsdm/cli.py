"""Command-line surface tying the modules into reproducible experiments.

Commands: synth, train, sample, eval, infogain, preprocess, oracle-check,
degrade.  Every command reads a JSON run configuration, checked once
against the library dataclasses its sections set (the first unknown key,
wrongly typed value or missing required field is named), writes
machine-readable JSON/CSV under --out, and prints a short human summary.
Each command accepts only the flags it reads, and a value set in neither
the config nor a flag keeps the library's default.  Outputs carry no
timestamps, so a fixed (config, seed) pair reproduces byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from types import GenericAlias

import numpy as np

from . import checks, evalkit, experiments, neural
from .bundle import Bundle, SignalEntry, dump_json, read_bundle, write_bundle, write_csv
from .dsp import KINDS, TARGET_EPOCHS, TARGET_FS, RawSignal, preprocess, write_signal_f32
from .hypno import SleepStage, argmax_stages, read_hypnogram, stage_of_label, write_hypnogram
from .infogain import information_gain, mean_information_gain, write_infogain_csv
from .oracle import exact_bank, world_from_dict
from .sampler import SamplerConfig, SamplingError, infer, sample_many
from .sched import ScheduleParams, time_steps
from .scorekit import Features, SensorBank
from .synth import SynthConfig, WaveformSpec, gen_recording, split_of_index

# Column names of per-stage values (F1 scores, trajectory states).
_STAGE_COLUMNS = [stage.name.lower() for stage in SleepStage]


# The check of each leaf of a config, under the name an error gives for
# what it expects.  json.load makes exact types, and a bool is neither a
# number nor an integer.
_LEAVES = {
    "number": lambda v: type(v) in (int, float),
    "integer": lambda v: type(v) is int,
    "string": lambda v: type(v) is str,
    "boolean": lambda v: type(v) is bool,
    "object": lambda v: type(v) is dict,
    'number or "auto"': lambda v: v == "auto" or type(v) in (int, float),
    '"exact" or "trained"': lambda v: v in ("exact", "trained"),
}
# What a dataclass field holds, by its annotation; stage rates map stage
# names (W, N1, ...) to numbers.
_ANNOTATIONS = {"float": "number", "int": "integer", "str": "string",
                "dict[SleepStage, float]": dict[str, "number"]}
# What each config key holds: a dataclass (exactly its fields, typed by
# their annotations, each field without a default required), a dict of
# optional keys, dict[str, X] (free keys, each holding X) or a leaf.
_CONFIG = {
    "schedule": ScheduleParams,
    "sampler": {"n_samples": "integer", "lambda": 'number or "auto"', "base_seed": "integer",
                "record_trajectory": "boolean", "denoisers": '"exact" or "trained"'},
    "train": neural.TrainConfig,
    "world": {"model": "object", "n_recordings": "integer", "waveform": dict[str, WaveformSpec]},
    "paths": {"bundles_dir": "string", "bundle": "string", "models_dir": "string",
              "predictions_dir": "string", "pad_epochs": "integer"},
}


def _check(value, holds, path: str = "") -> None:
    """Raise ValueError at the first key of ``value`` that ``holds``
    rejects, naming it by its dotted path."""
    expected = holds if isinstance(holds, str) else "object"
    if not _LEAVES[expected](value):
        raise ValueError(f"config {path or 'file'} is {json.dumps(value)}, expected {expected}")
    if isinstance(holds, str):
        return
    if isinstance(holds, GenericAlias):
        keys = dict.fromkeys(value, holds.__args__[1])
    elif isinstance(holds, dict):
        keys = holds
    else:
        keys = {f.name: _ANNOTATIONS[f.type] for f in fields(holds)}
        for f in fields(holds):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in value:
                raise ValueError(f"{f.name!r} is a required property")
    for key, item in value.items():
        at = f"{path}.{key}" if path else key
        if key not in keys:
            raise ValueError(f"config {at} is not a known key")
        _check(item, keys[key], at)


def _non_finite(literal: str):
    raise ValueError(f"config number {literal} is not finite")


def load_config(path) -> dict:
    # json.load accepts NaN and ±Infinity literals, and the number leaf
    # would let them through.
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f, parse_constant=_non_finite)
    _check(cfg, _CONFIG)
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


def _required(cfg: dict, section: str, key: str):
    """The config's value at section.key; ValueError names it if unset."""
    if key not in cfg.get(section, {}):
        raise ValueError(f"config {section}.{key} is required for this command")
    return cfg[section][key]


def _waveform_specs(cfg: dict) -> dict[str, WaveformSpec]:
    return {
        name: WaveformSpec(**{
            **spec,
            "stage_rates": {stage_of_label(k): v for k, v in spec["stage_rates"].items()},
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
        bank = exact_bank(world_from_dict(_required(cfg, "world", "model")), wanted)
    else:
        models_dir = Path(cfg.get("paths", {}).get("models_dir", "models"))
        prior = neural.load_model(models_dir / "prior.json")
        bank = SensorBank(
            prior,
            tuple((name, neural.load_model(models_dir / f"{name}.json")) for name in wanted),
        )
    return bank, obs


# -- commands ------------------------------------------------------------------


def cmd_synth(cfg: dict, args) -> int:
    world = world_from_dict(_required(cfg, "world", "model"))
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


def cmd_train(cfg: dict, args) -> int:
    train_cfg = _train_config(cfg, args)
    bundles_dir = Path(cfg.get("paths", {}).get("bundles_dir", "bundles"))
    split_file = bundles_dir / "split.json"
    if split_file.exists():
        with open(split_file, "r", encoding="utf-8") as f:
            split = json.load(f)
        if not (isinstance(split, dict) and isinstance(split.get("train"), list)):
            raise ValueError(f"{split_file} has no \"train\" list")
        ids = split["train"]
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


def cmd_sample(cfg: dict, args) -> int:
    bundle = read_bundle(Path(_required(cfg, "paths", "bundle")))
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


def cmd_eval(cfg: dict, args) -> int:
    bundles_dir = Path(_required(cfg, "paths", "bundles_dir"))
    pred_dir = Path(_required(cfg, "paths", "predictions_dir"))
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


def cmd_infogain(cfg: dict, args) -> int:
    if not args.sensor:
        raise ValueError("--sensor is required for infogain")
    bundle = read_bundle(Path(_required(cfg, "paths", "bundle")))
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


def cmd_preprocess(cfg: dict, args) -> int:
    bundle = read_bundle(Path(_required(cfg, "paths", "bundle")))
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


def cmd_oracle_check(cfg: dict, args) -> int:
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


def cmd_degrade(cfg: dict, args) -> int:
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
    # One row per (sensor set, recording).
    write_csv(out / "plot_data.csv",
              ["sensor_set", "recording", "mean_info_gain", "accuracy", "kappa"],
              ([f"{r.mode}:{r.level:g}", r.recording, r.mean_info_gain, r.accuracy, r.kappa]
               for r in rows))
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
        # Every command reads the config, if only to reject a bad file.
        return args.fn(load_config(args.config), args)
    except (ValueError, KeyError, TypeError, OSError, SamplingError) as err:
        # str() of a KeyError is the repr of its message; print the message.
        text = str(err.args[0]) if isinstance(err, KeyError) and err.args else str(err)
        message = text.splitlines()[0] if text else repr(err)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
