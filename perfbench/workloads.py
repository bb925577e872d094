"""The benchmark's three workloads.

A workload builds its inputs from a seed (``setup``), carries one
recording through its whole path per op (``run_op``), and checks the
op's outputs (``check``), which raises ``CheckFailed`` or returns the
op's quality figures.  Each workload keeps a small pool of recordings
and cycles through it; an op on a recording seen before must reproduce
the first pass bit for bit (``fingerprint``).

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from fsdm import bundle, dsp, evalkit, infogain, neural, oracle, sampler, synth
from fsdm.hypno import SleepStage
from fsdm.sched import ScheduleParams
from fsdm.scorekit import Features, SensorBank

COLUMN_SUM_TOL = 1e-9
EPOCH_SAMPLES = int(round(30 * dsp.TARGET_FS))


class CheckFailed(ValueError):
    """An op's outputs failed validation."""


def _markov(persistence: float, rng: np.random.Generator) -> oracle.MarkovPrior:
    trans = np.full((5, 5), (1.0 - persistence) / 4)
    np.fill_diagonal(trans, persistence)
    return oracle.MarkovPrior(rng.dirichlet(np.full(5, 5.0)), trans)


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(part)
    return h.hexdigest()


def _dir_sha256(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return _sha256(*(x for p in files for x in (str(p.relative_to(root)), p.read_bytes())))


def _check_inference(result: sampler.InferenceResult, n_epochs: int, n_samples: int) -> None:
    if len(result.samples) != n_samples:
        raise CheckFailed(f"{len(result.samples)} samples, expected {n_samples}")
    values = np.stack([s.values for s in result.samples])
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite sample values")
    worst = float(np.max(np.abs(values.sum(axis=1) - 1.0)))
    if worst > COLUMN_SUM_TOL:
        raise CheckFailed(f"sample column sums off by {worst:.3g}")
    if len(result.hypnogram) != n_epochs:
        raise CheckFailed(f"hypnogram has {len(result.hypnogram)} epochs, expected {n_epochs}")
    if not all(np.isfinite(v) for v in result.stats.values()):
        raise CheckFailed("non-finite overnight statistic")


def _inference_fingerprint(result: sampler.InferenceResult) -> str:
    return _sha256(
        np.stack([s.values for s in result.samples]),
        result.hypnogram.to_indices(),
        json.dumps(result.stats, sort_keys=True),
    )


@dataclass
class Inputs:
    digest: str
    pool: int
    data: dict


class OracleE5:
    """Markov world, exact denoisers, 5^E enumeration kernel."""

    name = "oracle-e5"

    @dataclass(frozen=True)
    class Sizes:
        n_epochs: int = 5
        n_sensors: int = 2
        n_symbols: int = 5
        n_samples: int = 64
        M: int = 32
        pool: int = 2

    def __init__(self, sizes: "OracleE5.Sizes | None" = None):
        self.sizes = sizes or self.Sizes()

    def sizes_meta(self) -> dict:
        return asdict(self.sizes)

    def setup(self, seed: int, workdir: Path) -> Inputs:
        z = self.sizes
        rng = np.random.default_rng([seed, 0])
        sensors = []
        for i in range(z.n_sensors):
            table = 0.5 * np.eye(5, z.n_symbols) + 0.5 * rng.dirichlet(np.ones(z.n_symbols), 5)
            sensors.append((f"s{i}", oracle.CategoricalEmission(table / table.sum(axis=1, keepdims=True))))
        world = oracle.WorldModel(z.n_epochs, _markov(0.7, rng), tuple(sensors))
        bank = SensorBank(
            oracle.exact_denoiser(world, oracle.PRIOR),
            tuple((name, oracle.exact_denoiser(world, name)) for name, _ in world.sensors),
        )
        cfg = synth.SynthConfig(world=world, n_recordings=z.pool, seed=seed)
        recs = [synth.gen_recording(cfg, i) for i in range(z.pool)]
        digest = _sha256(
            json.dumps(oracle.world_to_dict(world), sort_keys=True),
            *(x for r in recs for x in (r.hypnogram.to_indices(), *(r.features[n] for n, _ in sensors))),
        )
        sampler_cfg = sampler.SamplerConfig(
            schedule=ScheduleParams(M=z.M), n_samples=z.n_samples, base_seed=seed,
        )
        return Inputs(digest, z.pool, {"world": world, "bank": bank, "recs": recs, "cfg": sampler_cfg})

    def run_op(self, inputs: Inputs, k: int):
        d = inputs.data
        rec = d["recs"][k % inputs.pool]
        obs = [(name, Features(rec.features[name])) for name, _ in d["world"].sensors]
        return sampler.infer(d["bank"], obs, d["cfg"], self.sizes.n_epochs)

    def check(self, inputs: Inputs, k: int, result) -> dict[str, float]:
        world = inputs.data["world"]
        rec = inputs.data["recs"][k % inputs.pool]
        _check_inference(result, self.sizes.n_epochs, self.sizes.n_samples)
        post = oracle.enumerate_posterior(world, rec.features)
        hyp = oracle.hypnogram_table(world.n_epochs)
        marginals = np.stack(
            [np.bincount(hyp[:, e], weights=post, minlength=5) for e in range(world.n_epochs)], axis=1
        )
        vote = result.hypnogram.to_indices()
        return {
            "stage_accuracy": evalkit.accuracy(result.hypnogram, rec.hypnogram),
            "posterior_agreement": float(np.mean(vote == np.argmax(marginals, axis=0))),
        }

    fingerprint = staticmethod(_inference_fingerprint)

    def closed_forms(self) -> dict[str, float]:
        """Per-op counts the traced run must reproduce exactly."""
        z = self.sizes
        denoises = 2 * z.M - 1  # Heun: two evaluations per step, one on the last
        calls = (2 * z.n_sensors + 1) * denoises
        return {
            "kernels.mixture_calls": calls,
            "kernels.mixture_terms": calls * z.n_samples * 5**z.n_epochs * z.n_epochs,
            "oracle.calls_prior": denoises,
            "oracle.calls_cond": z.n_sensors * denoises,
            "oracle.calls_absent": z.n_sensors * denoises,
            "scorekit.denoise_calls": denoises,
            "sampler.denoise_per_sample": denoises,
            "sampler.trajectory_bytes": 0,
            "neural.forward_calls": 0,
            "dsp.ampd_windows": 0,
        }


class NightNeural:
    """Whole night, reference (neural) denoisers, trajectories recorded."""

    name = "night-neural"
    SENSORS = (
        # name, per-stage means (W, N1, N2, N3, R), per-stage sd
        ("f_a", (0.0, 1.0, 2.0, 3.0, 4.0), 0.8),
        ("f_b", (2.0, 0.0, 1.0, 4.0, 3.0), 1.0),
    )

    @dataclass(frozen=True)
    class Sizes:
        n_epochs: int = 960
        n_samples: int = 64
        M: int = 32
        train_epochs: int = 120
        train_recordings: int = 8
        train_steps: int = 1000
        pool: int = 1

    def __init__(self, sizes: "NightNeural.Sizes | None" = None):
        self.sizes = sizes or self.Sizes()

    def sizes_meta(self) -> dict:
        return {**asdict(self.sizes), "n_sensors": len(self.SENSORS)}

    def _world(self, n_epochs: int, prior: oracle.MarkovPrior) -> oracle.WorldModel:
        sensors = tuple(
            (name, oracle.GaussianEmission(np.array(means), np.full(5, sd)))
            for name, means, sd in self.SENSORS
        )
        return oracle.WorldModel(n_epochs, prior, sensors)

    def setup(self, seed: int, workdir: Path) -> Inputs:
        z = self.sizes
        prior = _markov(0.92, np.random.default_rng([seed, 1]))
        train_world = self._world(z.train_epochs, prior)
        world = self._world(z.n_epochs, prior)
        train_cfg = synth.SynthConfig(world=train_world, n_recordings=z.train_recordings, seed=seed)
        dataset = []
        for i in range(z.train_recordings):
            rec = synth.gen_recording(train_cfg, i)
            dataset.append((rec.hypnogram, rec.features))
        tc = neural.TrainConfig(steps=z.train_steps, seed=0)
        t0 = time.perf_counter()
        nets = {target: neural.train(dataset, target, tc)
                for target in (neural.PRIOR, *(name for name, _, _ in self.SENSORS))}
        train_s = time.perf_counter() - t0
        bank = SensorBank(nets[neural.PRIOR], tuple((n, nets[n]) for n, _, _ in self.SENSORS))
        test_cfg = synth.SynthConfig(world=world, n_recordings=z.pool, seed=seed)
        dirs = []
        for k in range(z.pool):
            rec = synth.gen_recording(test_cfg, 1000 + k)
            path = workdir / f"night_{k}"
            bundle.write_bundle(path, bundle.Bundle(
                recording_id=f"night_{k}", n_epochs=z.n_epochs, valid_epochs=z.n_epochs,
                hypnogram=rec.hypnogram,
                features={name: v[None, :] for name, v in rec.features.items()},
            ))
            dirs.append(path)
        digest = _sha256(
            *(x for h, f in dataset for x in (h.to_indices(), *(f[n] for n in sorted(f)))),
            *(_dir_sha256(p) for p in dirs),
        )
        sampler_cfg = sampler.SamplerConfig(
            schedule=ScheduleParams(M=z.M), n_samples=z.n_samples, base_seed=seed,
            record_trajectory=True,
        )
        return Inputs(digest, z.pool, {"bank": bank, "dirs": dirs, "cfg": sampler_cfg,
                                       "train_s": train_s})

    def run_op(self, inputs: Inputs, k: int):
        d = inputs.data
        b = bundle.read_bundle(d["dirs"][k % inputs.pool])
        obs = [(name, Features(b.features[name])) for name in sorted(b.features)]
        result = sampler.infer(d["bank"], obs, d["cfg"], b.n_epochs)
        gains = [
            infogain.information_gain(d["bank"], obs, name, d["cfg"], b.n_epochs,
                                      results=list(result.results))
            for name, _ in obs
        ]
        return {
            "result": result,
            "gains": gains,
            "accuracy": evalkit.accuracy(result.hypnogram, b.hypnogram),
            "stats": evalkit.overnight_stats(result.hypnogram, b.valid_epochs),
        }

    def check(self, inputs: Inputs, k: int, out) -> dict[str, float]:
        _check_inference(out["result"], self.sizes.n_epochs, self.sizes.n_samples)
        for gain in out["gains"]:
            v = gain.values
            if v.shape != (self.sizes.n_epochs,) or not np.all(np.isfinite(v)):
                raise CheckFailed(f"information gain for {gain.sensor} is malformed")
            if np.any(v < 0) or np.any(v > 1):
                raise CheckFailed(f"information gain for {gain.sensor} leaves [0, 1]")
        return {"stage_accuracy": out["accuracy"]}

    def closed_forms(self) -> dict[str, float]:
        z = self.sizes
        n = len(self.SENSORS)
        denoises = 2 * z.M - 1
        return {
            "neural.forward_calls": z.n_samples * (2 * n + 1) * denoises,
            "sampler.trajectory_bytes": z.n_samples * z.M * (1 + 2 * n) * 5 * z.n_epochs * 8,
            "infogain.steps_read": n * z.n_samples * z.M,
            "scorekit.denoise_calls": denoises,
            "sampler.denoise_per_sample": denoises,
            "kernels.mixture_calls": 0,
            "dsp.ampd_windows": 0,
        }

    @staticmethod
    def fingerprint(out) -> str:
        return _sha256(
            _inference_fingerprint(out["result"]),
            *(g.values for g in out["gains"]),
            json.dumps(asdict(out["stats"]), sort_keys=True),
        )


class Signal2h:
    """DSP front end on a 2-hour bundle of two pulse-train waveforms."""

    name = "signal-2h"
    SPECS = {
        "finger_ppg": dict(rates=(1.25, 1.10, 1.00, 0.90, 1.15), fs=64.0,
                           jitter_sd=0.01, pulse_width_s=0.3),
        "rip_belt": dict(rates=(0.33, 0.29, 0.25, 0.22, 0.31), fs=32.0,
                         jitter_sd=0.05, pulse_width_s=1.5),
    }

    @dataclass(frozen=True)
    class Sizes:
        duration_s: int = 7200
        pool: int = 1

        @property
        def n_epochs(self) -> int:
            return self.duration_s // 30

    def __init__(self, sizes: "Signal2h.Sizes | None" = None):
        self.sizes = sizes or self.Sizes()
        self.waveforms = {
            kind: synth.WaveformSpec(
                stage_rates=dict(zip(SleepStage, s["rates"])), base_amplitude=100.0,
                noise_sd=2.0, fs=s["fs"], jitter_sd=s["jitter_sd"],
                pulse_width_s=s["pulse_width_s"], kind_name=kind,
            )
            for kind, s in self.SPECS.items()
        }

    def sizes_meta(self) -> dict:
        fs = {name: s["fs"] for name, s in self.SPECS.items()}
        return {**asdict(self.sizes), "n_epochs": self.sizes.n_epochs, "fs": fs}

    def setup(self, seed: int, workdir: Path) -> Inputs:
        z = self.sizes
        rng = np.random.default_rng([seed, 2])
        world = oracle.WorldModel(z.n_epochs, _markov(0.9, rng))
        cfg = synth.SynthConfig(world=world, n_recordings=z.pool, waveform=self.waveforms, seed=seed)
        dirs, truths = [], []
        for k in range(z.pool):
            rec = synth.gen_recording(cfg, k)
            path = workdir / f"signal_{k}"
            signals = {
                name: (wave, bundle.SignalEntry(name=name, kind=name, fs=self.waveforms[name].fs,
                                                file=f"signals/{name}.f32"))
                for name, wave in rec.waveforms.items()
            }
            bundle.write_bundle(path, bundle.Bundle(
                recording_id=f"signal_{k}", n_epochs=z.n_epochs, valid_epochs=z.n_epochs,
                hypnogram=rec.hypnogram, signals=signals,
            ))
            stages = rec.hypnogram.to_indices()
            truths.append({name: np.array(self.SPECS[name]["rates"])[stages] for name in self.SPECS})
            dirs.append(path)
        digest = _sha256(*(_dir_sha256(p) for p in dirs))
        return Inputs(digest, z.pool, {"dirs": dirs, "truths": truths})

    def run_op(self, inputs: Inputs, k: int):
        b = bundle.read_bundle(inputs.data["dirs"][k % inputs.pool])
        out = {}
        for name, (samples, entry) in sorted(b.signals.items()):
            raw = dsp.RawSignal(samples=samples, fs=entry.fs, kind=dsp.KINDS[entry.kind])
            p = dsp.preprocess(raw)
            per_epoch = p.rate[: p.valid_epochs * EPOCH_SAMPLES].reshape(p.valid_epochs, -1).mean(axis=1)
            out[name] = (p.valid_epochs, per_epoch)
        return out

    def check(self, inputs: Inputs, k: int, out) -> dict[str, float]:
        truths = inputs.data["truths"][k % inputs.pool]
        if sorted(out) != sorted(truths):
            raise CheckFailed(f"processed signals {sorted(out)}, expected {sorted(truths)}")
        errors = []
        for name, (valid_epochs, rate) in out.items():
            if valid_epochs != self.sizes.n_epochs:
                raise CheckFailed(f"{name}: valid_epochs {valid_epochs} != {self.sizes.n_epochs}")
            if not np.all(np.isfinite(rate)):
                raise CheckFailed(f"{name}: non-finite rate")
            errors.append(np.abs(rate - truths[name]))
        return {"rate_mae": float(np.mean(np.concatenate(errors)))}

    @staticmethod
    def fingerprint(out) -> str:
        return _sha256(*(rate for _, (_, rate) in sorted(out.items())))

    def closed_forms(self) -> dict[str, float]:
        # Mirrors dsp.ampd_peaks' default 600 s windows with 120 s overlap.
        n = self.sizes.duration_s * int(dsp.TARGET_FS)
        window = 600 * int(dsp.TARGET_FS)
        step = window - 120 * int(dsp.TARGET_FS)
        if window >= n:
            windows = 1
        else:
            starts = list(range(0, n - window + 1, step))
            windows = len(starts) + (starts[-1] + window < n)
        scale_cap = (min(window, n) - 1) // 2
        scales = sum(
            min(int(round(s * dsp.TARGET_FS)), scale_cap)
            for s in (dsp.CARDIAC_MAX_SCALE_S, dsp.RESPIRATORY_MAX_SCALE_S)
        )
        return {
            "dsp.ampd_windows": len(self.SPECS) * windows,
            "kernels.ampd_scales": windows * scales,
            "kernels.mixture_calls": 0,
            "neural.forward_calls": 0,
            "scorekit.denoise_calls": 0,
        }


WORKLOADS = {w.name: w for w in (OracleE5, NightNeural, Signal2h)}
