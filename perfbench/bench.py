"""Set-up timing, the closed loop, metric tables and per-run results.

One run is one workload in this process: set up (several times, the
median is ``setup_s``), then a closed loop with one caller that starts
the next op when the previous one has been checked, until ``seconds``
have passed and every recording of the pool has had an op.  With
tracing on, each recording gets an untraced op and then a traced one,
which yields the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import fsdm._kernels
from fsdm.sampler import SamplingError

from tracing import Tracer, layer_metrics
from workloads import CheckFailed

DEFAULT_SEED = 0
# Kept out of tuning: re-run later claims on this seed as well.
RECHECK_SEED = 7919

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 1000


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    why: str = ""


# Gated end-to-end metrics, printed with --trace 0 on every workload.
END_TO_END = (
    Metric("latency_p50_s", "s", "lower", 0.25, "median op wall time"),
    Metric("recordings_per_s", "1/s", "higher", 0.25, "ops completed per second of op time"),
    Metric("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of this process"),
    Metric("setup_s", "s", "lower", 0.25, "median set-up time: inputs, bundles, training"),
)

# End-to-end figures reported beside the gated ones: failures are also the
# result line's "failed" count, and quality applies to some workloads only.
REPORTED = (
    Metric("failed_frac", "frac", "lower", why="ops that raised or failed validation / attempted"),
    Metric("stage_accuracy", "frac", "higher", why="5-class accuracy of the vote vs the truth"),
    Metric("posterior_agreement", "frac", "higher", why="vote == argmax of exact marginals"),
    Metric("rate_mae", "1/s", "lower", why="mean |per-epoch rate - stage rate|"),
)

PER_LAYER = tuple(
    Metric(name, unit, "lower")
    for name, unit in (
        ("bundle.read_s", "s"), ("bundle.bytes_read", "bytes"),
        ("dsp.preprocess_s", "s"), ("dsp.resample_s", "s"), ("dsp.filter_s", "s"),
        ("dsp.ampd_s", "s"), ("dsp.ampd_windows", "count"), ("dsp.rate_s", "s"),
        ("kernels.ampd_gamma_s", "s"), ("kernels.ampd_local_maxima_s", "s"),
        ("kernels.ampd_scales", "count"),
        ("kernels.mixture_s", "s"), ("kernels.mixture_calls", "count"),
        ("kernels.mixture_terms", "count"), ("kernels.mixture_bytes", "bytes_computed"),
        ("oracle.evaluate_s", "s"), ("oracle.calls_prior", "count"),
        ("oracle.calls_cond", "count"), ("oracle.calls_absent", "count"),
        ("neural.evaluate_s", "s"), ("neural.forward_calls", "count"), ("neural.train_s", "s"),
        ("scorekit.denoise_calls", "count"), ("scorekit.denoise_s", "s"), ("scorekit.self_s", "s"),
        ("scorekit.denoiser_calls_per_denoise", "ratio"),
        ("sampler.sample_many_s", "s"), ("sampler.self_s", "s"),
        ("sampler.denoise_per_sample", "count"), ("sampler.trajectory_bytes", "bytes"),
        ("infogain.s", "s"), ("infogain.steps_read", "count"),
        ("hypno.vote_s", "s"),
        ("evalkit.stats_s", "s"), ("evalkit.score_s", "s"),
        ("traced_op_s", "s"), ("trace_overhead_frac", "frac"),
    )
)


def metadata(workload, seed: int, digest: str, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "recheck_seed": RECHECK_SEED,
        "run_seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "using_numba": bool(fsdm._kernels.USING_NUMBA),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "sizes": workload.sizes_meta(),
        "inputs_sha256": digest,
    }


def set_up(workload, seed: int, workdir: Path, min_repeats: int):
    """Set up at least ``min_repeats`` times; returns the inputs and every time."""
    times: list[float] = []
    inputs = None
    while len(times) < min_repeats or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        again = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
        if inputs is not None and again.digest != inputs.digest:
            raise RuntimeError("set-up is not deterministic in the seed")
        inputs = again
    return inputs, times


@dataclass
class OpRecord:
    index: int
    pool_index: int
    traced: bool
    latency_s: float
    ok: bool
    cpu_s: float = 0.0
    error: str = ""


def closed_loop(workload, inputs, seconds: float, tracer: Tracer | None):
    """Run ops until ``seconds`` have passed and the pool is covered.

    Returns the op records and the quality of each pool recording's
    first pass.  An op that raises, or whose outputs fail the check or
    differ from the first pass on the same recording, is a failed op.
    """
    records: list[OpRecord] = []
    first: dict[int, tuple[str, dict]] = {}
    modes = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    k = 0
    while k < inputs.pool or time.perf_counter() - start < seconds:
        for traced in modes:
            n = len(records)
            pool_index = k % inputs.pool
            record = OpRecord(n, pool_index, traced, 0.0, False)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with tracer.tracing(n) if traced else contextlib.nullcontext():
                    out = workload.run_op(inputs, k)
                record.latency_s = time.perf_counter() - t0
                record.cpu_s = time.process_time() - c0
                quality = workload.check(inputs, k, out)
                fingerprint = workload.fingerprint(out)
                del out
                if pool_index in first and first[pool_index][0] != fingerprint:
                    raise CheckFailed("outputs differ from the first op on this recording")
                first.setdefault(pool_index, (fingerprint, quality))
                record.ok = True
            except (SamplingError, ValueError) as err:
                record.latency_s = record.latency_s or time.perf_counter() - t0
                record.error = f"{type(err).__name__}: {err}"
            records.append(record)
        k += 1
    return records, {i: q for i, (_, q) in first.items()}


def summarize(records: list[OpRecord], setup_times: list[float], quality: dict) -> dict:
    untraced = [r for r in records if not r.traced]
    ok = [r for r in untraced if r.ok]
    timed = ok or untraced
    values = {
        "latency_p50_s": statistics.median(r.latency_s for r in timed),
        "recordings_per_s": len(ok) / sum(r.latency_s for r in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setup_times),
        "failed_frac": sum(not r.ok for r in records) / len(records),
    }
    for name in sorted({key for q in quality.values() for key in q}):
        values[name] = float(np.mean([q[name] for q in quality.values() if name in q]))
    return values


def trace_summary(workload, tracer: Tracer, records: list[OpRecord], train_s: float) -> dict:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    values = layer_metrics(tracer, len(traced), getattr(workload.sizes, "n_samples", 0))
    values["neural.train_s"] = train_s
    traced_p50 = statistics.median(r.latency_s for r in traced)
    values["traced_op_s"] = traced_p50
    values["trace_overhead_frac"] = traced_p50 / statistics.median(r.latency_s for r in untraced) - 1.0
    return values


def _table(values: dict, metrics, n_ops: int) -> list[str]:
    lines = []
    for m in metrics:
        if m.name in values:
            lines.append(f"  {m.name:36s} {values[m.name]:>16.6g} {m.unit:14s} "
                         f"{m.better} is better  {m.why}")
    lines.append(f"  ({n_ops} ops)")
    return lines


def run(workload, seed: int, seconds: float, trace: bool, results_dir: Path = BENCH_DIR / "results") -> dict:
    """One run; writes the results files and returns the result line's object."""
    workdir = BENCH_DIR / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs, setup_times = set_up(workload, seed, workdir, 1 if trace else SETUP_MIN_REPEATS)
        tracer = Tracer() if trace else None
        records, quality = closed_loop(workload, inputs, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = summarize(records, setup_times, quality)
    failed = sum(not r.ok for r in records)
    doc = {
        "metadata": metadata(workload, seed, inputs.digest, seconds, trace),
        "setup_times_s": setup_times,
        "ops": [r.__dict__ for r in records],
        "quality_per_recording": {str(i): q for i, q in sorted(quality.items())},
    }
    if trace:
        shown = trace_summary(workload, tracer, records, inputs.data.get("train_s", 0.0))
        line_metrics = PER_LAYER
        doc["per_layer"] = _with_units(shown, PER_LAYER)
        table = _table(shown, PER_LAYER, sum(r.traced for r in records))
    else:
        shown = values
        line_metrics = END_TO_END
        doc["end_to_end"] = _with_units(values, END_TO_END + REPORTED)
        table = _table(values, END_TO_END + REPORTED, len(records))
    stem = f"{workload.name}_seed{seed}_trace{int(trace)}"
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    if trace:
        with open(results_dir / f"{stem}.spans.json", "w", encoding="utf-8") as f:
            json.dump({"fields": ["op", "name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans}, f)
            f.write("\n")
    print(f"{workload.name} seed={seed} trace={int(trace)} "
          f"inputs_sha256={inputs.digest[:16]} numba={fsdm._kernels.USING_NUMBA}")
    print("\n".join(table))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m.name: {"value": shown[m.name], "unit": m.unit} for m in line_metrics},
    }


def _with_units(values: dict, metrics) -> dict:
    return {
        m.name: {"value": values[m.name], "unit": m.unit, "better": m.better}
        for m in metrics if m.name in values
    }
