"""Layer tracing for the benchmark, installed from outside the package.

Each traced name is replaced, for the duration of one traced op, by a
wrapper that records a span (op, name, start, end, parent span) and,
where a layer does countable work, adds to named counters.  Names are
patched where callers look them up: ``fsdm.sampler`` binds
``fsdm_denoise_batch`` in its own namespace, ``fsdm.oracle`` binds
``mixture_marginals`` and ``fsdm.dsp`` binds the AMPD kernels, so those
module attributes are the ones replaced.  Nothing under ``src/`` is
edited, and every original is restored when the traced op ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

from fsdm.oracle import PRIOR
from fsdm.scorekit import ABSENT


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_bundle(counters, args, kwargs, result):
    # Files read_bundle opens: the manifest, the hypnogram and every
    # signal and feature payload (signal sidecars are not read).
    root = os.fspath(_arg(args, kwargs, 0, "directory"))
    for dirpath, _, files in os.walk(root):
        for f in files:
            if not (os.path.basename(dirpath) == "signals" and f.endswith(".json")):
                counters["bundle.bytes_read"] += os.path.getsize(os.path.join(dirpath, f))


def _count_ampd_gamma(counters, args, kwargs, result):
    counters["dsp.ampd_windows"] += 1
    counters["kernels.ampd_scales"] += int(_arg(args, kwargs, 1, "max_scale"))


def _count_mixture(counters, args, kwargs, result):
    log_prior, hyp, a = args[:3]
    batch = a.shape[0]
    n_hyp, n_epochs = hyp.shape
    counters["kernels.mixture_calls"] += 1
    counters["kernels.mixture_terms"] += batch * n_hyp * n_epochs
    # Computed, not measured: the 5^E stage table and log prior are
    # streamed once per batch item, plus the input and output arrays.
    counters["kernels.mixture_bytes"] += (
        batch * (hyp.nbytes + log_prior.nbytes) + a.nbytes + result.nbytes
    )


def _count_oracle_call(counters, args, kwargs, result):
    denoiser, cond = args[0], _arg(args, kwargs, 2, "cond")
    if denoiser.target == PRIOR:
        counters["oracle.calls_prior"] += 1
    elif cond is ABSENT:
        counters["oracle.calls_absent"] += 1
    else:
        counters["oracle.calls_cond"] += 1


def _count_denoise(counters, args, kwargs, result):
    counters["scorekit.denoised_states"] += result.shape[0]


def _trajectory_nbytes(result) -> int:
    steps = getattr(result, "trajectory", None) or ()
    return sum(
        step.y.nbytes + sum(lik.nbytes + pri.nbytes for _, lik, pri in step.pairs)
        for step in steps
    )


def _count_trajectories(counters, args, kwargs, result):
    counters["sampler.trajectory_bytes"] += sum(_trajectory_nbytes(r) for r in result)


def _count_steps_read(counters, args, kwargs, result):
    results = kwargs.get("results")
    if results is not None:
        counters["infogain.steps_read"] += sum(
            len(getattr(r, "trajectory", None) or ()) for r in results
        )


# (module, attribute, span name, counter).  A dotted attribute names a
# method, patched on its class.
PATCHES = (
    ("fsdm.bundle", "read_bundle", "bundle.read", _count_bundle),
    ("fsdm.dsp", "preprocess", "dsp.preprocess", None),
    ("fsdm.dsp", "resample", "dsp.resample", None),
    ("fsdm.dsp", "apply_filter", "dsp.filter", None),
    ("fsdm.dsp", "ampd_peaks", "dsp.ampd", None),
    ("fsdm.dsp", "ampd_gamma", "kernels.ampd_gamma", _count_ampd_gamma),
    ("fsdm.dsp", "ampd_local_maxima", "kernels.ampd_local_maxima", None),
    ("fsdm.dsp", "peaks_to_rate", "dsp.rate", None),
    ("fsdm.oracle", "mixture_marginals", "kernels.mixture", _count_mixture),
    ("fsdm.oracle", "ExactDenoiser.evaluate_batch", "oracle.evaluate", _count_oracle_call),
    ("fsdm.neural", "ReferenceDenoiser.evaluate_batch", "neural.evaluate", None),
    ("fsdm.neural", "ReferenceDenoiser.forward", "neural.forward", None),
    ("fsdm.sampler", "sample_many", "sampler.sample_many", _count_trajectories),
    ("fsdm.sampler", "fsdm_denoise_batch", "scorekit.denoise", _count_denoise),
    ("fsdm.sampler", "majority_vote", "hypno.vote", None),
    ("fsdm.evalkit", "overnight_stats", "evalkit.stats", None),
    ("fsdm.evalkit", "accuracy", "evalkit.score", None),
    ("fsdm.infogain", "information_gain", "infogain", _count_steps_read),
)


class Tracer:
    """Spans and counters for the traced ops of one run, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [op, name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][2:4] = start, end
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Install every patch for one op and restore the originals after."""
        self.op = op
        restore = []
        try:
            for module_name, attr, name, count in PATCHES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(original, name, count))
                restore.append((owner, leaf, original))
            yield
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)
            self.op = -1

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed direct-child time, count."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _, name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][1]] += end - start
        return total, child, calls


def layer_metrics(tracer: Tracer, n_ops: int, n_samples: int) -> dict[str, float]:
    """Per-op layer metrics from a tracer that saw ``n_ops`` traced ops."""
    total, child, calls = tracer.totals()
    c = tracer.counters
    denoise_calls = calls["scorekit.denoise"]
    denoiser_calls = calls["oracle.evaluate"] + calls["neural.evaluate"]
    run = {
        "bundle.read_s": total["bundle.read"],
        "bundle.bytes_read": c["bundle.bytes_read"],
        "dsp.preprocess_s": total["dsp.preprocess"],
        "dsp.resample_s": total["dsp.resample"],
        "dsp.filter_s": total["dsp.filter"],
        "dsp.ampd_s": total["dsp.ampd"],
        "dsp.ampd_windows": c["dsp.ampd_windows"],
        "dsp.rate_s": total["dsp.rate"],
        "kernels.ampd_gamma_s": total["kernels.ampd_gamma"],
        "kernels.ampd_local_maxima_s": total["kernels.ampd_local_maxima"],
        "kernels.ampd_scales": c["kernels.ampd_scales"],
        "kernels.mixture_s": total["kernels.mixture"],
        "kernels.mixture_calls": c["kernels.mixture_calls"],
        "kernels.mixture_terms": c["kernels.mixture_terms"],
        "kernels.mixture_bytes": c["kernels.mixture_bytes"],
        "oracle.evaluate_s": total["oracle.evaluate"],
        "oracle.calls_prior": c["oracle.calls_prior"],
        "oracle.calls_cond": c["oracle.calls_cond"],
        "oracle.calls_absent": c["oracle.calls_absent"],
        "neural.evaluate_s": total["neural.evaluate"],
        "neural.forward_calls": calls["neural.forward"],
        "scorekit.denoise_calls": denoise_calls,
        "scorekit.denoise_s": total["scorekit.denoise"],
        "scorekit.self_s": total["scorekit.denoise"] - child["scorekit.denoise"],
        "sampler.sample_many_s": total["sampler.sample_many"],
        "sampler.self_s": total["sampler.sample_many"] - child["sampler.sample_many"],
        "sampler.denoise_per_sample": c["scorekit.denoised_states"] / n_samples if n_samples else 0.0,
        "sampler.trajectory_bytes": c["sampler.trajectory_bytes"],
        "infogain.s": total["infogain"],
        "infogain.steps_read": c["infogain.steps_read"],
        "hypno.vote_s": total["hypno.vote"],
        "evalkit.stats_s": total["evalkit.stats"],
        "evalkit.score_s": total["evalkit.score"],
    }
    out = {name: float(value) / n_ops for name, value in run.items()}
    # A ratio of two per-op counts; its base is scorekit.denoise_calls.
    out["scorekit.denoiser_calls_per_denoise"] = (
        denoiser_calls / denoise_calls if denoise_calls else 0.0
    )
    return out
