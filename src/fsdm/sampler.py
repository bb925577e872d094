"""Second-order (Heun) probability-flow sampler and posterior aggregation.

Each sample integrates the ODE dy = −σ̇(t)σ(t)·score dt from t_0 down the
discrete grid to 0, starting from y_0 ~ N(0, σ(t_0)²·I) drawn from a
counter-based generator seeded by (base_seed, sample_index), so samples
are reproducible and independent of execution order.  The second-order
correction is skipped on the final step where σ(t) = 0.

``sample_many`` returns a ``Batch``: the (B, 5, E) final states and, with
``record_trajectory`` set, each sample's information-gain sums.  The
sums are state of the sampling loop: one (B, E) array per observed
sensor, to which each step adds the sensor's cosine distance
(``infogain.cosine_distance``) at its first observation; nothing else of
the trajectory is stored.  A per-step observer
``observer(m, σ, y, pairs)`` sees every sampling state: ``y`` is the
(B, 5, E) batch at step m and ``pairs`` holds each observation's (name,
likelihood, prior) denoised batches at it.  The observer may read these
arrays during the call but must not keep or write them; the pairs of an
exact bank share one prior array.

The samples run as contiguous ranges of indices, one per usable core
from ``_SPLIT_MIN_EPOCHS`` epochs.  The calling process integrates the
first range; each other range runs in a worker forked for the call, over
the whole time grid with its own gain sums, and sends back its final
states, its sums and the warnings it met, which join in index order.  A
sample's arithmetic does not depend on the other samples of its batch,
and each range draws its initial states by sample index, so the output
is bitwise the same for any split.  OpenBLAS is held to one thread while
workers run, so its own threads do not oversubscribe the cores.  There
is one range when an observer is attached (it must see the whole batch
at each step), when there is one usable core or one sample, and when a
fork is unavailable or unsafe: no ``fork`` start method, another live
thread, or a daemonic process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import evalkit
from .hypno import Hypnodensity, Hypnogram, argmax_stages, majority_vote
from .infogain import cosine_distance
from .sched import ScheduleParams, time_steps
from .scorekit import Observations, SensorBank, fsdm_denoise_batch

Observer = Callable[[int, float, np.ndarray, tuple], None]
# sample_many splits its samples across worker processes only from this
# many epochs.  A fork costs 5–15 ms.  On a 2-vCPU VM, at B = 64 and
# M = 32, the split took 0.51–0.61 times the in-process time with a
# neural bank at every E from 1 to 120.  With an exact Markov bank (two
# sensors, fused forward-backward, terms computed once per conditioning)
# it took 0.97–1.08 times at E = 5, 0.80–0.98 at E = 8, 0.79–0.88 at
# E = 16 and 0.61–0.66 at E = 32 (medians of 15 alternated pairs, in
# three runs).  Shorter recordings, and the enumeration-sized worlds of
# the exact oracles, stay in the calling process.
_SPLIT_MIN_EPOCHS = 32


class SamplingError(RuntimeError):
    """Raised when the sampler state leaves the finite range."""


@dataclass(frozen=True)
class SamplerConfig:
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    n_samples: int = 64
    lam: float | None = None  # None = automatic 1/N weighting
    base_seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.lam is not None and not 0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError(f"lam must be a finite number >= 0, got {self.lam!r}")


class Batch(NamedTuple):
    """The final (B, 5, E) states of a run of samples, in index order, and
    each sample's gain sums: a map from each observed sensor to the sum
    over the M sampling states of its per-epoch cosine distance (see
    ``infogain``).  ``gains`` is empty unless ``record_trajectory`` is set."""

    states: np.ndarray
    gains: tuple[dict[str, np.ndarray], ...]


@dataclass(frozen=True)
class InferenceResult:
    hypnogram: Hypnogram
    samples: tuple[Hypnodensity, ...]
    stats: dict[str, float]
    results: tuple[dict[str, np.ndarray], ...]  # each sample's gain sums, as in Batch


def _initial_state(base_seed: int, sample_index: int, n_epochs: int, sigma0: float) -> np.ndarray:
    rng = np.random.default_rng([int(base_seed), int(sample_index)])
    return rng.standard_normal((5, n_epochs)) * sigma0


def _check_epochs(obs: Observations, n_epochs: int) -> None:
    for _, cond in obs:
        if hasattr(cond, "n_epochs") and cond.n_epochs != n_epochs:
            raise ValueError("observation epoch count does not match n_epochs")


def _run_range(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    indices: Sequence[int],
    n_epochs: int,
    observer: Observer | None = None,
) -> tuple[Batch | None, tuple[int, Exception] | None]:
    """Integrate the samples ``indices`` in lockstep down the time grid.

    Returns their Batch, or the grid step at which they failed (the
    number of steps they completed) and the error."""
    m = 0
    try:
        ts = time_steps(cfg.schedule)
        y = np.stack(
            [_initial_state(cfg.base_seed, i, n_epochs, ts[0]) for i in indices]
        )
        # With record_trajectory, each observed sensor's (B, E) gain sums,
        # added at the sensor's first observation (its index in obs).
        first: dict[str, int] = {}
        for k, (name, _) in enumerate(obs if cfg.record_trajectory else ()):
            first.setdefault(name, k)
        gains = {name: np.zeros((len(indices), n_epochs)) for name in first}
        for m in range(cfg.schedule.M):
            t_cur = ts[m]
            t_next = ts[m + 1]
            sigma = float(t_cur)  # σ(t) = t, as a Python float for SamplingError's repr
            pairs: list | None = [] if first or observer is not None else None
            denoised = fsdm_denoise_batch(y, sigma, bank, obs, cfg.lam, pairs)
            for name, k in first.items():
                _, lik, pri = pairs[k]
                gains[name] += cosine_distance(lik, pri)
            if observer is not None:
                observer(m, sigma, y, tuple(pairs))
            d = (y - denoised) / sigma  # −σ(t)·score
            y_next = y + (t_next - t_cur) * d
            sigma_next = float(t_next)
            if sigma_next != 0.0:
                denoised2 = fsdm_denoise_batch(y_next, sigma_next, bank, obs, cfg.lam)
                d2 = (y_next - denoised2) / sigma_next
                y_next = y + 0.5 * (t_next - t_cur) * (d + d2)
            if not np.all(np.isfinite(y_next)):
                raise SamplingError(
                    f"non-finite state after step {m} (sigma={sigma!r} -> {sigma_next!r})"
                )
            y = y_next
    except Exception as err:
        return None, (m, err)
    per_sample = tuple({name: s[b] for name, s in gains.items()}
                       for b in range(len(indices))) if cfg.record_trajectory else ()
    return Batch(y, per_sample), None


def sample_many(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    observer: Observer | None = None,
) -> Batch:
    """Run cfg.n_samples samples with indices 0..n−1.

    Samples share the time grid and are integrated in lockstep as a
    batch; per-sample arithmetic is independent, so each sample's final
    state and gain sums equal those of a run of that sample alone
    bitwise, also when the samples are split across worker processes.
    ``observer`` sees the whole batch at each step, samples in index
    order, so passing one keeps every sample in the calling process.
    """
    _check_epochs(obs, n_epochs)
    n_ranges = _split_count(cfg.n_samples, n_epochs, observer)
    return _run_ranges(bank, obs, cfg, n_epochs, n_ranges, observer)


# -- the ranges and the worker processes --------------------------------------


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_count(n_samples: int, n_epochs: int, observer: Observer | None) -> int:
    """The number of sample ranges sample_many runs, 1 for no split."""
    if (observer is not None or n_epochs < _SPLIT_MIN_EPOCHS
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return max(1, min(_usable_cores(), n_samples))


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS that numpy
    loaded, or None where none is found (another BLAS, or a platform
    without ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        # Builds with 64-bit integers add the suffix 64_, and numpy's own
        # wheels the prefix scipy_.
        for prefix, suffix in (("openblas", ""), ("openblas", "64_"),
                               ("scipy_openblas", "64_"), ("scipy_openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread, and restore its count
    after; workers forked inside it inherit the one thread.  BLAS threads
    under the split's processes would oversubscribe the cores: a
    whole-night pair ran slower split than serial with them."""
    blas = _openblas_threads()
    threads = blas[0]() if blas is not None else 1
    if threads > 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads > 1:
            blas[1](threads)


def _send_range(sender: Connection, bank: SensorBank, obs: Observations, cfg: SamplerConfig,
                indices: Sequence[int], n_epochs: int) -> None:
    """A forked worker's body: run one range and send its outcome with the
    warnings it met, which the caller issues.  An interrupt is the
    caller's to handle; it ends the workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with warnings.catch_warnings(record=True) as caught:
        batch, failure = _run_range(bank, obs, cfg, indices, n_epochs)
    if failure is not None:
        done, err = failure
        try:  # the caller re-raises the error, so it must survive a round trip
            pickle.loads(pickle.dumps(err))
        except Exception:
            failure = done, RuntimeError(f"{type(err).__name__}: {err}")
    met = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    sender.send((batch, failure, met))
    sender.close()


def _issue(met: Sequence[tuple[str, type[Warning], str, int]]) -> None:
    """Issue warnings that a worker met as if they were met here: this
    process's filters, and the registry of the module each came from,
    decide whether it prints, so a warning met in several ranges prints
    as often as in one.  Code with no module file (``python -c``, stdin)
    runs in ``__main__``."""
    for text, category, filename, lineno in met:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), sys.modules["__main__"])
        warnings.warn_explicit(text, category, filename, lineno, module.__name__,
                               vars(module).setdefault("__warningregistry__", {}))


def _run_ranges(bank: SensorBank, obs: Observations, cfg: SamplerConfig, n_epochs: int,
                n_ranges: int, observer: Observer | None = None) -> Batch:
    """Run the samples as n_ranges contiguous index ranges: the first in
    the calling process, with ``observer``, and each other in a worker
    forked for the call.  Every worker is joined before this returns, and
    the warnings the workers met are issued.  The batches join in index
    order; if a range raised, the error of the one that failed at the
    earliest grid step (the first such range on a tie) is raised, which
    is the error a lockstep run of all the samples meets first."""
    bounds = [cfg.n_samples * k // n_ranges for k in range(n_ranges + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    workers = []
    with _one_blas_thread() if n_ranges > 1 else contextlib.nullcontext():
        try:
            for indices in ranges[1:]:
                # A forked worker starts with the bank and the observations in
                # memory; a spawned one would re-import the package and
                # unpickle every network.
                ctx = multiprocessing.get_context("fork")
                receiver, sender = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_send_range, daemon=True,
                                     args=(sender, bank, obs, cfg, indices, n_epochs))
                worker.start()
                workers.append((worker, receiver))
                sender.close()
            outcomes = [(*_run_range(bank, obs, cfg, ranges[0], n_epochs, observer), ())]
            for worker, receiver in workers:
                try:
                    outcomes.append(receiver.recv())
                except EOFError:
                    worker.join()
                    raise RuntimeError(f"sampling worker exited with code {worker.exitcode} "
                                       "before sending its samples") from None
        except BaseException:
            for worker, _ in workers:
                worker.terminate()
            raise
        finally:
            for worker, receiver in workers:
                receiver.close()
                worker.join()
    for _, _, met in outcomes:
        _issue(met)
    failures = [failure for _, failure, _ in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    batches = [batch for batch, _, _ in outcomes]
    return Batch(np.concatenate([batch.states for batch in batches]),
                 tuple(gains for batch in batches for gains in batch.gains))


_STAT_NAMES = tuple(f.name for f in fields(evalkit.StatReport))


def infer(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    observer: Observer | None = None,
    valid_epochs: int | None = None,
) -> InferenceResult:
    """Sample, majority-vote a hypnogram, and aggregate overnight stats.

    The reported statistics are the per-statistic median over the
    per-sample argmax hypnograms, cut to the first ``valid_epochs``
    epochs (all of them by default), so padding never counts as sleep;
    statistics absent from every sample (e.g. REM latency with no REM)
    are omitted from the map.  ``observer`` is passed to sample_many, and
    ``results`` holds each sample's gain sums from it.
    """
    batch = sample_many(bank, obs, cfg, n_epochs, observer=observer)
    samples = tuple(Hypnodensity(y) for y in batch.states)
    hypnogram = majority_vote(samples)
    reports = [
        evalkit.overnight_stats(argmax_stages(y), valid_epochs) for y in samples
    ]
    stats: dict[str, float] = {}
    for name in _STAT_NAMES:
        value = evalkit.aggregate_stat(reports, name)
        if value is not None:
            stats[name] = value
    return InferenceResult(hypnogram=hypnogram, samples=samples, stats=stats, results=batch.gains)
