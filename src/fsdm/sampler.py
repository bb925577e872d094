"""Second-order (Heun) probability-flow sampler and posterior aggregation.

Each sample integrates the ODE dy = −σ̇(t)σ(t)·score dt from t_0 down the
discrete grid to 0, starting from y_0 ~ N(0, σ(t_0)²·I) drawn from a
counter-based generator seeded by (base_seed, sample_index), so samples
are reproducible and independent of execution order.  The second-order
correction is skipped on the final step where σ(t) = 0.

A per-step observer ``observer(m, σ, y, pairs)`` sees every sampling
state: ``y`` is the (B, 5, E) batch at step m and ``pairs`` holds each
observation's (name, likelihood, prior) denoised batches at it.  The
observer may read these arrays during the call but must not keep or
write them; the pairs of an exact bank share one prior array.
With ``record_trajectory`` set, the information-gain sums are such an
observer, and nothing else of the trajectory is stored.

From ``_SPLIT_MIN_EPOCHS`` epochs, ``sample_many`` splits its samples
into one contiguous range of indices per usable core.  The calling
process integrates the first range; each other range runs in a worker
forked for the call, over the whole time grid with its own gain sums,
and sends back its final states and sums, which join in index order.
A sample's arithmetic does not depend on the other samples of its batch,
and each range draws its initial states by sample index, so the output
is bitwise the same for any split.  OpenBLAS is held to one thread
while the workers run, so its own threads do not oversubscribe the
cores.  The samples stay in the calling process when an observer is
attached (it must see the whole batch at each step), when there is one
usable core or one sample, and when a fork is unavailable or unsafe: no
``fork`` start method, another live thread, or a daemonic process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, fields
from multiprocessing.connection import Connection
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import evalkit
from .hypno import Hypnodensity, Hypnogram, argmax_stages, majority_vote
from .infogain import GainSums
from .sched import ScheduleParams, time_steps
from .scorekit import Observations, SensorBank, fsdm_denoise_batch

Observer = Callable[[int, float, np.ndarray, tuple], None]
# The final (B, 5, E) states of a range of samples, and their gain sums
# (None unless cfg.record_trajectory is set).
Finals = tuple[np.ndarray, dict[str, np.ndarray] | None]
# sample_many splits its samples across worker processes only from this
# many epochs.  A fork costs 5–15 ms.  On a 2-vCPU VM, at B = 64 and
# M = 32, the split took 0.51–0.61 times the in-process time with a
# neural bank at every E from 1 to 120, and with an exact Markov bank
# 1.34 times at E = 1, 0.95 at E = 5, 0.71–0.78 at E = 8–24 and
# 0.61–0.67 at E = 32–120.  Shorter recordings, and the enumeration-sized
# worlds of the exact oracles, stay in the calling process.
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


@dataclass(frozen=True)
class SampleResult:
    """Final state of one sample.

    With ``record_trajectory`` set, ``gain_sums`` maps each observed
    sensor to the sum over the ``n_steps`` sampling states of its
    per-epoch cosine distance (see ``infogain``); otherwise it is None.
    """

    y: Hypnodensity
    gain_sums: Mapping[str, np.ndarray] | None
    n_steps: int


@dataclass(frozen=True)
class InferenceResult:
    hypnogram: Hypnogram
    samples: tuple[Hypnodensity, ...]
    stats: dict[str, float]
    results: tuple[SampleResult, ...]


def _initial_state(base_seed: int, sample_index: int, n_epochs: int, sigma0: float) -> np.ndarray:
    rng = np.random.default_rng([int(base_seed), int(sample_index)])
    return rng.standard_normal((5, n_epochs)) * sigma0


def _check_epochs(obs: Observations, n_epochs: int) -> None:
    for _, cond in obs:
        if hasattr(cond, "n_epochs") and cond.n_epochs != n_epochs:
            raise ValueError("observation epoch count does not match n_epochs")


def _steps(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    indices: Sequence[int],
    n_epochs: int,
    observer: Observer | None = None,
) -> Iterator[tuple[np.ndarray, GainSums | None]]:
    """Integrate the samples ``indices`` in lockstep down the time grid,
    yielding the (B, 5, E) state and the gain sums after each step."""
    ts = time_steps(cfg.schedule)
    y = np.stack(
        [_initial_state(cfg.base_seed, i, n_epochs, ts[0]) for i in indices]
    )
    gains = None
    if cfg.record_trajectory:
        gains = GainSums([name for name, _ in obs], len(indices), n_epochs)
    observers = [o for o in (gains, observer) if o is not None]
    for m in range(cfg.schedule.M):
        t_cur = ts[m]
        t_next = ts[m + 1]
        sigma = float(t_cur)  # σ(t) = t, as a Python float for SamplingError's repr
        pairs: list | None = [] if observers else None
        denoised = fsdm_denoise_batch(y, sigma, bank, obs, cfg.lam, pairs)
        for o in observers:
            o(m, sigma, y, tuple(pairs))
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
        yield y, gains


def _run_range(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    indices: Sequence[int],
    n_epochs: int,
    observer: Observer | None = None,
) -> tuple[Finals | None, tuple[int, Exception] | None]:
    """The finals of the samples ``indices``, or the number of grid steps
    they completed before an error, and the error."""
    done = 0
    try:
        for done, (y, gains) in enumerate(_steps(bank, obs, cfg, indices, n_epochs, observer), 1):
            pass
    except Exception as err:
        return None, (done, err)
    return (y, None if gains is None else gains.sums), None


def _run_indices(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    indices: Sequence[int],
    n_epochs: int,
    observer: Observer | None = None,
) -> Finals:
    finals, failure = _run_range(bank, obs, cfg, indices, n_epochs, observer)
    if failure is not None:
        raise failure[1]
    return finals


def _results(finals: Finals, n_steps: int) -> list[SampleResult]:
    y, sums = finals
    return [
        SampleResult(
            y=Hypnodensity(y[b]),
            gain_sums=None if sums is None else {k: v[b] for k, v in sums.items()},
            n_steps=n_steps,
        )
        for b in range(len(y))
    ]


def sample_one(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    sample_index: int,
    n_epochs: int,
) -> SampleResult:
    """Run one probability-flow sample; deterministic in (cfg, sample_index)."""
    _check_epochs(obs, n_epochs)
    return _results(_run_indices(bank, obs, cfg, [sample_index], n_epochs), cfg.schedule.M)[0]


def sample_many(
    bank: SensorBank,
    obs: Observations,
    cfg: SamplerConfig,
    n_epochs: int,
    observer: Observer | None = None,
) -> list[SampleResult]:
    """Run cfg.n_samples samples with indices 0..n−1.

    Samples share the time grid and are integrated in lockstep as a
    batch; per-sample arithmetic is independent, so the output equals a
    sequential run of sample_one bitwise, also when the samples are split
    across worker processes.  ``observer`` sees the whole batch at each
    step, samples in index order, so passing one keeps every sample in
    the calling process.
    """
    _check_epochs(obs, n_epochs)
    n_ranges = _split_count(cfg.n_samples, n_epochs, observer)
    if n_ranges == 1:
        finals = _run_indices(bank, obs, cfg, range(cfg.n_samples), n_epochs, observer)
    else:
        finals = _run_split(bank, obs, cfg, n_epochs, n_ranges)
    return _results(finals, cfg.schedule.M)


# -- the split across worker processes --------------------------------------


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
    """A forked worker's body: run one range and send its outcome.  An
    interrupt is the caller's to handle; it ends the workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    finals, failure = _run_range(bank, obs, cfg, indices, n_epochs)
    if failure is not None:
        done, err = failure
        try:  # the caller re-raises the error, so it must survive a round trip
            pickle.loads(pickle.dumps(err))
        except Exception:
            failure = done, RuntimeError(f"{type(err).__name__}: {err}")
    sender.send((finals, failure))
    sender.close()


def _run_split(bank: SensorBank, obs: Observations, cfg: SamplerConfig,
               n_epochs: int, n_ranges: int) -> Finals:
    """Run the samples as n_ranges contiguous index ranges: the first in
    the calling process, each other in a worker forked for the call.
    Every worker is joined before this returns.  The finals join in
    index order; if a range raised, the error of the one that failed at
    the earliest grid step (the first such range on a tie) is raised,
    which is the error a lockstep run of all the samples meets first."""
    bounds = [cfg.n_samples * k // n_ranges for k in range(n_ranges + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    # A forked worker starts with the bank and the observations in memory;
    # a spawned one would re-import the package and unpickle every network.
    ctx = multiprocessing.get_context("fork")
    workers = []
    with _one_blas_thread():
        try:
            for indices in ranges[1:]:
                receiver, sender = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_send_range, daemon=True,
                                     args=(sender, bank, obs, cfg, indices, n_epochs))
                worker.start()
                workers.append((worker, receiver))
                sender.close()
            outcomes = [_run_range(bank, obs, cfg, ranges[0], n_epochs)]
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
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    states = np.concatenate([finals[0] for finals, _ in outcomes])
    sums = outcomes[0][0][1]
    if sums is not None:
        sums = {name: np.concatenate([finals[1][name] for finals, _ in outcomes])
                for name in sums}
    return states, sums


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
    are omitted from the map.  ``observer`` is passed to sample_many.
    """
    results = sample_many(bank, obs, cfg, n_epochs, observer=observer)
    samples = tuple(r.y for r in results)
    hypnogram = majority_vote(samples)
    reports = [
        evalkit.overnight_stats(argmax_stages(y), valid_epochs) for y in samples
    ]
    stats: dict[str, float] = {}
    for name in _STAT_NAMES:
        value = evalkit.aggregate_stat(reports, name)
        if value is not None:
            stats[name] = value
    return InferenceResult(hypnogram=hypnogram, samples=samples, stats=stats, results=tuple(results))
