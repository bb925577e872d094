"""One ordered fork-map: independent work split over forked worker processes.

``fork_map(fn, items, n_ranges)`` cuts ``items`` into n_ranges contiguous
ranges and returns the list of ``fn`` of each range, in range order.  The
calling process runs range 0; each other range runs in a worker forked
for the call, which starts with the caller's memory (so ``fn`` may be a
closure over large inputs, or write into ``shared_zeros`` arrays made
before the call) and sends back its result with the warnings it met.
The rules:

- the error of the earliest failing range is raised, and an error that
  would not survive a pickle round trip, raised or returned, arrives as
  ``RuntimeError("<type>: <message>")``;
- a worker that dies before sending its result raises ``RuntimeError``;
- workers ignore SIGINT, which is the caller's to handle, and the caller
  terminates them on any exception;
- every worker is joined before the call returns or raises;
- the warnings a worker met are issued in the caller as if met there;
- OpenBLAS is held to one thread while workers run.

``range_count`` gives one range per usable core, at most one per item,
and one range where a fork is unavailable or unsafe: no ``fork`` start
method, another live thread (a fork copies only the calling one), or a
daemonic process (which may not have children).  One range starts no
process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import warnings
from multiprocessing.connection import Connection
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def range_count(n_items: int, cores: int) -> int:
    """The number of ranges to run n_items in on ``cores`` cores."""
    if ("fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return max(1, min(cores, n_items))


def shared_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 zero array in an anonymous shared mapping: the workers
    forked after it is made write into the caller's pages, not copies."""
    if 0 in shape:  # mmap rejects a length of 0
        return np.zeros(shape)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8), dtype=np.float64).reshape(shape)


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
    whole-night sampling pair ran slower split than serial with them."""
    blas = _openblas_threads()
    threads = blas[0]() if blas is not None else 1
    if threads > 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads > 1:
            blas[1](threads)


class _Pickler(pickle.Pickler):
    """Pickles each error that would not come back whole as a RuntimeError
    with its type name and message, so the caller can still raise it."""

    def reducer_override(self, obj):
        if isinstance(obj, BaseException):
            try:
                pickle.loads(pickle.dumps(obj))
            except Exception:
                return RuntimeError, (f"{type(obj).__name__}: {obj}",)
        return NotImplemented


def _work(sender: Connection, fn: Callable[[Sequence[T]], R], chunk: Sequence[T]) -> None:
    """A forked worker's body: run ``fn`` on one range and send whether it
    returned, its result or error, and the warnings it met."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = True, fn(chunk)
        except Exception as err:
            outcome = False, err
    met = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    with io.BytesIO() as message:
        _Pickler(message, pickle.HIGHEST_PROTOCOL).dump((*outcome, met))
        sender.send_bytes(message.getbuffer())
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


def fork_map(fn: Callable[[Sequence[T]], R], items: Sequence[T], n_ranges: int) -> list[R]:
    """[fn(items[lo:hi])] for n_ranges contiguous ranges of items, in
    order: the first computed in this process, each other in a worker
    forked for the call."""
    bounds = [len(items) * k // n_ranges for k in range(n_ranges + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    if n_ranges == 1:
        return [fn(chunks[0])]
    workers = []
    with _one_blas_thread():
        try:
            # A forked worker starts with fn and its inputs in memory; a
            # spawned one would re-import the package and unpickle them.
            ctx = multiprocessing.get_context("fork")
            for chunk in chunks[1:]:
                receiver, sender = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_work, args=(sender, fn, chunk), daemon=True)
                worker.start()
                workers.append((worker, receiver))
                sender.close()
            results = [fn(chunks[0])]
            for worker, receiver in workers:
                try:
                    # recv unpickles the message in its buffer; recv_bytes
                    # would copy it first.
                    returned, value, met = receiver.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(f"a forked worker exited with code {worker.exitcode} "
                                       "before sending its result") from None
                _issue(met)
                if not returned:
                    raise value
                results.append(value)
            return results
        except BaseException:
            for worker, _ in workers:
                worker.terminate()
            raise
        finally:
            for worker, receiver in workers:
                receiver.close()
                worker.join()
