import multiprocessing
import os
import threading
import types
import warnings

import pytest

from fsdm import _fork
from fsdm._fork import fork_map, range_count


def _no_child_left():
    assert multiprocessing.active_children() == []
    # Every forked worker has been reaped: no zombie is left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pids_and_squares(chunk):
    return [(os.getpid(), i * i) for i in chunk]


@pytest.mark.parametrize("n_ranges", [1, 2, 3, 8])
def test_results_come_back_in_item_order(n_ranges):
    results = list(fork_map(_pids_and_squares, range(11), n_ranges))
    assert len(results) == n_ranges
    assert [square for chunk in results for _, square in chunk] == [i * i for i in range(11)]
    # The caller runs the first range, and a worker of its own each other.
    pids = [{pid for pid, _ in chunk} for chunk in results]
    assert pids[0] == {os.getpid()}
    assert len(set().union(*pids)) == n_ranges
    _no_child_left()


def _fail_in(ranges_by_first_item):
    def fn(chunk):
        kind = ranges_by_first_item.get(chunk[0])
        if kind is not None:
            raise kind(f"range from {chunk[0]}")
        return list(chunk)
    return fn


@pytest.mark.parametrize("failing, want", [
    ({3: KeyError, 6: ValueError}, (KeyError, "range from 3")),
    ({0: OSError, 6: ValueError}, (OSError, "range from 0")),
    ({6: ValueError, 9: KeyError}, (ValueError, "range from 6")),
])
def test_the_earliest_failure_is_raised(failing, want):
    # Four ranges of three items each, starting at items 0, 3, 6 and 9.
    with pytest.raises(want[0], match=want[1]):
        list(fork_map(_fail_in(failing), range(12), 4))
    _no_child_left()


def test_an_error_that_does_not_pickle_comes_back_as_runtime_error():
    class Unpicklable(ValueError):
        def __init__(self, code, text):
            super().__init__(f"{code}: {text}")

    def raise_it(chunk):
        if chunk[0] > 0:
            raise Unpicklable(7, "no pickle")
        return []

    def return_it(chunk):
        return Unpicklable(7, "no pickle")

    with pytest.raises(RuntimeError, match="^Unpicklable: 7: no pickle$"):
        list(fork_map(raise_it, range(2), 2))
    # A returned error is checked too; the caller's own is left as it is.
    mine, theirs = fork_map(return_it, range(2), 2)
    assert type(mine) is Unpicklable
    assert type(theirs) is RuntimeError and str(theirs) == "Unpicklable: 7: no pickle"
    _no_child_left()


def test_a_worker_that_dies_raises():
    def die(chunk):
        if chunk[0] > 0:
            os._exit(3)
        return []

    with pytest.raises(RuntimeError, match="exited with code 3"):
        list(fork_map(die, range(2), 2))
    _no_child_left()


def _warn(chunk):
    for _ in chunk:
        warnings.warn("from a range", UserWarning)
    return []


@pytest.mark.parametrize("action, want", [("default", 1), ("always", 6)])
@pytest.mark.parametrize("n_ranges", [1, 2, 3])
def test_a_warning_prints_as_often_as_in_process(action, want, n_ranges):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        list(fork_map(_warn, range(6), n_ranges))
    assert [str(w.message) for w in caught] == ["from a range"] * want
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, _warn.__code__.co_firstlineno + 2)}
    _no_child_left()


def test_no_worker_outlives_its_call():
    list(fork_map(_pids_and_squares, range(4), 4))
    _no_child_left()
    # Closing the iterator early ends the workers and joins them.
    results = fork_map(_pids_and_squares, range(4), 4)
    assert next(results) == [(os.getpid(), 0)]
    results.close()
    _no_child_left()


def test_blas_runs_on_one_thread_while_workers_run_and_is_restored():
    blas = _fork._openblas_threads()
    if blas is None:  # no OpenBLAS to hold: nothing to restore
        assert list(fork_map(_pids_and_squares, range(2), 2))
        return
    get, set_ = blas
    before = get()
    set_(2)
    try:
        seen = list(fork_map(lambda chunk: get(), range(2), 2))
        assert seen == [1, 1]
        assert get() == 2
        assert list(fork_map(lambda chunk: get(), range(2), 1)) == [2]
    finally:
        set_(before)
    _no_child_left()


def test_range_count_falls_back_to_one_range(monkeypatch):
    assert [range_count(n, 4) for n in (0, 1, 3, 4, 9)] == [1, 1, 3, 4, 4]
    assert range_count(9, 1) == 1
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert range_count(9, 4) == 1
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=True))
        assert range_count(9, 4) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert range_count(9, 4) == 1
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert range_count(9, 4) == 4
