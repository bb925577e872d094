"""The benchmark's calls into fsdm, at tiny sizes.

``perfbench/workloads.py`` calls ``fsdm`` by name, position and field,
and ``perfbench/tracing.py`` patches ``fsdm`` names; the benchmark's own
self-test runs outside this suite.  Each workload here runs one untraced
op through ``setup``, ``run_op`` and ``check``, and a second op on the
same recording must give the same fingerprint; every name the tracer
patches must exist.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fsdm import sampler


def _load(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module


workloads = _load("workloads")
tracing = _load("tracing")

TINY = {
    "oracle-e5": lambda: workloads.OracleE5(workloads.OracleE5.Sizes(
        n_epochs=3, n_samples=4, M=3, pool=1)),
    # 32 epochs reach the sampler's split, so the gain sums cross the pipe.
    "night-neural": lambda: workloads.NightNeural(workloads.NightNeural.Sizes(
        n_epochs=32, n_samples=3, M=3, train_epochs=12, train_recordings=2, train_steps=3)),
    "signal-2h": lambda: workloads.Signal2h(workloads.Signal2h.Sizes(duration_s=300)),
}


def test_every_workload_is_covered():
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_one_op_runs_checks_and_repeats(name, tmp_path, monkeypatch):
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    ranges = []
    run_ranges = sampler._run_ranges
    monkeypatch.setattr(sampler, "_run_ranges", lambda *args: (
        ranges.append(args[4]), run_ranges(*args))[1])
    workload = TINY[name]()
    inputs = workload.setup(seed=3, workdir=tmp_path)
    first = workload.run_op(inputs, 0)
    assert isinstance(workload.check(inputs, 0, first), dict)
    again = workload.run_op(inputs, inputs.pool)
    assert workload.fingerprint(again) == workload.fingerprint(first)
    assert ranges == {"oracle-e5": [1, 1], "night-neural": [2, 2], "signal-2h": []}[name]


@pytest.mark.parametrize("module_name, attr", [p[:2] for p in tracing.PATCHES])
def test_every_traced_name_resolves(module_name, attr):
    # The tracer's own lookup: a name it cannot find breaks every traced run.
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[leaf])
