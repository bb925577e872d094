"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks the metric names and units against BENCHMARK.json, runs every
workload untraced and traced, checks the traced counts against their
closed forms, and drives the validation path with ops that fail.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
from fsdm.hypno import Hypnodensity  # noqa: E402
from fsdm.sampler import SamplingError  # noqa: E402
from workloads import WORKLOADS, NightNeural, OracleE5, Signal2h  # noqa: E402

TINY = {
    "oracle-e5": lambda: OracleE5(OracleE5.Sizes(n_epochs=3, n_samples=4, M=3, pool=2)),
    "night-neural": lambda: NightNeural(NightNeural.Sizes(
        n_epochs=12, n_samples=3, M=3, train_epochs=12, train_recordings=2, train_steps=3)),
    "signal-2h": lambda: Signal2h(Signal2h.Sizes(duration_s=300)),
}


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_metric_tables(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in bench.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in bench.PER_LAYER
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, spec, tmp_path):
    result = bench.run(TINY[name](), seed=3, seconds=0, trace=False, results_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    doc = json.loads((tmp_path / f"{name}_seed3_trace0.json").read_text())
    meta = doc["metadata"]
    assert meta["seed"] == 3 and len(meta["inputs_sha256"]) == 64
    assert {"numpy", "scipy", "python", "cpu_count", "using_numba", "thread_env", "sizes"} <= set(meta)
    assert doc["end_to_end"]["failed_frac"]["value"] == 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_matches_closed_forms(name, spec, tmp_path):
    workload = TINY[name]()
    result = bench.run(workload, seed=3, seconds=0, trace=True, results_dir=tmp_path)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for metric, expected in workload.closed_forms().items():
        assert values[metric] == expected, metric
    assert (tmp_path / f"{name}_seed3_trace1.spans.json").is_file()


def test_same_seed_gives_same_inputs_and_quality(tmp_path):
    first = bench.run(TINY["oracle-e5"](), 5, 0, False, results_dir=tmp_path / "a")
    again = bench.run(TINY["oracle-e5"](), 5, 0, False, results_dir=tmp_path / "b")
    docs = [json.loads((tmp_path / d / "oracle-e5_seed5_trace0.json").read_text()) for d in "ab"]
    assert docs[0]["metadata"]["inputs_sha256"] == docs[1]["metadata"]["inputs_sha256"]
    assert docs[0]["quality_per_recording"] == docs[1]["quality_per_recording"]
    assert first["attempted"] == again["attempted"]


class FailingOps(OracleE5):
    """Op 0 raises, op 1 returns off-simplex samples, op 2 is fine."""

    def run_op(self, inputs, k):
        if k == 0:
            raise SamplingError("injected")
        result = super().run_op(inputs, k)
        if k == 1:
            doubled = tuple(Hypnodensity(2 * s.values) for s in result.samples)
            result = dataclasses.replace(result, samples=doubled)
        return result


def test_failed_ops_are_counted_and_the_run_goes_on(tmp_path):
    workload = FailingOps(OracleE5.Sizes(n_epochs=2, n_samples=2, M=2, pool=3))
    result = bench.run(workload, seed=0, seconds=0, trace=False, results_dir=tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)
    doc = json.loads((tmp_path / "oracle-e5_seed0_trace0.json").read_text())
    assert doc["end_to_end"]["failed_frac"]["value"] == pytest.approx(2 / 3)
    errors = [op["error"] for op in doc["ops"]]
    assert errors[0].startswith("SamplingError") and "column sums" in errors[1] and not errors[2]


class Nondeterministic(OracleE5):
    """Every op returns different overnight statistics."""

    calls = 0

    def run_op(self, inputs, k):
        result = super().run_op(inputs, k)
        self.calls += 1
        return dataclasses.replace(result, stats={**result.stats, "tst_min": float(self.calls)})


def test_repeat_op_must_reproduce_first_pass(tmp_path):
    # The traced op repeats recording 0 after the untraced one.
    workload = Nondeterministic(OracleE5.Sizes(n_epochs=2, n_samples=2, M=2, pool=1))
    result = bench.run(workload, seed=0, seconds=0, trace=True, results_dir=tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-e5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
