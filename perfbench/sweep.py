#!/usr/bin/env python3
"""Run workloads over several seeds, one fresh process per run, one run
at a time, and summarise what the runs agree on.

    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9
    python3 perfbench/sweep.py --seeds 0 1 --trace 1 --repeat 2

Untraced runs: for every workload and end-to-end metric, the median and
the spread (distance between the first and third quartile over the
median) against the metric's bound in BENCHMARK.json.  Traced runs: the
share of the traced op time spent in the layer each workload was chosen
to stress, and the per-op counts against their closed forms.  With
``--repeat 2`` every seed runs twice, and quality figures and counts
must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The layer each workload stresses: more than half of its traced op time,
# less than a tenth on the other workloads.
STRESSED = {
    "oracle-e5": "kernels.mixture_s",
    "night-neural": "neural.evaluate_s",
    "signal-2h": "dsp.ampd_s",
}
QUALITY = ("failed_frac", "stage_accuracy", "posterior_agreement", "rate_mae")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "results" / f"{workload}_seed{seed}_trace{trace}.json", encoding="utf-8") as f:
        return line, json.load(f)


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def report_untraced(spec: dict, runs: dict) -> bool:
    ok = True
    for workload, results in runs.items():
        print(f"{workload}: {len(results)} runs")
        for m in spec["end_to_end"]:
            values = [line["metrics"][m["name"]]["value"] for line, _ in results]
            median, s = spread(values)
            gated = m["name"] != "setup_s"
            steady = s < m["bound"] / 3
            ok &= steady or not gated
            print(f"  {m['name']:18s} median {median:12.6g} {m['unit']:4s} spread {s:7.4f} "
                  f"bound {m['bound']:.2f} {'ok' if steady else ('WIDE' if gated else 'wide')}")
        for name in QUALITY:
            values = [doc["end_to_end"][name]["value"] for _, doc in results
                      if name in doc["end_to_end"]]
            if values:
                print(f"  {name:18s} median {statistics.median(values):12.6g}")
        bad = [line for line, _ in results if not line["correct"]]
        ok &= not bad
        if bad:
            print(f"  {len(bad)} runs not correct")
    return ok


def report_traced(runs: dict) -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ok = True
    for workload, results in runs.items():
        print(f"{workload}: {len(results)} traced runs")
        forms = WORKLOADS[workload]().closed_forms()
        for line, _ in results:
            m = {k: v["value"] for k, v in line["metrics"].items()}
            shares = {layer: m[layer] / m["traced_op_s"] for layer in STRESSED.values()}
            for w, layer in STRESSED.items():
                good = shares[layer] > 0.5 if w == workload else shares[layer] < 0.1
                ok &= good
                print(f"  {layer:20s} {shares[layer]:6.1%} of op time {'ok' if good else 'FAIL'}")
            for name, expected in forms.items():
                good = m[name] == expected
                ok &= good
                print(f"  {name:28s} {m[name]:>14.0f} closed form {expected:>14.0f} "
                      f"{'ok' if good else 'FAIL'}")
            print(f"  trace_overhead_frac {m['trace_overhead_frac']:+.4f}")
    return ok


def report_repeats(runs: dict, trace: int) -> bool:
    ok = True
    for workload, results in runs.items():
        by_seed: dict[int, list] = {}
        for line, doc in results:
            by_seed.setdefault(doc["metadata"]["seed"], []).append((line, doc))
        for seed, pair in by_seed.items():
            if trace:
                first, again = ({k: v["value"] for k, v in line["metrics"].items()
                                 if v["unit"] == "count"} for line, _ in pair[:2])
            else:
                first, again = ({k: v["value"] for k, v in doc["end_to_end"].items() if k in QUALITY}
                                for _, doc in pair[:2])
            same = first == again
            ok &= same
            print(f"{workload} seed {seed}: {'counts' if trace else 'quality'} "
                  f"{'repeat exactly' if same else 'DIFFER'}")
    return ok


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    runs: dict[str, list] = {}
    for workload in args.workloads:
        for _ in range(args.repeat):
            for seed in args.seeds:
                line, doc = run_once(workload, seed, args.seconds, args.trace)
                runs.setdefault(workload, []).append((line, doc))
                print(f"  ran {workload} seed {seed}: attempted {line['attempted']} "
                      f"failed {line['failed']}", flush=True)
    ok = report_traced(runs) if args.trace else (
        report_untraced(spec, runs) if len(args.seeds) * args.repeat >= 2 else True)
    if args.repeat > 1:
        ok &= report_repeats(runs, args.trace)
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
