#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle-e5 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``fsdm`` from its
``src/`` directory; nothing needs to be installed or built.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The full
results of the run go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pinned before numpy loads: the baseline is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("oracle-e5", "night-neural", "signal-2h")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 7919 is kept for re-checking claims)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fsdm" / "__init__.py").is_file():
        print(f"run.py: no fsdm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    result = bench.run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
