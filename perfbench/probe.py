"""Time one workload's set-up in a fresh process.

Usage: python3 perfbench/probe.py --workload NAME --work DIR

Prints ``{"setup_s": ...}``: seconds from ``import entswap`` through the
workload's warm-up operation.  ``run.py`` starts this several times and
reports the median as ``setup_s``; it sets the thread variables this
process inherits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (stdlib only; entswap is imported in setup)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    start = time.perf_counter()
    workloads.WORKLOADS[args.workload].setup(args.work)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
