#!/usr/bin/env python3
"""Record the reference ``mae`` of each workload for a range of seeds.

Usage (from the root of a checkout):
    python3 perfbench/record_reference.py [--seeds 0-9] [--workload NAME ...]

Runs ``perfbench/run.py --seconds 1`` once per workload and seed and
stores the reported ``mae`` in perfbench/reference.json, which run.py
checks every later run against (relative tolerance ``rel_tol``).  Re-record
only when a change is meant to alter the numbers, and say so where the
change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as 0-9")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    with open(REFERENCE, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    for workload in args.workload:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            metrics = json.loads(lines[-1])["metrics"] if lines else {}
            if "mae" not in metrics:
                print(f"error: {workload} seed {seed} reported no mae", file=sys.stderr)
                return 1
            mae = metrics["mae"]["value"]
            refs["mae"].setdefault(workload, {})[str(seed)] = mae
            print(f"{workload} seed {seed}: mae {mae!r}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
