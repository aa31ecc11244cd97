#!/usr/bin/env python3
"""Peak RSS of one training step at PeMSD4 shape, one process per batch size.

The model, solver and optimizer settings come from the bundled
``pemsd4.cfg`` preset (307 nodes, dim_h = dim_z = 64, two extra trunk
layers, RK4 with two steps per window) on a synthetic series; only the
batch size varies.  Each batch size runs in a fresh child process, which
takes one ``training.train_step`` (forward, L1 loss, backward, Adam) and
reports the step's loss, its wall time ``step_s`` and the child's own
peak RSS from ``getrusage``, so no batch inherits another's high-water
mark, beside the machine: CPUs, MemTotal, the numpy version and the BLAS
thread variables the child saw.  Most of a window's share of the peak is
the state-sized arrays the tape keeps: 9 per RK4 step, since each field
rebuilds its stage state inside its own entry.  The step's tape entries
(279 at batch 1) are counted by
``perfbench/run.py --workload pemsd4_step --trace 1`` instead.

Before starting a child, the parent reads MemAvailable from
/proc/meminfo and skips a batch whose estimated peak does not fit, so
the out-of-memory killer is never invoked.

Usage:
    python scripts/step_memory.py [--batches 1,2,4] [--seed 0] [--out FILE.json]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import graphrde
from graphrde import data as D
from graphrde import tensor as T
from graphrde import training as TR
from graphrde.config import load_config
from graphrde.model import ParamStore

PRESET = os.path.join(os.path.dirname(graphrde.__file__), "presets", "pemsd4.cfg")
# Estimated peak of one step: an upper line over the measured peaks on a
# 2-CPU machine with numpy 2.4, two head workers and BLAS on one thread:
# 72, 91, 129, 207 and 363 MB at batch 1, 2, 4, 8 and 16, and 1298 MB at
# batch 64, with each tape entry dropped as the backward passes it. A
# batch is skipped unless MemAvailable exceeds its estimate by SPARE_MB.
BASE_MB, PER_WINDOW_MB, SPARE_MB = 58, 20, 1000


def estimate_mb(batch: int) -> int:
    return BASE_MB + PER_WINDOW_MB * batch


def meminfo_mb(key: str) -> float | None:
    """``key``, such as MemTotal, from /proc/meminfo (read only), or None if unknown."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def one_step(batch: int, seed: int) -> dict:
    """Take one training step at ``batch`` windows in this process."""
    run = load_config(PRESET, {"batch_size": batch, "seed": seed})
    values, _ = D.synth_series(run.num_nodes, run.input_len + run.horizon + batch - 1, seed)
    config = run.model_config(values.shape[0])
    windows = D.make_windows(values, run.input_len, run.horizon, run.out_channels)
    normalizer = D.fit_normalizer(values, values.shape[1])
    prepared = TR.prepare_split(windows, normalizer, config)
    params = ParamStore(config, seed=run.seed)
    train_cfg, solve = run.train_config(), run.solve_spec()
    adam = TR.Adam(params.tracked(), train_cfg.lr, train_cfg.weight_decay)
    idx = np.arange(batch)

    start = time.perf_counter()
    loss = TR.train_step(params, adam, config, solve, prepared, idx)
    step_s = time.perf_counter() - start
    return {
        "batch": batch,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": meminfo_mb("MemTotal"),
        "numpy": np.__version__,
        # the BLAS settings this process started with, None when unset
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        # threads that share a multi-tile head_matvec call: one per CPU when numpy's OpenBLAS
        # was set to one thread, whatever the variables above say, and one without it
        "head_workers": T._head_pool().workers,
        "loss": loss,
        "step_s": step_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--batches", default="1,2,4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write the records as JSON here")
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(one_step(args.child, args.seed)))
        return 0

    records = []
    for batch in (int(b) for b in args.batches.split(",")):
        available, need = meminfo_mb("MemAvailable"), estimate_mb(batch)
        if available is not None and available < need + SPARE_MB:
            record = {"batch": batch, "skipped": f"MemAvailable {available:.0f} MB < "
                      f"estimated {need} MB + {SPARE_MB} MB spare"}
        else:
            child = subprocess.run(
                [sys.executable, __file__, "--child", str(batch), "--seed", str(args.seed)],
                capture_output=True, text=True,
            )
            if child.returncode != 0:
                record = {"batch": batch, "failed": child.stderr.strip().splitlines()[-1:]}
            else:
                record = json.loads(child.stdout.strip().splitlines()[-1])
        records.append(record)
        print(json.dumps(record), flush=True)
    if args.out:
        D.atomic_write(args.out, json.dumps(records, indent=2) + "\n")
    return 0 if all("peak_rss_mb" in r for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
