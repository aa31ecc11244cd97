#!/usr/bin/env python3
"""Robustness sweep over missing-observation rates.

Trains the synthetic benchmark at several observation drop rates and
prints how test error degrades as inputs become irregular.  The spline
interpolation plus log-signature front end is the part under test: it
should absorb moderate missingness with little accuracy loss.

Usage:
    python scripts/irregular_sweep.py [--out OUT] [--rates 0,0.1,0.3,0.5]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import graphrde
from graphrde import cli
from graphrde import data as D
from graphrde.config import load_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="irregular_sweep")
    parser.add_argument("--rates", default="0,0.1,0.3,0.5")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--timesteps", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rates = [float(r) for r in args.rates.split(",")]

    values_path, _ = D.synth(args.nodes, args.timesteps, args.seed, os.path.join(args.out, "data"))
    preset = os.path.join(os.path.dirname(graphrde.__file__), "presets", "synth.cfg")

    rows = []
    for rate in rates:
        run = load_config(preset, {"values_path": values_path, "drop_rate": rate})
        metrics = cli.run_training(run, os.path.join(args.out, f"drop_{rate:g}"))
        rows.append((rate, metrics["test"]["mae"], metrics["test"]["rmse"],
                     metrics["ha_test"]["mae"]))
        print(f"drop rate {rate:4.2f}: test MAE {rows[-1][1]:.4f}")

    base_mae = rows[0][1]
    print(f"\n{'rate':>6} {'test MAE':>10} {'test RMSE':>10} {'HA MAE':>10} {'vs full':>8}")
    for rate, mae, rmse, ha in rows:
        print(f"{rate:>6.2f} {mae:>10.4f} {rmse:>10.4f} {ha:>10.4f} "
              f"{mae / base_mae:>7.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
