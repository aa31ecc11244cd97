#!/usr/bin/env python3
"""End-to-end synthetic benchmark: generate, train, evaluate, forecast.

Generates the ring-diffusion dataset, trains the full model with the
bundled ``synth`` preset, compares it against the historical-average
baseline, and leaves all artifacts (checkpoint, history, metrics,
forecasts) in the output directory.

Usage:
    python scripts/run_synthetic_benchmark.py [--out OUT] [--nodes N]
        [--timesteps T] [--seed S] [--variant full|temporal_only|spatial_only]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import graphrde
from graphrde import cli
from graphrde import data as D
from graphrde.config import load_config
from graphrde.model import VARIANTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="synthetic_benchmark")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--timesteps", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--variant", default="full", choices=VARIANTS)
    args = parser.parse_args()

    data_dir = os.path.join(args.out, "data")
    spec, info = D.synth(args.nodes, args.timesteps, args.seed, data_dir)
    print(f"dataset: {spec.name} (amplitude {info.amplitude:.3f}, "
          f"noise sigma {info.noise_sigma:.3f})")

    preset = os.path.join(os.path.dirname(graphrde.__file__), "presets", "synth.cfg")
    run = load_config(preset, {
        "values_path": spec.values_path,
        "adjacency_path": spec.adjacency_path,
        "variant": args.variant,
        "seed": args.seed,
    })
    run_dir = os.path.join(args.out, f"run_{args.variant}")
    metrics = cli.run_training(run, run_dir)

    model_mae = metrics["test"]["mae"]
    ha_mae = metrics["ha_test"]["mae"]
    print(f"trained {metrics['epochs_run']} epochs "
          f"(best validation at epoch {metrics['best_epoch']})")
    print(f"test MAE   model: {model_mae:.4f}   historical average: {ha_mae:.4f}   "
          f"improvement: {100 * (1 - model_mae / ha_mae):.1f}%")
    mape = metrics["test"]["mape"]  # null when no target is large enough
    print(f"test RMSE  {metrics['test']['rmse']:.4f}   "
          f"test MAPE  {'undefined' if mape is None else f'{100 * mape:.2f}%'}")

    code = cli.main([
        "predict",
        "--checkpoint", os.path.join(run_dir, "model.ckpt"),
        "--data", spec.values_path,
        "--split", "test",
        "--out", os.path.join(run_dir, "forecasts.csv"),
    ])
    if code != 0:
        return code
    print(f"artifacts in {run_dir}: " + ", ".join(sorted(os.listdir(run_dir))))
    print(json.dumps({"test": metrics["test"], "ha_test": metrics["ha_test"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
