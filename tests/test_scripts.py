"""The demo scripts under ``scripts/`` run end to end on a small dataset."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.slow

SMALL = ["--nodes", "4", "--timesteps", "80"]


def run_script(name, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_synthetic_benchmark_script_writes_its_artifacts(tmp_path):
    out = run_script("run_synthetic_benchmark.py", "--out", str(tmp_path), *SMALL)
    assert "test MAE" in out
    assert os.listdir(tmp_path / "data") == ["values.csv"]  # no adjacency.csv
    run = set(os.listdir(tmp_path / "run_full"))
    assert {"model.ckpt", "history.csv", "metrics.json", "config.resolved.cfg",
            "forecasts.csv"} <= run


def test_irregular_sweep_script_trains_every_rate(tmp_path):
    out = run_script("irregular_sweep.py", "--out", str(tmp_path), "--rates", "0,0.3", *SMALL)
    assert "drop rate 0.00" in out and "drop rate 0.30" in out
    for rate in ("0", "0.3"):
        assert {"model.ckpt", "metrics.json"} <= set(os.listdir(tmp_path / f"drop_{rate}"))


def test_step_memory_estimate_covers_a_measured_step(tmp_path):
    run_script("step_memory.py", "--batches", "1", "--out", str(tmp_path / "steps.json"))
    (record,) = json.loads((tmp_path / "steps.json").read_text())
    spec = importlib.util.spec_from_file_location("step_memory", ROOT / "scripts" / "step_memory.py")
    step_memory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_memory)
    # an upper line, but not so far above the measured step that it turns batches away
    peak = record["peak_rss_mb"]
    assert peak <= step_memory.estimate_mb(1) <= 1.25 * peak, record
    assert math.isfinite(record["loss"]) and math.isfinite(record["step_s"]), record
    assert math.isfinite(record["cpu_s"]) and record["cpu_s"] > 0, record
    # and the machine: the child inherits this process's environment and numpy
    assert record["mem_total_mb"] > 0 and record["numpy"] == numpy.__version__, record
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert record[var] == os.environ.get(var), record
