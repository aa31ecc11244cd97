"""The frozen benchmark runs every workload once, correctly, against this checkout.

``perfbench/run.py`` calls graphrde's data, training and evaluation functions
by name and checks each workload's ``mae`` against ``perfbench/reference.json``
at 1e-12 relative, so a change that renames one of them or moves a prediction
bit fails here, not only when the benchmark is next run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_every_workload_runs_once_with_no_failed_operation(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # so perfbench/ gains no __pycache__
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    available = run.meminfo_mb().get("MemAvailable")
    if available is not None and available < run.PEMSD4_MIN_AVAILABLE_MB:
        pytest.skip(f"MemAvailable {available:.0f} MB is below the "
                    f"{run.PEMSD4_MIN_AVAILABLE_MB} MB that perfbench/run.py asks for pemsd4_step")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
