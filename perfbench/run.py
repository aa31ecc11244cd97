#!/usr/bin/env python3
"""graphrde benchmark: one workload, measured in a fresh child process.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn.  With ``--trace 0`` the child runs untraced for S seconds and the
end-to-end metrics are printed.  With ``--trace 1`` two children do the
same fixed amount of work, the first untraced and the second traced; the
per-layer metrics of the traced child are printed, together with the
tracing overhead (traced minus untraced) of each end-to-end metric.

The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  The lines before it give each
metric with its unit and workload, and one JSON record of the machine,
samples and checks.

Inputs are generated from the seed into a temporary directory inside the
checkout, which is removed afterwards.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must end within 180 s
PEMSD4_MIN_AVAILABLE_MB = 5500  # the batch-1 step peaks near 4.1 GB RSS
SAMPLED = ("setup_s", "windows_per_s", "forward_windows_per_s")  # per-operation samples
OVERHEAD_OF = SAMPLED + ("peak_rss_mb",)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def meminfo_mb() -> dict[str, float]:
    """MemTotal and MemAvailable, read from /proc/meminfo (read only)."""
    out = {}
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in ("MemTotal", "MemAvailable"):
                    out[key] = int(rest.split()[0]) / 1024.0
    except OSError:
        pass
    return out


def machine_record() -> dict:
    mem = meminfo_mb()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem.get("MemTotal"),
        "mem_available_mb": mem.get("MemAvailable"),
        "blas_threads": BLAS_THREADS,
    }


def run_child(workload: str, seed: int, seconds: float, mode: str, tmp: str, deadline: float):
    """Run one workload process; returns (exit code, result document or None)."""
    out = os.path.join(tmp, f"result-{mode}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--tmp", tmp, "--out", out,
    ]
    # the child's own prints (graphrde's CLI messages) go to our stderr
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {workload} child exceeded the deadline and was killed", file=sys.stderr)
        return -9, None
    try:
        return code, load_json(out)
    except (OSError, ValueError):
        return code, None


class Outcome:
    """Operations attempted and failed across the children of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def absorb(self, label: str, code: int, doc: dict | None) -> None:
        self.check(f"{label} exit code", code == 0 and doc is not None, code)
        if doc is None:
            return
        self.attempted += doc["ops"]
        for c in doc["checks"]:
            self.check(f"{label} {c['name']}", c["ok"], c["detail"])


def end_to_end(doc: dict) -> dict[str, float]:
    """Medians of the per-operation samples, plus peak RSS and mae."""
    out = {}
    for name in SAMPLED:
        if doc[name]:
            out[name] = statistics.median(doc[name])
    out["peak_rss_mb"] = doc["peak_rss_mb"]
    if doc["mae"] is not None:
        out["mae"] = doc["mae"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, refs: dict):
    """Returns (metrics, outcome, detail) for one workload."""
    outcome = Outcome()
    machine = machine_record()
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine}
    if workload == "pemsd4_step":
        available = machine["mem_available_mb"]
        if available is not None and available < PEMSD4_MIN_AVAILABLE_MB:
            outcome.check("memory pre-flight", False,
                          f"MemAvailable {available:.0f} MB < {PEMSD4_MIN_AVAILABLE_MB} MB; "
                          "not started, to avoid the OOM killer")
            detail["failures"] = outcome.failures
            return {}, outcome, detail

    deadline = time.monotonic() + DEADLINE_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        code, doc = run_child(workload, seed, seconds, "fixed" if trace else "timed", tmp, deadline)
        outcome.absorb("untraced", code, doc)
        traced_doc = None
        if trace:
            traced_code, traced_doc = run_child(workload, seed, seconds, "traced", tmp, deadline)
            outcome.absorb("traced", traced_code, traced_doc)

    e2e = end_to_end(doc) if doc else {}
    mae = e2e.get("mae")
    outcome.check("mae finite", mae is not None and math.isfinite(mae), mae)
    ref = refs["mae"].get(workload, {}).get(str(seed))
    if ref is not None and mae is not None:
        outcome.check("mae matches reference", abs(mae - ref) <= refs["rel_tol"] * abs(ref),
                      f"{mae!r} vs {ref!r}")
    detail["mae_reference"] = ref

    if trace:
        layers = traced_doc.get("layers") if traced_doc else None
        traced_e2e = end_to_end(traced_doc) if traced_doc else {}
        if traced_doc is not None:
            outcome.check("traced mae equals untraced", traced_e2e.get("mae") == mae,
                          f"{traced_e2e.get('mae')!r} vs {mae!r}")
            detail["missing_layers"] = traced_doc["missing_layers"]
        metrics = dict(layers or {})
        for name in OVERHEAD_OF:
            if name in traced_e2e and name in e2e:
                metrics[f"overhead.{name}"] = traced_e2e[name] - e2e[name]
        wanted = [m["name"] for m in spec["per_layer"]]
        detail["traced"] = summarize(traced_doc)
    else:
        metrics = e2e
        wanted = [m["name"] for m in spec["end_to_end"]]
    for name in wanted:
        value = metrics.get(name)
        outcome.check(f"metric {name} reported", value is not None and math.isfinite(value), value)
    detail["untraced"] = summarize(doc)
    detail["failures"] = outcome.failures
    return {k: metrics[k] for k in wanted if k in metrics}, outcome, detail


def summarize(doc: dict | None) -> dict | None:
    """Sample counts, medians and ranges, so every median states its n, and
    the medians as measured, before scaling to the reference speed."""
    if doc is None:
        return None
    out = {k: doc[k] for k in ("numpy", "python", "peak_rss_mb", "mae", "ops", "error", "info")}
    for name in SAMPLED:
        xs, raw = doc[name], doc["raw"][name]
        out[name] = {"n": len(xs), "median": statistics.median(xs) if xs else None,
                     "min": min(xs, default=None), "max": max(xs, default=None),
                     "median_as_measured": statistics.median(raw) if raw else None}
    cal = doc["calibrations"]
    out["calibration_s"] = {"n": len(cal), "median": statistics.median(cal) if cal else None}
    return out


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphrde", "__init__.py")):
        print("error: src/graphrde not found; run from a graphrde checkout", file=sys.stderr)
        return 2
    spec = load_json(spec_path)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    refs = load_json(os.path.join(HERE, "reference.json"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    total = Outcome()
    printed: dict[str, dict] = {}
    for workload in names if args.workload == "all" else [args.workload]:
        metrics, outcome, detail = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), spec, refs
        )
        for name, value in metrics.items():
            print(f"{workload:<18} {name:<30} {value!r} {units[name]}")
        rate = outcome.failed / max(outcome.attempted, 1)
        print(f"{workload:<18} {'error_rate':<30} {rate!r} ({outcome.failed}/{outcome.attempted})")
        print(json.dumps(detail))
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        printed.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    correct = total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted, "failed": total.failed,
                      "metrics": printed}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
