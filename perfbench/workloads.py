"""One benchmark workload in one process; run by ``run.py``, not by hand.

Usage: workloads.py --workload NAME --seed N --seconds S
                    --mode timed|fixed|traced --tmp DIR --out RESULT.json

The workload generates its inputs from the seed, writes them as CSV (and,
for ``irregular_predict``, a checkpoint) under DIR, and hands graphrde only
those files.  In ``timed`` mode it sets up ``SETUPS`` times and then
repeats its timed operation until S seconds have passed.  In ``fixed``
mode it sets up once and runs ``FIXED_OPS`` operations, a fixed amount of
work; ``traced`` does the same work with every layer wrapped in spans, so
per-layer totals compare across commits and against ``fixed``.  Samples,
checks and the per-layer record go to RESULT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import tracing
from graphrde import cli
from graphrde import data as D
from graphrde import model as M
from graphrde import tensor as T
from graphrde import training as TR
from graphrde.config import load_config
from graphrde.logsig import LyndonBasis

PRESETS = os.path.join(os.path.dirname(cli.__file__), "presets")

SETUPS = {"synth_fit": 3, "pemsd4_step": 3, "irregular_predict": 15}
FIXED_OPS = {"synth_fit": 1, "pemsd4_step": 2, "irregular_predict": 2}
SAMPLED = ("setup_s", "windows_per_s", "forward_windows_per_s")

# Nominal duration of ``calibrate``; timings are scaled to a machine on which
# it takes this long.
REFERENCE_CALIBRATION_S = 0.02


def calibrate() -> float:
    """Seconds a fixed mix of interpreter loop, small-array numpy calls and a
    1 MB array sweep takes right now, as a gauge of the machine's speed.

    On a shared machine the speed drifts by tens of percent over minutes,
    which no run length averages out; timing each operation against this
    gauge, taken just before and after it, cancels most of that drift.
    """
    small = np.full((16, 16), 0.5)
    sweep = np.ones(1 << 17)
    start = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i
    for _ in range(1500):
        small = np.tanh(small @ small * 0.01)
    for _ in range(40):
        sweep = sweep * 1.0000001 + 1.0
    return time.perf_counter() - start


@dataclass
class Record:
    """What one workload process measured and checked.

    Each sample in ``setup_s``, ``windows_per_s`` and
    ``forward_windows_per_s`` is scaled to the reference machine speed;
    ``raw`` keeps the same samples as measured.
    """

    setup_s: list[float] = field(default_factory=list)
    windows_per_s: list[float] = field(default_factory=list)
    forward_windows_per_s: list[float] = field(default_factory=list)
    raw: dict = field(default_factory=lambda: {name: [] for name in SAMPLED})
    calibrations: list[float] = field(default_factory=list)
    mae: float | None = None
    ops: int = 0
    checks: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail="") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def mark(self) -> None:
        """Gauge the machine before an operation that will be timed."""
        self.calibrations.append(calibrate())

    def speed(self) -> float:
        """Gauge the machine after a timed operation; returns the factor that
        scales its seconds to the reference speed."""
        before = self.calibrations[-1]
        self.calibrations.append(calibrate())
        return REFERENCE_CALIBRATION_S / ((before + self.calibrations[-1]) / 2.0)

    def add(self, name: str, seconds: float, speed: float, windows: int | None = None) -> None:
        """A set-up time (``windows`` None) or a throughput of ``windows`` in ``seconds``."""
        if windows is None:
            self.raw[name].append(seconds)
            getattr(self, name).append(seconds * speed)
        else:
            self.raw[name].append(windows / seconds)
            getattr(self, name).append(windows / (seconds * speed))


def watch(module_name: str, attr: str) -> list[tuple[float, float, int]]:
    """Record (start, end, windows) of every call to ``evaluate_prepared`` or
    ``predict_denormalized``, whose fourth argument is the prepared split."""
    calls: list[tuple[float, float, int]] = []

    def make(fn):
        def watched(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((start, time.perf_counter(), len(args[3])))

        return watched

    if not tracing.rebind(module_name, attr, make):
        raise RuntimeError(f"{module_name}.{attr} not found")
    return calls


def write_series(tmp: str, nodes: int, timesteps: int, seed: int) -> str:
    values, _ = D.synth_series(nodes, timesteps, seed)
    path = os.path.join(tmp, "values.csv")
    D.save_values(path, values)
    return path


def timed_loop(seconds: float, ops: int | None):
    """Operation indices: a fixed count if ``ops`` is given, else until time is up."""
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < ops) if ops is not None else (i == 0 or time.perf_counter() < deadline):
        yield i
        i += 1


@dataclass
class Prepared:
    config: M.ModelConfig
    normalizer: D.Normalizer
    preps: tuple
    params: M.ParamStore


def set_up(run, values_path: str) -> Prepared:
    """Everything before the first training step: read, window, split,
    normalize, run the front end on every split, initialise parameters."""
    values = D.load_values(values_path, run.channels)
    config = run.model_config(values.shape[0])
    windows = D.make_windows(values, run.input_len, run.horizon, run.out_channels)
    splits = D.split(windows, run.split_plan())[0]
    normalizer = D.fit_normalizer(values, D.train_range_end(splits[0]))
    basis = LyndonBasis(config.path_channels, config.sig_depth)
    preps = tuple(TR.prepare_split(w, normalizer, config, basis=basis) for w in splits)
    params = M.ParamStore(config, seed=run.seed)
    return Prepared(config, normalizer, preps, params)


def timed_setups(rec: Record, count: int, fn):
    out = None
    rec.mark()
    for _ in range(count):
        out = None  # release the previous set-up before building the next
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        rec.add("setup_s", elapsed, rec.speed())
        rec.ops += 1
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def synth_fit(rec: Record, args, setups: int, ops: int | None) -> None:
    """synth.cfg, 8 nodes x 600 steps: fit a fixed 3 epochs, then test."""
    path = write_series(args.tmp, 8, 600, args.seed)
    run = load_config(os.path.join(PRESETS, "synth.cfg"), {"values_path": path, "epochs": 3})
    s = timed_setups(rec, setups, lambda: set_up(run, path))
    prep_train, prep_val, prep_test = s.preps
    solve, train_cfg = run.solve_spec(), run.train_config()
    initial = s.params.state_arrays()
    evals = watch("graphrde.training", "evaluate_prepared")
    first_history = None
    for _ in timed_loop(args.seconds, ops):
        s.params.load_arrays(initial)
        evals.clear()
        rec.mark()
        fit_start = time.perf_counter()
        result = TR.fit(s.params, s.config, prep_train, prep_val, train_cfg, solve, s.normalizer)
        start = time.perf_counter()
        test = TR.evaluate_prepared(
            s.params, s.config, solve, prep_test, s.normalizer, train_cfg.batch_size
        )
        test_s = time.perf_counter() - start
        speed = rec.speed()
        # fit validates once per epoch; the time between validations is training
        prev = fit_start
        for start, end, _ in evals[: train_cfg.epochs]:
            rec.add("windows_per_s", start - prev, speed, len(prep_train))
            rec.add("forward_windows_per_s", end - start, speed, len(prep_val))
            prev = end
        rec.add("forward_windows_per_s", test_s, speed, len(prep_test))
        rec.ops += 1
        if first_history is None:
            first_history = result.history
            rec.mae = result.history[-1][2]
            rec.info["test_mae"] = test.mae
            rec.check("epochs_run", len(result.history) == train_cfg.epochs, len(result.history))
            rec.check("finite_losses", np.isfinite(np.asarray(result.history)).all())
            rec.check("finite_test_mae", np.isfinite(test.mae), test.mae)
        else:
            rec.check("rerun_bit_identical", result.history == first_history)
    rec.info.update(train_windows=len(prep_train), val_windows=len(prep_val),
                    test_windows=len(prep_test), epochs=train_cfg.epochs)


def pemsd4_step(rec: Record, args, setups: int, ops: int | None) -> None:
    """pemsd4.cfg shape at batch 1: one untimed warm-up step, then timed
    training steps, each followed by one no-grad forward."""
    path = write_series(args.tmp, 307, 28, args.seed)  # 5 windows: 3 train, 1 val, 1 test
    # never above batch 1: the preset's batch 64 is killed for memory (ROADMAP item 3)
    run = load_config(os.path.join(PRESETS, "pemsd4.cfg"), {"values_path": path, "batch_size": 1})
    s = timed_setups(rec, setups, lambda: set_up(run, path))
    prep_train, prep_val, prep_test = s.preps
    solve, train_cfg = run.solve_spec(), run.train_config()
    adam = TR.Adam(s.params.tracked(), train_cfg.lr, train_cfg.weight_decay)

    def train_step(i: int) -> float:
        idx = np.array([i % len(prep_train)])
        s.params.zero_grad()
        pred = TR.forward_prepared(s.params, s.config, solve, prep_train, idx)
        loss = TR.l1_loss(pred, T.constant(prep_train.targets_norm[idx]))
        T.backward(loss)
        adam.step()
        return loss.item()

    train_step(0)  # warm-up, untimed
    losses = []
    rec.mark()
    for i in timed_loop(args.seconds, ops):
        start = time.perf_counter()
        losses.append(train_step(i + 1))
        rec.add("windows_per_s", time.perf_counter() - start, rec.speed(), 1)
        prep = (prep_val, prep_test)[i % 2]
        start = time.perf_counter()
        report = TR.evaluate_prepared(s.params, s.config, solve, prep, s.normalizer, 1)
        rec.add("forward_windows_per_s", time.perf_counter() - start, rec.speed(), len(prep))
        rec.ops += 2
        rec.check("finite_forward", np.isfinite(report.mae), report.mae)
    rec.mae = losses[0]  # the first timed step is the same on every run of a seed
    rec.info["losses"] = losses
    rec.check("finite_losses", np.isfinite(losses).all(), losses)


def irregular_predict(rec: Record, args, setups: int, ops: int | None) -> None:
    """``graphrde predict --split test`` at drop 0.3 on 16 nodes x 160 steps.

    The checkpoint's stored test range covers every window.  ``--split
    all`` would skip the stored drop, so it is not used.
    """
    path = write_series(args.tmp, 16, 160, args.seed)
    run = load_config(os.path.join(PRESETS, "synth.cfg"), {"values_path": path, "drop_rate": 0.3})
    ckpt = os.path.join(args.tmp, "model.ckpt")
    out = os.path.join(args.tmp, "forecasts.csv")

    def write_checkpoint():
        values = D.load_values(path, run.channels)
        config = run.model_config(values.shape[0])
        windows = D.make_windows(values, run.input_len, run.horizon, run.out_channels)
        train, val, _ = D.split(windows, run.split_plan())[0]
        normalizer = D.fit_normalizer(values, D.train_range_end(train))
        params = M.ParamStore(config, seed=run.seed)
        extra = {
            "normalizer": {"mean": normalizer.mean.tolist(), "std": normalizer.std.tolist()},
            "solve": {"method": run.method, "steps_per_window": run.steps_per_window},
            "split_offsets": {
                "train": [int(train.offsets[0]), int(train.offsets[-1]) + 1],
                "val": [int(val.offsets[0]), int(val.offsets[-1]) + 1],
                "test": [0, len(windows)],
            },
            "drop": {
                "rate": run.drop_rate,
                "seeds": {
                    "train": args.seed + 101,
                    "val": args.seed + 202,
                    "test": args.seed + 303,
                },
            },
        }
        M.save_checkpoint(ckpt, params, extra=extra)
        return windows

    windows = timed_setups(rec, setups, write_checkpoint)
    forwards = watch("graphrde.training", "predict_denormalized")
    argv = ["predict", "--checkpoint", ckpt, "--data", path, "--split", "test", "--out", out]
    first = None
    rec.mark()
    for _ in timed_loop(args.seconds, ops):
        forwards.clear()
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        speed = rec.speed()
        rec.ops += 1
        rec.check("exit_code", code == 0, code)
        if code != 0:
            return
        rec.add("windows_per_s", elapsed, speed, len(windows))
        rec.add(
            "forward_windows_per_s",
            sum(e - s for s, e, _ in forwards),
            speed,
            sum(n for _, _, n in forwards),
        )
        with open(out, "rb") as fh:
            written = fh.read()
        if first is None:
            first = written
        else:
            rec.check("rerun_bit_identical", written == first)
    rows = [line.split(",") for line in first.decode().splitlines()[1:]]
    nodes, horizon = windows.targets.shape[1], windows.horizon
    rec.check("row_count", len(rows) == len(windows) * nodes * horizon, len(rows))
    idx = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in rows])
    pred = np.array([float(r[3]) for r in rows])
    rec.check("finite_forecasts", np.isfinite(pred).all())
    rec.mae = float(np.mean(np.abs(pred - windows.targets[idx[:, 0], idx[:, 1], idx[:, 2], 0])))
    rec.info.update(windows=len(windows), nodes=nodes, horizon=horizon)


WORKLOADS = {
    "synth_fit": synth_fit,
    "pemsd4_step": pemsd4_step,
    "irregular_predict": irregular_predict,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "fixed", "traced"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    rec = Record()
    error = None
    try:
        if args.mode == "timed":
            setups, ops = SETUPS[args.workload], None
        else:
            setups, ops = 1, FIXED_OPS[args.workload]
        WORKLOADS[args.workload](rec, args, setups, ops)
    except Exception:  # reported to run.py as a failed operation
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    doc = {
        "setup_s": rec.setup_s,
        "windows_per_s": rec.windows_per_s,
        "forward_windows_per_s": rec.forward_windows_per_s,
        "raw": rec.raw,
        "calibrations": rec.calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mae": rec.mae,
        "ops": rec.ops,
        "checks": rec.checks,
        "error": error,
        "info": rec.info,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "layers": tracer.metrics() if tracer else None,
        "missing_layers": tracer.missing if tracer else [],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
