"""Command line front end.

Subcommands: ``synth`` (generate a synthetic dataset), ``logsig`` (dump
windowed log-signature coordinates), ``train`` (full pipeline to
checkpoint + history + metrics), ``eval`` (metrics for a checkpoint on
a dataset), ``predict`` (per-window forecast CSV), ``verify`` (built-in
correctness suites).

Exit codes: 0 success, 1 usage/config or an output that cannot be written,
2 data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict, replace
from dataclasses import fields as dataclass_fields

import numpy as np

from . import data as D
from . import tensor as T
from . import training as TR
from .config import RunConfig, load_config, save_config
from .data import FMT, atomic_write
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    GraphRDEError,
    NumericError,
    UsageError,
)
from .logsig import LyndonBasis, window_logsig
from .model import ParamStore, load_checkpoint, save_checkpoint
from .paths import RawSeries, fit_spline
from .solver import SolveSpec
from .verification import SUITES, format_results, run_suites

_VARIANT_FLAG = {"full": "full", "temporal": "temporal_only", "spatial": "spatial_only"}
# forecast CSV rows ``predict`` formats per write: whole windows, about this many
FORECAST_CHUNK_ROWS = 1 << 16
_SPLITS = ("train", "val", "test")


class _Parser(argparse.ArgumentParser):
    """Argparse that raises instead of exiting, so errors map to exit 1."""

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Pipeline plumbing shared by train / eval / predict
# ---------------------------------------------------------------------------


def _stored_slice(windows: D.WindowSet, span: list[int]) -> slice:
    """The windows whose offsets fall in a stored ``[lo, hi)`` range: offsets
    rise strictly, so they are a slice, and taking it gives views, not copies."""
    return slice(*np.searchsorted(windows.offsets, span))


def _stored_split(windows: D.WindowSet, extra: dict, which: str) -> D.WindowSet:
    """A split as training took it, from checkpoint metadata: the windows in
    its stored range (``"all"``: every window), each stored split's drop
    redrawn with that split's seed over the windows inside its range."""
    ranges = extra.get("split_offsets") or {}
    if which != "all":
        if which not in ranges:
            raise DataError(f"checkpoint does not record a {which!r} split")
        keep = _stored_slice(windows, ranges[which])
        if keep.start == keep.stop:
            lo, hi = ranges[which]
            raise DataError(f"no windows fall in the stored {which!r} range [{lo}, {hi})")
        windows = windows.take(keep)
    drop = extra.get("drop")
    if not drop or drop.get("rate", 0.0) <= 0.0:
        return windows
    masks = windows.masks.copy()
    for name in ranges if which == "all" else [which]:
        keep = _stored_slice(windows, ranges[name])
        if keep.start < keep.stop:
            dropped = D.drop_observations(windows.take(keep), drop["rate"], drop["seeds"][name])
            masks[keep] = dropped.masks
    return D.WindowSet(windows.inputs, masks, windows.targets, windows.offsets)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number (not a bool, and not an int too large for a float)."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_extra(extra: dict, channels: int) -> SolveSpec:
    """Check what eval and predict read from a checkpoint's ``extra`` block
    and return its solver spec; any fault is a ``DataError``."""
    norm = extra.get("normalizer")
    if not isinstance(norm, dict):
        raise DataError("checkpoint does not store normalization statistics")
    for key in ("mean", "std"):
        vals = norm.get(key)
        if not (isinstance(vals, list) and len(vals) == channels and all(map(_is_number, vals))):
            raise DataError(f"checkpoint normalizer {key} must be {channels} finite numbers")
    if min(norm["std"]) <= 0:
        raise DataError("checkpoint normalizer std must be positive")
    ranges = extra.get("split_offsets", {})
    pairs = isinstance(ranges, dict) and all(
        isinstance(r, list) and len(r) == 2 and all(map(_is_int, r)) for r in ranges.values()
    )
    if not pairs:
        raise DataError("checkpoint split ranges must each be a pair of ints")
    for name, (lo, hi) in ranges.items():
        if not 0 <= lo < hi:
            raise DataError(f"checkpoint {name!r} split range [{lo}, {hi}) is not 0 <= lo < hi")
    drop = extra.get("drop")
    if drop:
        rate = drop.get("rate", 0.0) if isinstance(drop, dict) else None
        if not (_is_number(rate) and 0.0 <= rate < 1.0):
            raise DataError("checkpoint drop rate must be a number in [0, 1)")
        seeds = drop.get("seeds", {})
        seeded = isinstance(seeds, dict) and all(
            _is_int(seeds.get(k)) and seeds[k] >= 0 for k in ranges
        )
        if rate > 0.0 and not seeded:
            raise DataError("checkpoint drop must give an int seed >= 0 for every stored split")
    solve = extra.get("solve", {})
    if not isinstance(solve, dict):
        raise DataError("checkpoint solver settings are not an object")
    types = {f.name: f.type for f in dataclass_fields(SolveSpec)}
    bad = sorted(k for k, v in solve.items() if type(v).__name__ != types.get(k))
    if bad:
        raise DataError(f"checkpoint solver settings have unknown or mistyped keys: {bad}")
    try:
        return SolveSpec(**solve)
    except ConfigError as exc:
        raise DataError(f"checkpoint solver settings: {exc}") from exc


def _load_eval_inputs(args, which: str):
    """Checkpoint + windows + normalizer for ``eval`` and ``predict``."""
    config, params, extra = load_checkpoint(args.checkpoint)
    if args.command == "predict" and config.out_channels != 1:  # before --data is read
        raise ConfigError(
            f"predict writes one value per forecast row, but the checkpoint has "
            f"out_channels = {config.out_channels}; use eval for multi-channel models"
        )
    solve = _check_extra(extra, config.in_channels)
    values = D.load_values(args.data, config.in_channels)
    if values.shape[0] != config.num_nodes:
        raise DataError(
            f"checkpoint was trained on {config.num_nodes} nodes, data has {values.shape[0]}"
        )
    windows = D.make_windows(values, config.input_len, config.horizon, config.out_channels)
    windows = _stored_split(windows, extra, which)
    normalizer = D.Normalizer(
        mean=np.asarray(extra["normalizer"]["mean"]),
        std=np.asarray(extra["normalizer"]["std"]),
    )
    prepared = TR.prepare_split(windows, normalizer, config)
    return config, params, prepared, normalizer, solve


def run_training(run: RunConfig, out_dir: str) -> dict:
    """Execute a resolved run config end to end: split the windows chronologically,
    take each split through the checkpoint's plan as eval and predict do, and only
    then write; train, write the artifacts and return the metrics document."""
    run.validate()  # before anything is read or written
    if not run.values_path:
        raise ConfigError("values_path is not set (pass --data or set it in the config)")
    values = D.load_values(run.values_path, run.channels)
    config = run.model_config(values.shape[0])
    windows = D.make_windows(values, run.input_len, run.horizon, run.out_channels)
    cut = dict(zip(_SPLITS, D.chronological_split(windows, run.split_plan())))
    normalizer = D.fit_normalizer(values, D.train_range_end(cut["train"]))
    solve = run.solve_spec()
    extra = {
        "normalizer": {"mean": normalizer.mean.tolist(), "std": normalizer.std.tolist()},
        "solve": asdict(solve),
        "split_offsets": {k: [int(w.offsets[0]), int(w.offsets[-1]) + 1] for k, w in cut.items()},
        "drop": {"rate": run.drop_rate,
                 "seeds": {k: run.seed + 101 * i for i, k in enumerate(_SPLITS, 1)}},
    }
    basis = LyndonBasis(config.path_channels, config.sig_depth)
    splits = {k: _stored_split(windows, extra, k) for k in _SPLITS}
    prepared = {k: TR.prepare_split(w, normalizer, config, basis=basis) for k, w in splits.items()}

    # the one write point: an earlier run's outputs go, so none sits beside this run's
    os.makedirs(out_dir, exist_ok=True)
    for name in ("model.ckpt", "metrics.json", "history.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    # num_nodes resolved for exact reproduction, on a copy: ``run`` is the caller's
    save_config(os.path.join(out_dir, "config.resolved.cfg"),
                replace(run, num_nodes=config.num_nodes))

    params = ParamStore(config, seed=run.seed)
    history_path = os.path.join(out_dir, "history.csv")
    try:
        result = TR.fit(params, config, prepared["train"], prepared["val"],
                        run.train_config(), solve, normalizer)
    except GraphRDEError as exc:
        partial = getattr(exc, "history", None)
        if partial:
            TR.write_history(history_path, partial)
        raise
    TR.write_history(history_path, result.history)

    metrics = {
        k: TR.evaluate_prepared(params, config, solve, prep, normalizer, run.batch_size).to_dict()
        for k, prep in prepared.items()
    }
    test = splits["test"]
    metrics["ha_test"] = TR.compute_metrics(TR.historical_average(test), test.targets).to_dict()
    metrics.update(best_epoch=result.best_epoch, epochs_run=len(result.history),
                   stopped_early=result.stopped_early)
    extra["best_epoch"] = result.best_epoch
    save_checkpoint(os.path.join(out_dir, "model.ckpt"), params, extra=extra)
    atomic_write(os.path.join(out_dir, "metrics.json"), json.dumps(metrics, indent=2) + "\n")
    return metrics


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    values_path, info = D.synth(args.nodes, args.timesteps, args.seed, args.out)
    print(f"wrote {values_path}")
    print(f"nodes={info.nodes} timesteps={info.timesteps} amplitude={FMT % info.amplitude}")
    return 0


def cmd_logsig(args) -> int:
    if args.depth < 1:
        raise UsageError(f"--depth must be >= 1, got {args.depth}")
    if args.subpath < 1:
        raise UsageError(f"--subpath must be >= 1, got {args.subpath}")
    if args.input_len < 2:
        raise UsageError(f"--input-len must be >= 2, got {args.input_len}")
    if args.input_len - 1 < args.subpath:
        raise UsageError(f"--input-len {args.input_len} gives {args.input_len - 1} knot "
                         f"intervals, fewer than --subpath {args.subpath}")
    values = D.load_values(args.data, args.channels)
    if values.shape[1] < args.input_len:
        raise DataError(
            f"dataset has {values.shape[1]} timesteps; the first window needs {args.input_len}"
        )
    first = values[:, : args.input_len, :]
    series = RawSeries(values=first, mask=np.ones(first.shape[:2], dtype=bool))
    coords = window_logsig(fit_spline(series), args.subpath, args.depth)
    w, nodes, dim = coords.shape
    header = ["window", "node"] + [f"coord_{i}" for i in range(dim)]
    lines = [",".join(header)]
    for wi in range(w):
        for v in range(nodes):
            cells = [str(wi), str(v)] + [FMT % x for x in coords[wi, v]]
            lines.append(",".join(cells))
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: {w} windows x {nodes} nodes x {dim} coordinates")
    return 0


def cmd_train(args) -> int:
    overrides: dict = {}
    if args.data:
        overrides["values_path"] = args.data
    if args.variant:
        overrides["variant"] = _VARIANT_FLAG[args.variant]
    if args.drop_rate is not None:
        overrides["drop_rate"] = args.drop_rate
    run = load_config(args.config, overrides)
    metrics = run_training(run, args.out)
    print(json.dumps({"out_dir": args.out, "test_mae": metrics["test"]["mae"]}, indent=2))
    return 0


def cmd_eval(args) -> int:
    config, params, prepared, normalizer, solve = _load_eval_inputs(args, args.split)
    report = TR.evaluate_prepared(params, config, solve, prepared, normalizer)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_predict(args) -> int:
    config, params, prepared, normalizer, solve = _load_eval_inputs(args, args.split)
    preds = TR.predict_denormalized(params, config, solve, prepared, normalizer)[..., 0]
    atomic_write(args.out, _forecast_csv(prepared.offsets, preds))
    print(f"wrote {args.out}: {preds.size} forecasts")
    return 0


def _forecast_csv(offsets: np.ndarray, preds: np.ndarray) -> Iterator[str]:
    """The forecast CSV in chunks of whole windows, about
    ``FORECAST_CHUNK_ROWS`` rows each, so the text is never held whole."""
    yield "window,node,horizon,value\n"
    _, nodes, horizon = preds.shape
    step = max(1, FORECAST_CHUNK_ROWS // (nodes * horizon))
    for lo in range(0, len(preds), step):
        block = preds[lo : lo + step]
        # one (window, node, horizon, value) row per forecast, formatted in one call
        rows = np.empty(block.shape + (4,), dtype=object)
        rows[..., 0] = offsets[lo : lo + step, None, None]
        rows[..., 1] = np.arange(nodes)[:, None]
        rows[..., 2] = np.arange(horizon)
        rows[..., 3] = block
        yield ("%d,%d,%d," + FMT + "\n") * block.size % tuple(rows.ravel())


def cmd_verify(args) -> int:
    results = run_suites(args.suite)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="graphrde", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ring-diffusion dataset")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--timesteps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("logsig", help="dump log-signature coordinates of the first window")
    p.add_argument("--data", required=True, help="values CSV")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--depth", type=int, default=2, help="signature truncation depth")
    p.add_argument("--subpath", type=int, default=2, help="knot intervals per window")
    p.add_argument("--input-len", type=int, default=12, dest="input_len")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_logsig)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--data", help="override values_path")
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAG))
    p.add_argument("--drop-rate", type=float, default=None, dest="drop_rate")
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=cmd_train)

    splits = ("all", *_SPLITS)
    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=splits, default="all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write per-window forecasts as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=splits, default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run built-in correctness suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every op checks its output and raises NonFiniteError (exit 3), so numpy's
        # warnings are noise, or under -W error a traceback; head workers copy this context
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, ConfigError, OSError) as exc:  # only writes get here: reads map OSError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DimensionError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
