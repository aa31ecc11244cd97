"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  The synthetic-forecasting criteria share
one cached set of training runs via the session fixture below.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from graphrde import data as D
from graphrde import training as TR
from graphrde.cli import run_training
from graphrde.config import load_config, parse_config_text
from graphrde.logsig import lyndon_dimension, sig_polyline
from graphrde.verification import suite_grad, suite_logsig, suite_solver
from oracles import enumerate_lyndon_words, quadrature_signature_entry

pytestmark = pytest.mark.slow


def _report(criterion: int, label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {criterion} ({label}): {verdict} — {detail}")
    assert passed, f"criterion {criterion} ({label}): {detail}"


def _preset_path() -> str:
    import graphrde

    return os.path.join(os.path.dirname(graphrde.__file__), "presets", "synth.cfg")


@pytest.fixture(scope="session")
def synth_task(tmp_path_factory):
    """Shared synthetic dataset plus a caching runner for training jobs."""
    root = tmp_path_factory.mktemp("acceptance")
    values_path, info = D.synth(8, 600, seed=1, out_dir=str(root / "data"))
    cache: dict[str, dict] = {}

    def run(tag: str, **overrides) -> dict:
        if tag not in cache:
            merged = {"values_path": values_path, **overrides}
            config = load_config(_preset_path(), merged)
            metrics = run_training(config, str(root / tag))
            metrics["out_dir"] = str(root / tag)
            cache[tag] = metrics
        return cache[tag]

    return {"run": run, "info": info, "root": root}


# ---------------------------------------------------------------------------
# 1. Log-signature algebra
# ---------------------------------------------------------------------------


def test_criterion_1_logsig_algebra():
    results = suite_logsig()

    # cross-checks outside the suite: the oracle's own Lyndon enumeration,
    # and a quadrature of the parabola's level-2 entries (2/3, 1/3)
    sizes_ok = all(
        len(enumerate_lyndon_words(d, depth)) == lyndon_dimension(d, depth)
        for d, depth in ((2, 2), (2, 3), (3, 2), (2, 4))
    )
    t = np.linspace(0.0, 1.0, 4001)
    samples = np.stack([t, t**2], axis=1)
    sig = sig_polyline(samples, depth=2)
    q12 = quadrature_signature_entry(samples, (0, 1))
    q21 = quadrature_signature_entry(samples, (1, 0))
    quad_err = max(abs(sig.levels[1][0, 1] - q12), abs(sig.levels[1][1, 0] - q21))
    quad_exact = max(abs(q12 - 2.0 / 3.0), abs(q21 - 1.0 / 3.0))

    failed = [r.name for r in results if not r.passed]
    ok = not failed and sizes_ok and quad_err < 1e-6 and quad_exact < 1e-6
    _report(
        1,
        "log-signature algebra",
        ok,
        f"{len(results) - len(failed)}/{len(results)} suite checks pass (failed: {failed}); "
        f"oracle basis sizes {'agree' if sizes_ok else 'DISAGREE'}; "
        f"quadrature err {quad_err:.1e}, vs exact {quad_exact:.1e} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# 2. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    results = suite_grad()
    worst = max(float(r.detail.split("max rel err ")[1].split(" ")[0]) for r in results)
    ok = all(r.passed for r in results)
    _report(
        2,
        "gradcheck all variants x both solvers",
        ok,
        f"{len(results)} configurations, max rel err {worst:.2e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# 3. Solver convergence orders
# ---------------------------------------------------------------------------


def test_criterion_3_solver_orders():
    results = suite_solver()
    ok = all(r.passed for r in results)
    _report(3, "solver convergence orders", ok, "; ".join(f"{r.name}: {r.detail}" for r in results))


# ---------------------------------------------------------------------------
# 4-6, 9. Synthetic forecasting family (shared runs)
# ---------------------------------------------------------------------------


def test_criterion_4_synthetic_forecasting(synth_task):
    metrics = synth_task["run"]("full")
    amplitude = synth_task["info"].amplitude
    train_mae = metrics["train"]["mae"]
    test_mae = metrics["test"]["mae"]
    ha_mae = metrics["ha_test"]["mae"]
    ok = train_mae < 0.05 * amplitude and test_mae <= 0.8 * ha_mae
    _report(
        4,
        "synthetic forecasting",
        ok,
        f"train MAE {train_mae:.4f} < {0.05 * amplitude:.4f} (5% of amplitude "
        f"{amplitude:.4f}); test MAE {test_mae:.4f} vs HA {ha_mae:.4f} "
        f"({100 * (1 - test_mae / ha_mae):.1f}% better, need ≥20%)",
    )


def test_criterion_5_irregular_robustness(synth_task):
    full = synth_task["run"]("full")
    dropped = synth_task["run"]("drop", drop_rate=0.3)
    ok = dropped["test"]["mae"] <= 2.0 * full["test"]["mae"]
    _report(
        5,
        "irregular robustness at 30% drop",
        ok,
        f"dropped test MAE {dropped['test']['mae']:.4f} <= "
        f"2 x full-data {full['test']['mae']:.4f} = {2 * full['test']['mae']:.4f}",
    )


def test_criterion_6_ablation_ordering(synth_task):
    full = synth_task["run"]("full")["test"]["mae"]
    spatial = synth_task["run"]("spatial", variant="spatial_only")["test"]["mae"]
    temporal = synth_task["run"]("temporal", variant="temporal_only")["test"]["mae"]
    ordered = full <= spatial <= temporal
    detail = f"test MAE full {full:.4f} / spatial_only {spatial:.4f} / temporal_only {temporal:.4f}"
    if ordered:
        _report(6, "ablation ordering", True, detail + " — ordering holds")
    else:
        # The ordering is an empirical claim, flagged non-guaranteed at this
        # scale: completion is the gate, the ordering is reported either way.
        print(f"criterion 6 (ablation ordering): REPORT — {detail} — ordering violated "
              f"at this seed; all variants completed")
        assert np.isfinite([full, spatial, temporal]).all()


def test_criterion_9_determinism(synth_task):
    first = synth_task["run"]("full")
    rerun = synth_task["run"]("full_rerun")  # identical config, fresh directory
    a = Path(first["out_dir"], "history.csv").read_bytes()
    b = Path(rerun["out_dir"], "history.csv").read_bytes()
    ok = a == b and len(a) > 0
    _report(
        9,
        "bit-for-bit determinism",
        ok,
        f"history CSV identical across reruns ({len(a)} bytes, "
        f"{first['epochs_run']} epochs)",
    )


# sha256 of model.ckpt, history.csv and metrics.json of two cached runs: a
# change to training's arithmetic, or to how a file is formatted, moves them
_SYNTH_SHA256 = {
    "full": ({}, (
        "b0e3fde7a13747ded9ba9b9188cda77a332f6a8fb2e676b71afcfed04aa19866",
        "b92bb48a0b0fc32d11f8dedbe6191d54f799a68fff062bb59445077417659864",
        "06333ab76472f4bf53e6b2217aff6bedbcf6b873e4d100acb6fb129940851f8d",
    )),
    "drop": ({"drop_rate": 0.3}, (
        "62d0b177e17e9051803d511cfac66c983ac84be09e0f715a33fc6307338f98f2",
        "c3f8b34b3a4e5442615f100e8ed60b1957dc716567a8317bde43030244feb131",
        "b36193cc27872b0a650cc9cbb0d787d93820384ec27123f249128368566551f6",
    )),
}


@pytest.mark.parametrize("tag", sorted(_SYNTH_SHA256))
def test_synth_runs_write_the_frozen_bytes(synth_task, tag):
    overrides, digests = _SYNTH_SHA256[tag]
    out = Path(synth_task["run"](tag, **overrides)["out_dir"])
    for name, digest in zip(("model.ckpt", "history.csv", "metrics.json"), digests):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# 7. Metric arithmetic
# ---------------------------------------------------------------------------


def test_criterion_7_metric_examples():
    target = np.array([2.0, 4.0]).reshape(1, 1, 2, 1)
    pred = np.array([1.0, 5.0]).reshape(1, 1, 2, 1)
    rep = TR.compute_metrics(pred, target)
    example_ok = (
        abs(rep.mae - 1.0) < 1e-12
        and abs(rep.rmse - 1.0) < 1e-12
        and abs(rep.mape - 0.375) < 1e-12
    )
    perfect = TR.compute_metrics(target, target)
    perfect_ok = perfect.mae == 0.0 and perfect.rmse == 0.0 and perfect.mape == 0.0
    _report(
        7,
        "metric arithmetic",
        example_ok and perfect_ok,
        f"y=[2,4], yhat=[1,5] -> MAE {rep.mae}, RMSE {rep.rmse}, MAPE {rep.mape}; "
        f"perfect prediction -> all zero",
    )


# ---------------------------------------------------------------------------
# 8. Full-scale benchmark documented, not reproduced
# ---------------------------------------------------------------------------


def test_criterion_8_fullscale_preset_documented():
    import graphrde

    preset = os.path.join(os.path.dirname(graphrde.__file__), "presets", "pemsd4.cfg")
    overrides = parse_config_text(Path(preset).read_text())
    expected = {
        "num_layers": 2,
        "embed_dim": 8,
        "sig_depth": 2,
        "subpath_len": 2,
        "dim_h": 64,
        "dim_z": 64,
        "lr": 1e-3,
        "weight_decay": 1e-3,
    }
    ok = all(overrides.get(k) == v for k, v in expected.items())
    _report(
        8,
        "full-scale preset documented",
        ok,
        "PeMSD4 preset ships K=2, C=8, D=2, P=2, hidden 64, lr 1e-3, wd 1e-3; "
        "published full-scale benchmark numbers are documentation only and "
        "deliberately not reproduced by this suite",
    )
