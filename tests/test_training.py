"""Loss, optimizer, metrics, baseline, and the fit loop."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrde import data as D
from graphrde import model as M
from graphrde import tensor as T
from graphrde import training as TR
from graphrde.errors import ConfigError, ContractError, TrainingAbort
from graphrde.model import ModelConfig, ParamStore
from graphrde.solver import SolveSpec
from graphrde.tensor import Tensor

# ---------------------------------------------------------------------------
# Loss and metrics
# ---------------------------------------------------------------------------


def test_metric_worked_example():
    # targets [2, 4], predictions [1, 5]: both errors are 1, so MAE = 1,
    # RMSE = 1, and MAPE = (1/2 + 1/4) / 2 = 0.375.
    target = np.array([2.0, 4.0]).reshape(1, 1, 2, 1)
    pred = np.array([1.0, 5.0]).reshape(1, 1, 2, 1)
    rep = TR.compute_metrics(pred, target)
    assert rep.mae == pytest.approx(1.0)
    assert rep.rmse == pytest.approx(1.0)
    assert rep.mape == pytest.approx(0.375)
    assert rep.per_horizon["mae"] == [1.0, 1.0]
    assert rep.per_horizon["mape"] == [0.5, 0.25]


def test_metrics_hand_oracle():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(3, 2, 4, 1)) * 5
    pred = target + rng.normal(size=target.shape)
    rep = TR.compute_metrics(pred, target)
    err = pred - target
    assert rep.mae == pytest.approx(np.abs(err).mean())
    assert rep.rmse == pytest.approx(np.sqrt((err**2).mean()))
    valid = np.abs(target) >= TR.MAPE_EPS
    assert rep.mape == pytest.approx((np.abs(err)[valid] / np.abs(target)[valid]).mean())
    for s in range(4):
        assert rep.per_horizon["rmse"][s] == pytest.approx(
            np.sqrt((err[:, :, s, :] ** 2).mean())
        )


def test_mape_masks_near_zero_targets():
    target = np.array([0.0, 1e-9, 2.0]).reshape(1, 1, 3, 1)
    pred = target + 1.0
    rep = TR.compute_metrics(pred, target)
    assert rep.mape == pytest.approx(0.5)  # only the 2.0 entry counts
    all_zero = TR.compute_metrics(pred * 0, target * 0)
    assert np.isnan(all_zero.mape)  # no valid entries at all: undefined, not perfect


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_rmse_dominates_mae(seed):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(2, 3, 4, 1))
    pred = rng.normal(size=target.shape)
    rep = TR.compute_metrics(pred, target)
    assert rep.rmse >= rep.mae - 1e-12


def test_l1_loss_value_and_gradient():
    pred = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
    target = T.constant(np.array([[0.0, 0.0], [4.0, 0.5]]))
    loss = TR.l1_loss(pred, target)
    assert loss.item() == pytest.approx((1 + 2 + 1 + 0) / 4)
    T.backward(loss)
    # d/dpred mean|pred - target| = sign / n; the tied entry gets sign 0
    assert np.allclose(pred.grad, np.array([[1, -1], [-1, 0]]) / 4.0)
    with pytest.raises(ContractError, match="shape"):
        TR.l1_loss(pred, T.constant(np.zeros((3, 2))))
    with pytest.raises(ContractError, match="shape"):
        TR.compute_metrics(np.zeros((2, 1)), np.zeros((1, 2)))


def test_report_serializes_to_plain_dict():
    rep = TR.compute_metrics(np.ones((1, 1, 2, 1)), np.full((1, 1, 2, 1), 2.0))
    d = rep.to_dict()
    assert set(d) == {"mae", "rmse", "mape", "per_horizon"}
    assert d["mae"] == 1.0 and len(d["per_horizon"]["mae"]) == 2
    import json

    json.dumps(d)  # must be JSON-clean


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_matches_scalar_hand_computation():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = TR.Adam([("p", p)], lr=0.1, weight_decay=0.0)
    theta, m, v = 1.0, 0.0, 0.0
    for t in range(1, 4):
        g = 2.0 * theta  # pretend loss theta^2
        p.grad = np.array([[2.0 * p.data[0, 0]]])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        theta -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p.data[0, 0] == pytest.approx(theta, rel=1e-12)


def test_adam_couples_weight_decay_into_gradient():
    p = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = TR.Adam([("p", p)], lr=0.5, weight_decay=0.1)
    p.grad = np.zeros((1, 1))
    opt.step()
    # effective grad = 0 + 0.1 * 2 = 0.2; first step moves by lr * g/|g| ~ lr
    g = 0.2
    expected = 2.0 - 0.5 * g / (np.sqrt(g * g) + 1e-8)
    assert p.data[0, 0] == pytest.approx(expected, rel=1e-9)


def test_adam_requires_gradients():
    p = Tensor(np.ones((1, 1)), requires_grad=True)
    opt = TR.Adam([("p", p)], lr=0.1)
    with pytest.raises(ContractError, match="no gradient"):
        opt.step()


def test_train_config_validation():
    TR.TrainConfig()  # defaults are fine
    with pytest.raises(ConfigError):
        TR.TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TR.TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TR.TrainConfig(weight_decay=-1e-3)
    with pytest.raises(ConfigError):
        TR.TrainConfig(patience=0)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def test_historical_average_is_masked_input_mean():
    values = np.arange(2 * 10 * 1, dtype=float).reshape(2, 10, 1)
    windows = D.make_windows(values, input_len=4, horizon=3)
    preds = TR.historical_average(windows)
    assert preds.shape == (4, 2, 3, 1)
    assert np.allclose(preds[0, 0], values[0, :4, 0].mean())  # constant over horizon
    assert np.allclose(preds[2, 1], values[1, 2:6, 0].mean())
    # hidden observations drop out of the mean
    windows.masks[0, 0, :] = [True, False, False, True]
    preds = TR.historical_average(windows)
    assert np.allclose(preds[0, 0], (values[0, 0, 0] + values[0, 3, 0]) / 2)


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


def _tiny_problem(seed=0):
    values, _ = D.synth_series(nodes=4, timesteps=60, seed=seed)
    windows = D.make_windows(values, input_len=6, horizon=2)
    train, val, test = D.chronological_split(windows)
    norm = D.fit_normalizer(values, D.train_range_end(train))
    cfg = ModelConfig(
        num_nodes=4, input_len=6, horizon=2, dim_h=8, dim_z=8, sig_depth=2, subpath_len=2
    )
    train_prep = TR.prepare_split(train.take(slice(0, 16)), norm, cfg)
    val_prep = TR.prepare_split(val.take(slice(0, 8)), norm, cfg)
    return cfg, train_prep, val_prep, norm


@pytest.mark.parametrize("method,steps,stages", [("euler", 1, 1), ("rk4", 2, 4)])
def test_forward_builds_one_graph_operator(monkeypatch, method, steps, stages):
    cfg, train_prep, _, _ = _tiny_problem()
    params = ParamStore(cfg, seed=1)
    calls = {"adjacency": 0, "rhs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(M, "adaptive_adjacency", counted("adjacency", M.adaptive_adjacency))
    monkeypatch.setattr(TR, "augmented_rhs", counted("rhs", TR.augmented_rhs))
    for forwards in (1, 2):
        TR.forward_prepared(params, cfg, SolveSpec(method, steps), train_prep, np.arange(4))
        assert calls == {"adjacency": forwards, "rhs": forwards * 3 * steps * stages}
    T.clear_tape()


def test_fit_reduces_training_loss_and_is_deterministic():
    cfg, train_prep, val_prep, norm = _tiny_problem()
    sspec = SolveSpec(method="euler", steps_per_window=1)
    tcfg = TR.TrainConfig(epochs=5, batch_size=8, lr=1e-2, weight_decay=0.0, patience=10, seed=0)

    params1 = ParamStore(cfg, seed=0)
    res1 = TR.fit(params1, cfg, train_prep, val_prep, tcfg, sspec, norm)
    params2 = ParamStore(cfg, seed=0)
    res2 = TR.fit(params2, cfg, train_prep, val_prep, tcfg, sspec, norm)

    assert res1.history == res2.history  # bitwise-identical floats
    for name, p in params1.tracked():
        assert np.array_equal(p.data, dict(params2.tracked())[name].data)
    losses = [row[1] for row in res1.history]
    assert losses[-1] < losses[0] * 0.9
    assert [row[0] for row in res1.history] == list(range(len(res1.history)))


def test_fit_restores_best_validation_snapshot():
    cfg, train_prep, val_prep, norm = _tiny_problem()
    sspec = SolveSpec(method="euler", steps_per_window=1)
    tcfg = TR.TrainConfig(epochs=6, batch_size=8, lr=2e-2, weight_decay=0.0, patience=10, seed=0)
    params = ParamStore(cfg, seed=0)
    res = TR.fit(params, cfg, train_prep, val_prep, tcfg, sspec, norm)
    val_maes = [row[2] for row in res.history]
    assert res.best_val_mae == min(val_maes)
    assert res.best_epoch == val_maes.index(min(val_maes))
    # the returned parameters reproduce exactly the best recorded val MAE
    rep = TR.evaluate_prepared(params, cfg, sspec, val_prep, norm, tcfg.batch_size)
    assert rep.mae == pytest.approx(res.best_val_mae, rel=0, abs=0)


def test_early_stopping_fires_at_first_stall():
    cfg, train_prep, val_prep, norm = _tiny_problem(seed=3)
    sspec = SolveSpec(method="euler", steps_per_window=1)
    base = dict(epochs=12, batch_size=8, lr=3e-2, weight_decay=0.0, seed=1)

    full = TR.fit(
        ParamStore(cfg, seed=1), cfg, train_prep, val_prep,
        TR.TrainConfig(patience=12, **base), sspec, norm,
    )
    val = [row[2] for row in full.history]
    first_stall = next((e for e in range(1, len(val)) if val[e] >= min(val[:e])), None)
    if first_stall is None:
        pytest.skip("validation improved every epoch; nothing to stop on")

    stopped = TR.fit(
        ParamStore(cfg, seed=1), cfg, train_prep, val_prep,
        TR.TrainConfig(patience=1, **base), sspec, norm,
    )
    assert stopped.stopped_early
    assert len(stopped.history) == first_stall + 1
    assert stopped.history == full.history[: first_stall + 1]


def test_training_abort_carries_history():
    cfg, train_prep, val_prep, norm = _tiny_problem()
    train_prep.f0[0, 0, 0] = np.inf  # poisoned input surfaces as a numeric error
    sspec = SolveSpec(method="euler", steps_per_window=1)
    tcfg = TR.TrainConfig(epochs=3, batch_size=64, lr=1e-2, patience=5, seed=0)
    with pytest.raises(TrainingAbort, match="aborted at epoch 0") as exc_info:
        TR.fit(ParamStore(cfg, seed=0), cfg, train_prep, val_prep, tcfg, sspec, norm)
    assert exc_info.value.history == []
    assert exc_info.value.best_params is None
    assert T.tape_size() == 0  # the failed forward must not leak taped ops


def test_prepare_split_shapes_and_normalization():
    values, _ = D.synth_series(nodes=3, timesteps=40, seed=2)
    windows = D.make_windows(values, input_len=6, horizon=2)
    norm = D.fit_normalizer(values, 30)
    cfg = ModelConfig(num_nodes=3, input_len=6, horizon=2, dim_h=4, dim_z=4, subpath_len=2)
    prep = TR.prepare_split(windows.take(slice(0, 5)), norm, cfg)
    assert prep.f0.shape == (5, 3, 1)
    # input_len 6 -> 5 knot intervals -> ceil(5/2) = 3 windows, short final
    assert prep.coords.shape == (3, 5, 3, cfg.logsig_dim)
    assert np.array_equal(prep.boundaries, [0, 2, 4, 5])
    assert np.allclose(prep.f0, norm.apply(windows.inputs[:5, :, 0, :]))
    assert np.allclose(prep.targets_norm, norm.apply(windows.targets[:5]))
    assert np.array_equal(prep.targets_raw, windows.targets[:5])
    with pytest.raises(ContractError, match="empty"):
        TR.prepare_split(windows.take(slice(0, 0)), norm, cfg)


def test_predict_denormalized_inverts_the_normalizer():
    cfg, train_prep, _, norm = _tiny_problem()
    params = ParamStore(cfg, seed=4)
    sspec = SolveSpec(method="euler", steps_per_window=1)
    idx = np.arange(len(train_prep))
    with T.no_grad():
        raw = TR.forward_prepared(params, cfg, sspec, train_prep, idx).data
    preds = TR.predict_denormalized(params, cfg, sspec, train_prep, norm, batch_size=5)
    assert preds.shape == raw.shape
    assert np.allclose(preds, norm.invert(raw), atol=1e-12)


def test_history_file_round_trips(tmp_path):
    path = str(tmp_path / "history.csv")
    history = [(0, 1.0 / 3.0, 2.0 / 7.0), (1, 0.25, np.pi)]
    TR.write_history(path, history)
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_mae"
    for row, line in zip(history, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row[0]
        assert float(cells[1]) == row[1]  # 17 significant digits round-trip
        assert float(cells[2]) == row[2]


def test_gradcheck_report_fields():
    cfg = ModelConfig(
        num_nodes=3, input_len=5, horizon=2, dim_h=3, dim_z=3,
        sig_depth=2, subpath_len=2, variant="temporal_only",
    )
    rep = TR.gradcheck(cfg, SolveSpec(method="euler", steps_per_window=1), seed=0)
    assert rep.entries_checked > 0
    assert rep.worst_param != ""
    assert rep.passed and rep.max_rel_err < 1e-4
