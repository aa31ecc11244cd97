"""Training, evaluation and gradient checking for the forecasting model.

The pipeline separates a one-off preprocessing step (spline fitting and
windowed log-signature extraction per forecasting window, on normalized
inputs) from the optimization loop, which only replays taped tensor ops.
Losses are computed in normalized space; reported metrics are always
de-normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Normalizer, WindowSet, atomic_write, make_windows
from .errors import ConfigError, ContractError, NonFiniteError, NumericError, TrainingAbort
from .logsig import LyndonBasis, window_logsig
from .model import (
    ModelConfig, ParamStore, augmented_rhs, graph_operator, init_state, readout,
)
from .paths import RawSeries, fit_spline
from .solver import SolveSpec, integrate
from .tensor import Tensor

MAPE_EPS = 1e-3  # |target| below this is excluded from MAPE
# (window, node) cells per front-end chunk in ``prepare_split``: enough to
# spread numpy's per-call cost, few enough to keep the chunk's spline and
# signature intermediates to a few MB at any dataset size.
CHUNK_CELLS = 1024
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
GRADCHECK_BATCH = 2  # windows in ``gradcheck``'s random batch
GRADCHECK_EPS = 1e-5  # its central-difference step


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-3
    patience: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ConfigError("epochs, batch_size and patience must be >= 1")
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):  # nan fails too
            raise ConfigError("lr must be finite and > 0, and weight_decay finite and >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MetricReport:
    """De-normalized forecast quality; MAPE is a fraction, not a percent.

    A MAPE with no target at or above ``MAPE_EPS`` is NaN, and ``to_dict``
    writes any NaN as ``None`` (JSON ``null``).
    """

    mae: float
    rmse: float
    mape: float
    per_horizon: dict[str, list[float]]

    def to_dict(self) -> dict:
        def clean(x: float) -> float | None:
            return None if math.isnan(x) else x

        return {
            "mae": clean(self.mae),
            "rmse": clean(self.rmse),
            "mape": clean(self.mape),
            "per_horizon": {k: [clean(x) for x in v] for k, v in self.per_horizon.items()},
        }


def compute_metrics(pred: np.ndarray, target: np.ndarray) -> MetricReport:
    """MAE / RMSE / masked MAPE overall and per horizon step.

    Arrays are (..., horizon, channels) in raw units.  Targets smaller
    than ``MAPE_EPS`` in magnitude are excluded from MAPE; with none
    left, MAPE is NaN (undefined), not 0.
    """
    if pred.shape != target.shape:
        raise ContractError(f"prediction shape {pred.shape} != target shape {target.shape}")
    err = pred - target

    def mask_mape(e: np.ndarray, y: np.ndarray) -> float:
        valid = np.abs(y) >= MAPE_EPS
        if not valid.any():
            return math.nan
        return float(np.mean(np.abs(e[valid]) / np.abs(y[valid])))

    horizon = pred.shape[-2]
    per: dict[str, list[float]] = {"mae": [], "rmse": [], "mape": []}
    for s in range(horizon):
        es, ys = err[..., s, :], target[..., s, :]
        per["mae"].append(float(np.mean(np.abs(es))))
        per["rmse"].append(float(np.sqrt(np.mean(es**2))))
        per["mape"].append(mask_mape(es, ys))
    return MetricReport(
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err**2))),
        mape=mask_mape(err, target),
        per_horizon=per,
    )


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute deviation over every prediction entry."""
    if pred.shape != target.shape:
        raise ContractError(f"prediction shape {pred.shape} != target shape {target.shape}")
    return T.mean_all(T.absolute(pred - target))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with coupled L2 weight decay (decay added to the gradient)."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        for name, p in self.params:
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient; run backward first")
            g = p.grad + self.weight_decay * p.data
            with np.errstate(over="ignore"):
                v = b2 * self.v[name] + (1 - b2) * g * g
            if not np.isfinite(v).all():  # it would zero every later update of p
                raise NonFiniteError(
                    f"Adam's second moment of {name!r} is not finite: "
                    "a gradient entry is not finite, or its square overflows"
                )
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = v
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Window preprocessing: splines -> windowed log-signatures
# ---------------------------------------------------------------------------


@dataclass
class PreparedSplit:
    """Constant model inputs for a set of forecasting windows."""

    f0: np.ndarray            # (count, nodes, channels) normalized first frames
    coords: np.ndarray        # (W, count, nodes, L) log-signature coordinates, window-major
    targets_norm: np.ndarray  # (count, nodes, horizon, out_channels)
    targets_raw: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.f0)


def prepare_split(
    windows: WindowSet,
    normalizer: Normalizer,
    config: ModelConfig,
    basis: LyndonBasis | None = None,
) -> PreparedSplit:
    """Normalize inputs, interpolate, and extract per-window log-signatures.

    Every (window, node) cell is checked once, then the front end runs
    over chunks of ``CHUNK_CELLS`` cells, which bounds its working memory.
    The normalized inputs are one C-contiguous array, so that a chunk of
    cells is a slice of it and not a copy; ``targets_raw`` and ``offsets``
    are the windows' own arrays.
    """
    if len(windows) == 0:
        raise ContractError("cannot prepare an empty window set")
    if basis is None:
        basis = LyndonBasis(config.path_channels, config.sig_depth)
    series = RawSeries(values=normalizer.apply(windows.inputs), mask=windows.masks)
    count, nodes = series.cell_shape
    coords = None
    for lo in range(0, count * nodes, CHUNK_CELLS):
        hi = min(lo + CHUNK_CELLS, count * nodes)
        chunk = window_logsig(
            fit_spline(series, slice(lo, hi)), config.subpath_len, config.sig_depth, basis=basis
        )
        if coords is None:
            coords = np.empty((len(chunk), count, nodes, len(basis)))
        coords.reshape(len(chunk), count * nodes, -1)[:, lo:hi] = chunk
    targets_norm = normalizer.apply(windows.targets, channels=config.out_channels)
    return PreparedSplit(
        f0=normalizer.apply(windows.inputs[:, :, 0, :]),
        coords=coords,
        targets_norm=targets_norm,
        targets_raw=windows.targets,
        offsets=windows.offsets,
    )


def forward_prepared(
    params: ParamStore,
    config: ModelConfig,
    solve: SolveSpec,
    prepared: PreparedSplit,
    idx: np.ndarray,
) -> Tensor:
    """Predictions (batch, nodes, horizon, out_channels) in normalized space."""
    state = init_state(T.constant(prepared.f0[idx]), params, config)
    prop = graph_operator(params, config)
    final = integrate(
        state,
        prepared.coords[:, idx],
        solve,
        # looks ``augmented_rhs`` up by name at each call, so a wrapper
        # rebound over the module attribute sees every evaluation
        lambda s, ell, k, c: augmented_rhs(s, ell, prop, params, config, k, c),
    )
    return readout(final, params, config)


def batch_loss(
    params: ParamStore,
    config: ModelConfig,
    solve: SolveSpec,
    prepared: PreparedSplit,
    idx: np.ndarray,
) -> Tensor:
    """L1 training loss of windows ``idx``, in normalized space."""
    pred = forward_prepared(params, config, solve, prepared, idx)
    return l1_loss(pred, T.constant(prepared.targets_norm[idx]))


def train_step(
    params: ParamStore,
    adam: Adam,
    config: ModelConfig,
    solve: SolveSpec,
    prepared: PreparedSplit,
    idx: np.ndarray,
) -> float:
    """One optimizer step on windows ``idx``; returns the batch loss.

    A forward that raises leaves no tape entries and the parameters and
    ``adam`` untouched.
    """
    params.zero_grad()
    with T.discard_on_error():
        loss = batch_loss(params, config, solve, prepared, idx)
    T.backward(loss)
    adam.step()
    return loss.item()


def predict_denormalized(
    params: ParamStore,
    config: ModelConfig,
    solve: SolveSpec,
    prepared: PreparedSplit,
    normalizer: Normalizer,
    batch_size: int = 64,
) -> np.ndarray:
    """Raw-unit predictions for every window, computed without taping."""
    outs = []
    with T.no_grad():
        for start in range(0, len(prepared), batch_size):
            idx = np.arange(start, min(start + batch_size, len(prepared)))
            pred = forward_prepared(params, config, solve, prepared, idx)
            outs.append(normalizer.invert(pred.data))
    return np.concatenate(outs, axis=0)


def evaluate_prepared(
    params: ParamStore,
    config: ModelConfig,
    solve: SolveSpec,
    prepared: PreparedSplit,
    normalizer: Normalizer,
    batch_size: int = 64,
) -> MetricReport:
    preds = predict_denormalized(params, config, solve, prepared, normalizer, batch_size)
    return compute_metrics(preds, prepared.targets_raw)


def historical_average(windows: WindowSet) -> np.ndarray:
    """Baseline: mean of each node's observed input values, every horizon.

    Returns (count, nodes, horizon, out_channels) raw-unit predictions.
    """
    m = windows.targets.shape[-1]
    mask = windows.masks[:, :, :, None]
    sums = (windows.inputs[:, :, :, :m] * mask).sum(axis=2)
    counts = mask.sum(axis=2)
    means = sums / counts
    return np.repeat(means[:, :, None, :], windows.horizon, axis=2)


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_mae)
    best_epoch: int
    best_val_mae: float
    stopped_early: bool = False


def fit(
    params: ParamStore,
    config: ModelConfig,
    train_prep: PreparedSplit,
    val_prep: PreparedSplit,
    train_cfg: TrainConfig,
    solve: SolveSpec,
    normalizer: Normalizer,
) -> FitResult:
    """Minibatch L1 training with early stopping on validation MAE.

    Shuffling is seeded per epoch with ``seed + epoch``; the parameters
    left in ``params`` afterwards are the best-validation snapshot.  A
    non-finite loss or diverging state aborts with the history so far
    and the last healthy snapshot attached.
    """
    adam = Adam(params.tracked(), train_cfg.lr, train_cfg.weight_decay)
    n = len(train_prep)
    history: list[tuple[int, float, float]] = []
    best_val = math.inf
    best_arrays = params.state_arrays()
    best_epoch = -1
    since_best = 0
    stopped_early = False
    try:
        for epoch in range(train_cfg.epochs):
            order = np.random.default_rng(train_cfg.seed + epoch).permutation(n)
            total = 0.0
            for start in range(0, n, train_cfg.batch_size):
                idx = order[start : start + train_cfg.batch_size]
                total += train_step(params, adam, config, solve, train_prep, idx) * len(idx)
            train_loss = total / n
            val_mae = evaluate_prepared(
                params, config, solve, val_prep, normalizer, train_cfg.batch_size
            ).mae
            history.append((epoch, train_loss, val_mae))
            if val_mae < best_val:
                best_val = val_mae
                best_arrays = params.state_arrays()
                best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= train_cfg.patience:
                    stopped_early = True
                    break
    except NumericError as exc:
        raise TrainingAbort(
            f"training aborted at epoch {len(history)}: {exc}",
            history=history,
            best_params=best_arrays if best_epoch >= 0 else None,
        ) from exc
    params.load_arrays(best_arrays)
    return FitResult(
        history=history, best_epoch=best_epoch, best_val_mae=best_val, stopped_early=stopped_early
    )


def write_history(path: str, history: list[tuple[int, float, float]]) -> None:
    lines = ["epoch,train_loss,val_mae"]
    for epoch, train_loss, val_mae in history:
        lines.append(f"{epoch},{train_loss:.17g},{val_mae:.17g}")
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    entries_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < 1e-4


def gradcheck(config: ModelConfig, solve: SolveSpec, seed: int = 0) -> GradCheckReport:
    """Compare every parameter gradient against central differences.

    Builds a small random batch through the real spline/log-signature
    path, takes the L1 training loss, and checks each parameter entry:
    relative error |analytic - numeric| / max(|analytic|, |numeric|,
    1e-6) must stay below 1e-4 in float64.
    """
    rng = np.random.default_rng(seed)
    v, d = config.num_nodes, config.in_channels
    values = rng.normal(size=(v, config.input_len + config.horizon + GRADCHECK_BATCH - 1, d))
    windows = make_windows(values, config.input_len, config.horizon, config.out_channels)
    normalizer = Normalizer(mean=np.zeros(d), std=np.ones(d))
    prepared = prepare_split(windows, normalizer, config)
    params = ParamStore(config, seed=seed + 1)
    idx = np.arange(min(GRADCHECK_BATCH, len(prepared)))

    params.zero_grad()
    T.backward(batch_loss(params, config, solve, prepared, idx))
    analytic = {name: p.grad.copy() for name, p in params.tracked()}

    def loss_value() -> float:
        with T.no_grad():
            return batch_loss(params, config, solve, prepared, idx).item()

    worst, worst_name, checked = 0.0, "", 0
    for name, p in params.tracked():
        flat = p.data.reshape(-1)
        gflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            up = loss_value()
            flat[i] = orig - GRADCHECK_EPS
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2.0 * GRADCHECK_EPS)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
            checked += 1
            if rel > worst:
                worst, worst_name = rel, name
    return GradCheckReport(max_rel_err=worst, worst_param=worst_name, entries_checked=checked)
