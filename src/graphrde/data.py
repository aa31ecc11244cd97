"""Dataset ingestion, windowing, splits, irregular masking and synthesis.

The on-disk format is a values CSV, numbers printed with 17 significant
digits so float64 round-trips exactly: one row per timestep, columns are
channel-blocked node groups (column index = channel * nodes + node), and
an optional one-line header.

Splits operate on forecasting windows, not raw timesteps; a fractional
ratio boundary falling inside a window assigns that window to the
earlier split.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

FMT = "%.17g"


@dataclass
class WindowSet:
    """Sliding forecast windows over a series.

    ``inputs``: (count, nodes, input_len, channels) raw values;
    ``masks``: (count, nodes, input_len) observation flags;
    ``targets``: (count, nodes, horizon, out_channels);
    ``offsets``: (count,) start timestep of each window's input span.
    """

    inputs: np.ndarray
    masks: np.ndarray
    targets: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.offsets)
        if not (len(self.inputs) == len(self.masks) == len(self.targets) == n):
            raise DataError("window arrays disagree on the number of windows")
        if n > 0 and np.any(np.diff(self.offsets) <= 0):
            raise DataError("windows must be strictly chronological")

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def input_len(self) -> int:
        return self.inputs.shape[2]

    @property
    def horizon(self) -> int:
        return self.targets.shape[2]

    def take(self, sl) -> "WindowSet":
        return WindowSet(self.inputs[sl], self.masks[sl], self.targets[sl], self.offsets[sl])


@dataclass
class SplitPlan:
    """How to carve windows into train/val/test (optionally per fold)."""

    kind: str = "chronological"
    ratios: tuple[int, int, int] = (6, 2, 2)
    folds: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("chronological", "rolling_cv", "blocked_cv"):
            raise ConfigError(f"unknown split kind {self.kind!r}")
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise ConfigError(f"ratios must be three positive integers, got {self.ratios}")
        if self.kind != "chronological" and self.folds < 2:
            raise ConfigError(f"cross-validation needs folds >= 2, got {self.folds}")


@dataclass
class Normalizer:
    """Per-channel z-score transform fitted on the training range only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray, channels: int | None = None) -> np.ndarray:
        c = x.shape[-1] if channels is None else channels
        return (x - self.mean[:c]) / self.std[:c]

    def invert(self, x: np.ndarray) -> np.ndarray:
        c = x.shape[-1]
        return x * self.std[:c] + self.mean[:c]


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


def atomic_write(path: str, content: str | bytes | Iterable[str | bytes]) -> None:
    """Write ``content``, one string or an iterable of chunks, to a sibling
    temp file, then rename it over ``path``, so a crash mid-write never
    leaves a truncated file; if a chunk or a write raises, the temp file is
    removed, ``path`` keeps its old bytes and an ``OSError`` names ``path``."""
    tmp = f"{path}.tmp"
    if isinstance(content, (str, bytes)):
        content = [content]
    try:
        with open(tmp, "wb") as fh:
            for chunk in content:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
        raise


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _read_csv_rows(path: str) -> tuple[list[list[str]], int]:
    """Rows as string cells, skipping a first row with no numeric cell as a
    header; a first row that mixes numbers and text is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")
    rows = [ln.split(",") for ln in lines]
    numeric = [_is_number(cell) for cell in rows[0]]
    if all(numeric):
        return rows, 0
    if any(numeric):
        raise DataError(f"{path}: row 1 mixes numeric and non-numeric cells")
    if len(rows) == 1:
        raise DataError(f"{path} has a header but no data rows")
    return rows[1:], 1


def load_values(path: str, channels: int = 1) -> np.ndarray:
    """Read a values CSV into a (nodes, timesteps, channels) array."""
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    rows, header = _read_csv_rows(path)
    width = len(rows[0])
    out = np.empty((len(rows), width))
    for i, cells in enumerate(rows):
        row_no = i + header + 1
        if len(cells) != width:
            raise DataError(f"{path}: row {row_no} has {len(cells)} cells, expected {width}")
        try:
            out[i] = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no} has a non-numeric cell: {exc}") from exc
    if not np.isfinite(out).all():
        bad = int(np.argwhere(~np.isfinite(out).all(axis=1))[0][0]) + header + 1
        raise DataError(f"{path}: row {bad} contains a non-finite value")
    if width % channels != 0:
        raise DataError(f"{path}: {width} columns not divisible by {channels} channels")
    nodes = width // channels
    # column index = channel * nodes + node
    return out.reshape(len(rows), channels, nodes).transpose(2, 0, 1)


def save_values(path: str, values: np.ndarray) -> None:
    """Write a (nodes, timesteps, channels) array as a canonical values CSV."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise DataError(f"values must be (nodes, timesteps, channels), got {values.shape}")
    nodes, steps, channels = values.shape
    flat = values.transpose(1, 2, 0).reshape(steps, channels * nodes)
    lines = [",".join(FMT % x for x in row) for row in flat]
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Windows and splits
# ---------------------------------------------------------------------------


def make_windows(
    values: np.ndarray, input_len: int = 12, horizon: int = 12, out_channels: int = 1
) -> WindowSet:
    """Every chronological (input, target) pair at unit stride."""
    values = np.asarray(values, dtype=np.float64)
    nodes, steps, channels = values.shape
    if out_channels > channels:
        raise ConfigError(f"out_channels {out_channels} exceeds data channels {channels}")
    count = steps - input_len - horizon + 1
    if count < 1:
        raise DataError(
            f"series of {steps} timesteps is too short for input {input_len} + horizon {horizon}"
        )
    inputs = np.stack([values[:, o : o + input_len, :] for o in range(count)])
    targets = np.stack(
        [values[:, o + input_len : o + input_len + horizon, :out_channels] for o in range(count)]
    )
    masks = np.ones((count, nodes, input_len), dtype=bool)
    return WindowSet(inputs=inputs, masks=masks, targets=targets, offsets=np.arange(count))


def _cut(count: int, num: int, den: int) -> int:
    """Window index of a ratio boundary; fractional boundaries round up,
    assigning the straddling window to the earlier split."""
    return math.ceil(count * num / den)


def chronological_split(windows: WindowSet, ratios=(6, 2, 2)) -> tuple[WindowSet, WindowSet, WindowSet]:
    total = sum(ratios)
    n = len(windows)
    cut1 = _cut(n, ratios[0], total)
    cut2 = _cut(n, ratios[0] + ratios[1], total)
    train, val, test = windows.take(slice(0, cut1)), windows.take(slice(cut1, cut2)), windows.take(slice(cut2, n))
    if min(len(train), len(val), len(test)) == 0:
        raise DataError(f"{n} windows cannot be split {ratios[0]}:{ratios[1]}:{ratios[2]}")
    return train, val, test


def split(windows: WindowSet, plan: SplitPlan) -> list[tuple[WindowSet, WindowSet, WindowSet]]:
    """Carve windows according to the plan; one (train, val, test) per fold.

    ``chronological`` is a single fold.  ``rolling_cv`` gives fold k the
    prefix of floor(n*(k+1)/folds) windows, split 6:2:2 internally, so
    training data expands and each fold's test block starts strictly
    later.  ``blocked_cv`` cuts n into ``folds`` equal disjoint blocks,
    each split 6:2:2 internally (a remainder shorter than a block is
    dropped).
    """
    n = len(windows)
    if plan.kind == "chronological":
        return [chronological_split(windows, plan.ratios)]
    folds: list[tuple[WindowSet, WindowSet, WindowSet]] = []
    if plan.kind == "rolling_cv":
        prev_test_start = -1
        for k in range(plan.folds):
            end = (n * (k + 1)) // plan.folds
            try:
                fold = chronological_split(windows.take(slice(0, end)), plan.ratios)
            except DataError as exc:
                raise DataError(f"rolling fold {k}: {exc}") from exc
            test_start = int(fold[2].offsets[0])
            if test_start <= prev_test_start:
                raise DataError(f"rolling fold {k}: test block does not advance")
            prev_test_start = test_start
            folds.append(fold)
        return folds
    # blocked_cv
    block = n // plan.folds
    if block < 1:
        raise DataError(f"blocked CV needs at least {plan.folds} windows, got {n}")
    for k in range(plan.folds):
        try:
            folds.append(
                chronological_split(windows.take(slice(k * block, (k + 1) * block)), plan.ratios)
            )
        except DataError as exc:
            raise DataError(f"blocked fold {k}: {exc}") from exc
    return folds


def fit_normalizer(values: np.ndarray, train_end: int) -> Normalizer:
    """Per-channel statistics over timesteps [0, train_end) only."""
    if train_end < 2:
        raise DataError(f"training range of {train_end} timesteps is too short")
    ranged = values[:, :train_end, :]
    mean = ranged.mean(axis=(0, 1))
    std = ranged.std(axis=(0, 1))
    bad = np.nonzero(std <= 0)[0]
    if bad.size:
        raise DataError(f"channel {int(bad[0])} is constant over the training range")
    return Normalizer(mean=mean, std=std)


def train_range_end(train: WindowSet) -> int:
    """Last timestep (exclusive) touched by the training windows."""
    return int(train.offsets[-1]) + train.input_len + train.horizon


def drop_observations(windows: WindowSet, rate: float, seed: int) -> WindowSet:
    """Independently hide input observations with probability ``rate``.

    The first and last input timestep of every node stay observed (the
    interpolant needs both ends); targets are never masked.  The result
    shares ``inputs``, ``targets`` and ``offsets`` with ``windows``.
    """
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"drop rate must be in [0, 1), got {rate}")
    masks = np.ones_like(windows.masks)
    if rate > 0.0:
        rng = np.random.default_rng(seed)
        interior = rng.random(size=masks[:, :, 1:-1].shape) >= rate
        masks[:, :, 1:-1] = interior
    return WindowSet(windows.inputs, masks, windows.targets, windows.offsets)


# ---------------------------------------------------------------------------
# Synthetic ring-diffusion generator
# ---------------------------------------------------------------------------

SYNTH_BASE_AMPLITUDE = 10.0
SYNTH_COUPLING = 0.3
SYNTH_NOISE_FRACTION = 0.05
SYNTH_PERIOD = 24.0


@dataclass
class SynthInfo:
    """Generator constants and derived quantities for a synthetic run."""

    nodes: int
    timesteps: int
    seed: int
    base_amplitude: float = SYNTH_BASE_AMPLITUDE
    coupling: float = SYNTH_COUPLING
    noise_sigma: float = SYNTH_BASE_AMPLITUDE * SYNTH_NOISE_FRACTION
    period: float = SYNTH_PERIOD
    amplitude: float = field(init=False)

    def __post_init__(self) -> None:
        # neighbor sinusoids add coherently with a phase-lag factor
        self.amplitude = self.base_amplitude * (
            1.0 + self.coupling * math.cos(2.0 * math.pi / self.nodes)
        )


def synth_series(
    nodes: int,
    timesteps: int,
    seed: int,
    coupling: float = SYNTH_COUPLING,
    noise_sigma: float | None = None,
) -> tuple[np.ndarray, SynthInfo]:
    """Ring-graph diffusion series: phased sinusoids + neighbor coupling + noise.

    Node v carries sin with phase 2*pi*v/nodes; its neighbors' (noiseless)
    signals leak in with weight ``coupling``/2 each; Gaussian noise with
    sigma = 5% of the base amplitude is added on top.  Returns values of
    shape (nodes, timesteps, 1).
    """
    if nodes < 2:
        raise ConfigError(f"ring graph needs at least 2 nodes, got {nodes}")
    if timesteps < 2:
        raise ConfigError(f"need at least 2 timesteps, got {timesteps}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    info = SynthInfo(nodes=nodes, timesteps=timesteps, seed=seed, coupling=coupling)
    if noise_sigma is not None:
        info.noise_sigma = noise_sigma
    t = np.arange(timesteps)
    phases = 2.0 * np.pi * np.arange(nodes) / nodes
    base = info.base_amplitude * np.sin(
        2.0 * np.pi * t[None, :] / info.period + phases[:, None]
    )
    left = np.roll(base, 1, axis=0)
    right = np.roll(base, -1, axis=0)
    signal = base + coupling * 0.5 * (left + right)
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=info.noise_sigma, size=signal.shape) if info.noise_sigma > 0 else 0.0
    return (signal + noise)[:, :, None], info


def synth(nodes: int, timesteps: int, seed: int, out_dir: str) -> tuple[str, SynthInfo]:
    """Generate and write a synthetic dataset; returns its values path and constants."""
    values, info = synth_series(nodes, timesteps, seed)
    os.makedirs(out_dir, exist_ok=True)
    values_path = os.path.join(out_dir, "values.csv")
    save_values(values_path, values)
    return values_path, info
