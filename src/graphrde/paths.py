"""Continuous paths from discrete, possibly partially observed series.

Timestep i of a series sits at time i; a timestep that was not observed
is masked out.  Each node's observed samples are interpolated with a
natural cubic spline (zero second derivative at both ends), one spline
per channel.  A normalized time channel is appended as the last path
channel, so a series with D data channels yields a (D+1)-channel path.
The time channel is the identity map rescaled to [0, 1] over the window
and is evaluated exactly rather than splined.

Everything here is batched over cells: a cell is one node's series,
of one window when a batch of windows is handled at once.  Cells with
irregular masks have different knot counts; their knot arrays are
padded to a common length, so one vectorised spline fit and one
vectorised evaluation serve every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class RawSeries:
    """Discrete multichannel series on the unit time grid: timestep i is
    at time i.  Irregular observation is expressed by the mask alone.

    ``values``: (nodes, timesteps, channels) float64, or (windows, nodes,
    timesteps, channels) for a batch of windows.
    ``mask``: ``values.shape[:-1]`` bool; True where observed.

    Construction checks every cell once; a ``DataError`` names the
    offending node (and window, for a batch).
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim not in (3, 4):
            raise DataError(
                f"values must be ([windows,] nodes, timesteps, channels), got {self.values.shape}"
            )
        if self.mask.shape != self.values.shape[:-1]:
            raise DataError(
                f"mask shape {self.mask.shape} does not match values {self.values.shape}"
            )
        if self.values.shape[-2] < 2:
            raise DataError("a series needs at least two timesteps")
        for bad, what in (
            (self.mask & ~np.isfinite(self.values).all(axis=-1), "observed values must be finite"),
            (~self.mask[..., 0] | ~self.mask[..., -1], "first and last timestep must be observed"),
            (self.mask.sum(axis=-1) < 2, "needs at least two observed timesteps"),
        ):
            if bad.any():
                cell = np.argwhere(bad)[0]
                where = f"node {cell[self.values.ndim - 3]}"
                if self.values.ndim == 4:
                    where = f"window {cell[0]}, {where}"
                raise DataError(f"{where}: {what}")

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return self.mask.shape[:-1]

    @property
    def num_channels(self) -> int:
        return self.values.shape[-1]


@dataclass
class SplinePath:
    """Natural cubic interpolant per cell and channel plus an exact time channel.

    The path runs over [0, steps - 1], timestep i at time i.  A cell's
    knots are its observed timesteps, padded to the batch's largest knot
    count N: ``knots`` (*cells, N) holds them in increasing order, and
    ``counts`` (*cells,) how many are real.  Padding knots lie beyond
    ``steps - 1``, so no evaluation lands in them.  On interval i the
    channel value is ``a + b*dt + c*dt^2 + d*dt^3`` with
    ``dt = t - knots[..., i]``; ``coeffs`` (*cells, N-1, channels, 4)
    stores (a, b, c, d), real for the first ``counts - 1`` intervals.
    """

    knots: np.ndarray
    coeffs: np.ndarray
    counts: np.ndarray
    steps: int
    data_channels: int

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def num_channels(self) -> int:
        """Path dimensionality: data channels plus the time channel."""
        return self.data_channels + 1


def _natural_coefficients(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Natural cubic coefficients for padded knots x (B, N) and values y (B, N, C).

    Returns (B, N-1, C, 4) arrays of (a, b, c, d).  The tridiagonal
    systems for the quadratic coefficients, one per cell with
    ``counts - 2`` real rows, are solved by one Thomas sweep over the
    rows, vectorised over cells and shared across channels.  Padding rows
    are inert (unit diagonal, zero off-diagonals and right-hand side) and
    the last real row is cut off from them, so every real row is solved
    with the same float operations as an unpadded system.
    """
    cells, n, channels = y.shape
    h = np.diff(x, axis=-1)  # (B, n-1)
    c = np.zeros(y.shape)
    m = n - 2
    if m > 0:
        row = np.arange(m)
        real = row < counts[:, None] - 2
        slopes = np.diff(y, axis=1) / h[..., None]
        rhs = np.where(real[..., None], 3.0 * (slopes[:, 1:] - slopes[:, :-1]), 0.0)
        lower = np.where(real, h[:, :-1], 0.0)  # sub-diagonal
        diag = np.where(real, 2.0 * (h[:, :-1] + h[:, 1:]), 1.0)
        upper = np.where(row < counts[:, None] - 3, h[:, 1:], 0.0)
        # Thomas forward sweep
        cp = np.empty((cells, m))
        dp = np.empty((cells, m, channels))
        cp[:, 0] = upper[:, 0] / diag[:, 0]
        dp[:, 0] = rhs[:, 0] / diag[:, 0, None]
        for i in range(1, m):
            denom = diag[:, i] - lower[:, i] * cp[:, i - 1]
            cp[:, i] = upper[:, i] / denom
            dp[:, i] = (rhs[:, i] - lower[:, i, None] * dp[:, i - 1]) / denom[:, None]
        sol = np.empty((cells, m, channels))
        sol[:, m - 1] = dp[:, m - 1]
        for i in range(m - 2, -1, -1):
            sol[:, i] = dp[:, i] - cp[:, i, None] * sol[:, i + 1]
        c[:, 1:-1] = sol
    a = y[:, :-1]
    b = np.diff(y, axis=1) / h[..., None] - h[..., None] * (2.0 * c[:, :-1] + c[:, 1:]) / 3.0
    d = (c[:, 1:] - c[:, :-1]) / (3.0 * h[..., None])
    return np.stack([a, b, c[:, :-1], d], axis=-1)


def fit_spline(series: RawSeries, cells: slice | None = None) -> SplinePath:
    """Interpolate every cell's observed samples with natural cubic splines.

    ``cells`` restricts the fit to a range of the flattened cell axes,
    so a long batch can be fitted chunk by chunk in bounded memory; the
    path's cells are then that one flat range.
    """
    steps = series.mask.shape[-1]
    mask = series.mask.reshape(-1, steps)
    values = series.values.reshape(-1, steps, series.num_channels)
    if cells is not None:
        mask, values = mask[cells], values[cells]
    counts = mask.sum(axis=-1)
    n = int(counts.max())
    t_end = steps - 1.0
    # observed timesteps first, each group in time order
    order = np.argsort(~mask, axis=-1, kind="stable")[:, :n]
    pad = np.arange(n) - counts[:, None] + 1  # 1, 2, ... on padding knots
    real = pad <= 0
    x = np.where(real, order, t_end + pad * t_end)
    # padding repeats the last observation, which is the last timestep
    y = np.where(real[..., None], np.take_along_axis(values, order[..., None], axis=1),
                 values[:, -1:])
    shape = series.cell_shape if cells is None else (len(counts),)
    coeffs = _natural_coefficients(x, y, counts)
    return SplinePath(
        knots=x.reshape(shape + x.shape[1:]),
        coeffs=coeffs.reshape(shape + coeffs.shape[1:]),
        counts=counts.reshape(shape),
        steps=steps,
        data_channels=series.num_channels,
    )


def sample_chords(path: SplinePath) -> np.ndarray:
    """Path values (*cells, steps, D + 1) at every timestep.

    The rows are the vertices of the chord polyline, one chord per
    timestep, that approximates the path; a window's polyline is a slice
    of them.
    """
    knots, coeffs, counts = path.knots, path.coeffs, path.counts
    ts = np.arange(path.steps, dtype=np.float64)
    # searchsorted(side="right") - 1 per cell, clipped to the cell's real intervals
    i = np.clip((knots[..., None, :] <= ts[:, None]).sum(axis=-1) - 1, 0, counts[..., None] - 2)
    dt = (ts - np.take_along_axis(knots, i, axis=-1))[..., None]
    a, b, c, d = np.moveaxis(np.take_along_axis(coeffs, i[..., None, None], axis=-3), -1, 0)
    value = a + dt * (b + dt * (c + dt * d))
    time_channel = np.broadcast_to((ts / (path.steps - 1))[:, None], value.shape[:-1] + (1,))
    return np.concatenate([value, time_channel], axis=-1)
