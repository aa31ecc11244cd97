"""Unit tests for spline path construction and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrde.errors import DataError
from graphrde.paths import RawSeries, fit_spline, sample_chords
from oracles import natural_spline_eval


def make_series(values, mask=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    nodes, steps, _ = values.shape
    if mask is None:
        mask = np.ones((nodes, steps), dtype=bool)
    return RawSeries(values=values, mask=np.asarray(mask))


def masked_series(knots, vals):
    """One node observed only at the integer timesteps ``knots``; the
    unobserved values are NaN, so reading one would show."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    values = np.full((1, knots[-1] + 1, vals.shape[-1]), np.nan)
    values[0, knots] = vals
    mask = np.zeros((1, knots[-1] + 1), dtype=bool)
    mask[0, knots] = True
    return RawSeries(values=values, mask=mask)


def random_knots(rng, n, max_gap):
    return np.concatenate([[0], np.cumsum(rng.integers(1, max_gap + 1, size=n - 1))])


def oracle_values(knots, vals):
    """The M-form natural spline through (knots, vals) at every timestep."""
    return [natural_spline_eval(np.asarray(knots, float), vals, float(t))
            for t in range(knots[-1] + 1)]


def test_hat_function_midpoint_value():
    # Natural spline through (0,0), (2,1), (4,0); frozen midpoint value
    # cross-checked against the dense second-derivative formulation.
    path = fit_spline(masked_series([0, 2, 4], [0.0, 1.0, 0.0]))
    got = sample_chords(path)[0, :, 0]
    assert abs(got[1] - 0.6875) < 1e-12
    assert np.allclose(got, oracle_values([0, 2, 4], [0.0, 1.0, 0.0]), rtol=0, atol=1e-12)


def test_two_point_spline_is_a_straight_line():
    path = fit_spline(masked_series([0, 6], [1.0, 13.0]))
    assert np.allclose(sample_chords(path)[0, :, 0], 1.0 + 2.0 * np.arange(7), rtol=0, atol=1e-12)


def test_spline_matches_m_form_oracle_everywhere():
    # at every timestep, observed or masked
    rng = np.random.default_rng(7)
    knots = random_knots(rng, 9, 3)
    vals = rng.normal(size=9)
    got = sample_chords(fit_spline(masked_series(knots, vals)))[0, :, 0]
    assert np.allclose(got, oracle_values(knots, vals), rtol=0, atol=1e-9)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_spline_interpolates_observed_values(n, seed):
    rng = np.random.default_rng(seed)
    knots = random_knots(rng, n, 4)
    vals = rng.normal(size=(n, 2)) * 5.0
    one = sample_chords(fit_spline(masked_series(knots, vals[:, 0])))
    two = sample_chords(fit_spline(masked_series(knots, vals)))
    assert np.allclose(one[0, knots, 0], vals[:, 0], rtol=0, atol=1e-9)
    assert np.allclose(two[0, knots, :2], vals, rtol=0, atol=1e-9)


def test_c2_continuity_and_natural_ends():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=8)
    path = fit_spline(make_series([vals]))
    coeffs = path.coeffs[0]  # (intervals, channels, 4)
    h = np.diff(path.knots[0])
    a, b, c, d = (coeffs[:, 0, k] for k in range(4))
    for i in range(len(h) - 1):
        # value, first and second derivative agree across the shared knot
        left_val = a[i] + b[i] * h[i] + c[i] * h[i] ** 2 + d[i] * h[i] ** 3
        assert abs(left_val - a[i + 1]) < 1e-9
        left_d1 = b[i] + 2 * c[i] * h[i] + 3 * d[i] * h[i] ** 2
        assert abs(left_d1 - b[i + 1]) < 1e-9
        left_d2 = 2 * c[i] + 6 * d[i] * h[i]
        assert abs(left_d2 - 2 * c[i + 1]) < 1e-9
    # natural boundary: zero second derivative at both ends
    assert abs(2 * c[0]) < 1e-9
    assert abs(2 * c[-1] + 6 * d[-1] * h[-1]) < 1e-9


def test_masked_points_are_skipped_not_interpolated():
    # with the middle sample hidden, the two-point spline is the straight
    # line between the endpoints, ignoring the outlier
    series = make_series([[0.0, 100.0, 2.0]], mask=[[True, False, True]])
    path = fit_spline(series)
    assert abs(sample_chords(path)[0, 1, 0] - 1.0) < 1e-12


def test_time_channel_is_exact_identity_rescaled():
    samples = sample_chords(fit_spline(masked_series([0, 2, 6], [1.0, 2.0, 0.5])))
    for t, want in [(0, 0.0), (2, 2.0 / 6.0), (6, 1.0)]:
        assert abs(samples[0, t, -1] - want) < 1e-15
    assert np.all(np.diff(samples[0, :, -1]) > 0)


def test_sample_chords_count_endpoints_and_spacing():
    # one sample per timestep, time channel on the unit grid rescaled
    path = fit_spline(make_series([[0.0, 1.0, 0.0, 2.0], [3.0, 1.0, 4.0, 1.0]]))
    pts = sample_chords(path)
    assert pts.shape == (2, 4, 2)
    assert np.array_equal(pts[:, :, -1], np.broadcast_to(np.arange(4) / 3.0, (2, 4)))
    assert np.allclose(pts[:, :, 0], [[0.0, 1.0, 0.0, 2.0], [3.0, 1.0, 4.0, 1.0]], atol=1e-12)


def test_data_errors_name_the_offending_node():
    # endpoints observed with a dropped interior point is fine
    make_series(
        [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]],
        mask=[[True, True, True], [True, False, True]],
    )
    with pytest.raises(DataError, match="node 1"):
        make_series(
            [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]],
            mask=[[True, True, True], [True, True, False]],
        )
    with pytest.raises(DataError, match="node 0"):
        make_series([[0.0, 1.0, 2.0]], mask=[[False, True, True]])


def test_irregular_times_supported():
    knots = np.array([0, 3, 17, 20])
    vals = np.array([0.0, 1.0, -1.0, 0.5])
    got = sample_chords(fit_spline(masked_series(knots, vals)))[0, :, 0]
    assert np.allclose(got[knots], vals, rtol=0, atol=1e-10)
    assert np.allclose(got, oracle_values(knots, vals), rtol=0, atol=1e-9)
