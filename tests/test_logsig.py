"""Unit tests for truncated signatures, tensor log and the Lyndon basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrde import data as D
from graphrde import logsig as L
from graphrde import training as TR
from graphrde.errors import ContractError, DataError, NonFiniteError
from graphrde.model import ModelConfig
from graphrde.paths import RawSeries, fit_spline, sample_chords
from oracles import (
    cell_window_logsig,
    densify_polyline,
    enumerate_lyndon_words,
    lyndon_expand,
    quadrature_signature_entry,
    quadrature_signature_level,
    tensor_exp,
)

RNG = np.random.default_rng(424242)


def random_polyline(rng, n_pts, dim):
    return rng.normal(size=(n_pts, dim))


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def test_sig_linear_levels_are_scaled_tensor_powers():
    sig = L.sig_linear(np.array([1.0, 2.0]), 2)
    assert sig.scalar == 1.0
    assert np.array_equal(sig.levels[0], [1.0, 2.0])
    assert np.allclose(sig.levels[1], [[0.5, 1.0], [1.0, 2.0]], atol=1e-15)


def test_sig_linear_third_level():
    v = np.array([2.0, -1.0, 0.5])
    sig = L.sig_linear(v, 3)
    want = np.einsum("i,j,k->ijk", v, v, v) / 6.0
    assert np.allclose(sig.levels[2], want, atol=1e-15)


def test_polyline_signature_matches_quadrature_oracle():
    for dim, depth in [(2, 3), (3, 2)]:
        pts = random_polyline(np.random.default_rng(5 + dim), 4, dim)
        sig = L.sig_polyline(pts, depth)
        dense = densify_polyline(pts, 1500)
        for k in range(1, depth + 1):
            want = quadrature_signature_level(dense, dim, k)
            assert np.allclose(sig.levels[k - 1], want, atol=5e-7)


def test_chen_identity_on_random_polylines():
    # signature over [0, m] equals the product of the signatures of any
    # prefix/suffix split, for 100 random 2-D and 3-D polylines
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        pts = random_polyline(rng, 5, dim)
        cut = rng.integers(1, 4)
        full = L.sig_polyline(pts, 3)
        left = L.sig_polyline(pts[: cut + 1], 3)
        right = L.sig_polyline(pts[cut:], 3)
        prod = L.chen_mul(left, right)
        for a, b in zip(full.levels, prod.levels):
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-9


def test_shuffle_identity_on_random_polylines():
    # S^i * S^j == S^(ij) + S^(ji) for every channel pair
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        pts = random_polyline(rng, 6, 3)
        sig = L.sig_polyline(pts, 2)
        lvl1, lvl2 = sig.levels
        for i in range(3):
            for j in range(3):
                worst = max(worst, abs(lvl1[i] * lvl1[j] - (lvl2[i, j] + lvl2[j, i])))
    assert worst < 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=3))
@settings(max_examples=30, deadline=None)
def test_chen_identity_property(seed, dim):
    rng = np.random.default_rng(seed)
    pts = random_polyline(rng, 4, dim)
    full = L.sig_polyline(pts, 3)
    prod = L.chen_mul(L.sig_polyline(pts[:2], 3), L.sig_polyline(pts[1:], 3))
    for a, b in zip(full.levels, prod.levels):
        assert np.allclose(a, b, atol=1e-9)


def test_reparametrization_invariance():
    # splitting each chord into collinear sub-chords leaves the signature
    # unchanged: the signature depends on the image, not the speed
    pts = random_polyline(np.random.default_rng(3), 4, 2)
    sig = L.sig_polyline(pts, 3)
    resampled = densify_polyline(pts, 7)
    sig2 = L.sig_polyline(resampled, 3)
    for a, b in zip(sig.levels, sig2.levels):
        assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# Tensor log / exp
# ---------------------------------------------------------------------------


def test_single_chord_logsig_is_the_increment():
    v = np.array([0.7, -1.3, 0.2])
    lie = L.tensor_log(L.sig_linear(v, 3))
    assert np.allclose(lie.levels[0], v, atol=1e-15)
    assert np.max(np.abs(lie.levels[1])) < 1e-12
    assert np.max(np.abs(lie.levels[2])) < 1e-12


def test_exp_log_round_trip_on_group_like_elements():
    rng = np.random.default_rng(17)
    for depth in (2, 3, 4):
        sig = L.sig_polyline(random_polyline(rng, 5, 2), depth)
        back = tensor_exp(L.tensor_log(sig))
        assert abs(back.scalar - 1.0) < 1e-12
        for a, b in zip(sig.levels, back.levels):
            assert np.allclose(a, b, atol=1e-12)


def test_log_requires_unit_scalar_and_exp_zero_scalar():
    sig = L.sig_linear(np.array([1.0, 0.0]), 2)
    sig.scalar = 0.5
    with pytest.raises(ContractError):
        L.tensor_log(sig)
    lie = L.zero_tensor(2, 2)
    lie.scalar = 1.0
    with pytest.raises(ContractError):
        tensor_exp(lie)


def test_chen_mul_rejects_mismatched_operands():
    with pytest.raises(ContractError):
        L.chen_mul(L.sig_linear(np.ones(2), 2), L.sig_linear(np.ones(3), 2))
    with pytest.raises(ContractError):
        L.chen_mul(L.sig_linear(np.ones(2), 2), L.sig_linear(np.ones(2), 3))


# ---------------------------------------------------------------------------
# Lyndon basis
# ---------------------------------------------------------------------------


def test_dimension_formula_and_enumeration_agree():
    # frozen sizes for the cases exercised downstream
    assert L.lyndon_dimension(2, 2) == 3
    assert L.lyndon_dimension(2, 3) == 5
    assert L.lyndon_dimension(3, 2) == 6
    assert L.lyndon_dimension(2, 4) == 8
    for dim in range(1, 5):
        for depth in range(1, 6):
            words = enumerate_lyndon_words(dim, depth)
            assert L.lyndon_dimension(dim, depth) == len(words)
            basis = L.LyndonBasis(dim, depth)
            assert basis.words == words


def test_basis_order_is_length_then_lex():
    basis = L.LyndonBasis(2, 3)
    assert basis.words == [(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1)]


def test_expansions_are_triangular_with_unit_leading_coefficient():
    basis = L.LyndonBasis(2, 4)
    for word, exp in zip(basis.words, basis.expansions):
        assert abs(exp[word] - 1.0) < 1e-12
        for other in np.argwhere(np.abs(exp) > 1e-12):
            assert tuple(other) >= word


def test_project_then_expand_is_lossless():
    rng = np.random.default_rng(31)
    for dim, depth in [(2, 3), (3, 3), (2, 4)]:
        sig = L.sig_polyline(random_polyline(rng, 6, dim), depth)
        lie = L.tensor_log(sig)
        coords = L.lyndon_project(lie, L.LyndonBasis(dim, depth))
        back = lyndon_expand(coords, L.LyndonBasis(dim, depth))
        for a, b in zip(lie.levels, back.levels):
            assert np.allclose(a, b, atol=1e-10)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_expand_then_project_recovers_coordinates(seed):
    rng = np.random.default_rng(seed)
    basis = L.LyndonBasis(2, 3)
    coords = rng.normal(size=len(basis))
    back = L.lyndon_project(lyndon_expand(coords, basis), basis)
    assert np.allclose(back, coords, atol=1e-10)


def test_projection_rejects_non_lie_input():
    bad = L.zero_tensor(2, 2)
    bad.levels[1][0, 0] = 1.0  # symmetric level-2 content is not Lie
    with pytest.raises(ContractError, match="not a Lie element"):
        L.lyndon_project(bad, L.LyndonBasis(2, 2))


def test_area_coordinate_of_parabola_path():
    # path (t, t^2) on [0, 1]: depth-2 coordinates are the two increments
    # and the signed area; quadrature gives S12 = 2/3, S21 = 1/3, so the
    # area coordinate is 1/6
    ts = np.linspace(0.0, 1.0, 4001)
    pts = np.stack([ts, ts**2], axis=1)
    coords = L.lyndon_project(L.tensor_log(L.sig_polyline(pts, 2)), L.LyndonBasis(2, 2))
    assert np.allclose(coords[:2], [1.0, 1.0], atol=1e-12)
    assert abs(coords[2] - 1.0 / 6.0) < 1e-6
    s12 = quadrature_signature_entry(pts, (0, 1))
    s21 = quadrature_signature_entry(pts, (1, 0))
    assert abs(s12 - 2.0 / 3.0) < 1e-6
    assert abs(s21 - 1.0 / 3.0) < 1e-6
    assert abs(coords[2] - 0.5 * (s12 - s21)) < 1e-9


# ---------------------------------------------------------------------------
# Windowed log-signatures
# ---------------------------------------------------------------------------


def make_path(values, mask=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    nodes, steps, _ = values.shape
    series = RawSeries(
        values=values,
        mask=np.ones((nodes, steps), bool) if mask is None else np.asarray(mask),
    )
    return fit_spline(series)


def test_window_grid_and_short_final_window():
    path = make_path(RNG.normal(size=(2, 12)))
    coords = L.window_logsig(path, subpath_len=2, depth=2)
    assert coords.shape == (6, 2, 3)
    # coordinate 1 is the time increment, the window's length over the span of 11
    assert np.allclose(coords[..., 1] * 11, [[2, 2]] * 5 + [[1, 1]], rtol=0, atol=1e-12)


def test_window_count_formula():
    for steps, p, want in [(13, 2, 6), (13, 3, 4), (13, 4, 3), (7, 2, 3), (5, 4, 1)]:
        path = make_path(RNG.normal(size=(1, steps)))
        coords = L.window_logsig(path, subpath_len=p, depth=1)
        assert len(coords) == want


def test_depth_one_logsig_is_the_window_increment():
    vals = RNG.normal(size=(2, 9))
    path = make_path(vals)
    coords = L.window_logsig(path, subpath_len=4, depth=1)
    # coords per window are (data increment, time increment)
    assert coords.shape == (2, 2, 2)
    span = 8.0
    for w, (i0, i1) in enumerate([(0, 4), (4, 8)]):
        for v in range(2):
            assert abs(coords[w, v, 0] - (vals[v, i1] - vals[v, i0])) < 1e-9
            assert abs(coords[w, v, 1] - (i1 - i0) / span) < 1e-12


def test_constant_series_leaves_only_the_time_coordinate():
    path = make_path(np.full((3, 12), 7.5))
    coords = L.window_logsig(path, subpath_len=2, depth=2)
    # word order for d=2, D=2: (0,), (1,), (0,1); channel 1 is time
    assert np.max(np.abs(coords[..., 0])) < 1e-12
    assert np.max(np.abs(coords[..., 2])) < 1e-12
    assert np.allclose(coords[:5, :, 1], 2.0 / 11.0, atol=1e-12)
    assert np.allclose(coords[5, :, 1], 1.0 / 11.0, atol=1e-12)


def test_window_coords_match_quadrature_oracle():
    vals = RNG.normal(size=(2, 7))
    path = make_path(vals)
    coords = L.window_logsig(path, subpath_len=3, depth=2)
    for w, (i0, i1) in enumerate([(0, 3), (3, 6)]):
        for v in range(2):
            pts = sample_chords(path)[v, i0 : i1 + 1]
            dense = densify_polyline(pts, 700)
            s1 = quadrature_signature_entry(dense, (0,))
            s2 = quadrature_signature_entry(dense, (1,))
            s12 = quadrature_signature_entry(dense, (0, 1))
            s21 = quadrature_signature_entry(dense, (1, 0))
            want = [s1, s2, 0.5 * (s12 - s21)]
            assert np.allclose(coords[w, v], want, atol=1e-6)


def test_masked_nodes_use_their_own_knots():
    vals = np.array([[0.0, 5.0, 1.0, 2.0, 1.0], [0.0, 99.0, 1.0, 2.0, 1.0]])
    mask = np.array([[True] * 5, [True, False, True, True, True]])
    path = make_path(vals, mask=mask)
    coords = L.window_logsig(path, subpath_len=2, depth=2)
    # node 1 interpolates across the hidden outlier, so its first-window
    # increment still ends at the same observed value
    assert abs(coords[0, 1, 0] - 1.0) < 1e-9
    assert abs(coords[0, 0, 0] - 1.0) < 1e-9
    assert not np.allclose(coords[0, 0], coords[0, 1], atol=1e-9)


def test_window_logsig_errors():
    path = make_path(RNG.normal(size=(1, 4)))
    with pytest.raises(DataError):
        L.window_logsig(path, subpath_len=5, depth=2)
    with pytest.raises(ContractError):
        L.window_logsig(path, subpath_len=0, depth=2)
    with pytest.raises(ContractError):
        L.window_logsig(path, subpath_len=2, depth=0)


# ---------------------------------------------------------------------------
# Batched front end against the per-cell reference
# ---------------------------------------------------------------------------


def random_batch(rng, windows, nodes, steps, channels, density):
    """Values and masks for a batch of windows; first and last steps observed,
    unobserved values NaN so that reading one would show."""
    values = rng.normal(size=(windows, nodes, steps, channels)) * 3.0
    mask = rng.random(size=(windows, nodes, steps)) < density
    mask[..., 0] = mask[..., -1] = True
    values[~mask] = np.nan
    return values, mask


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=5, max_value=13),
    channels=st.integers(min_value=1, max_value=2),
    depth=st.integers(min_value=1, max_value=3),
    subpath_len=st.integers(min_value=1, max_value=4),
    density=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_batched_front_end_matches_per_cell_oracle_bit_for_bit(
    seed, steps, channels, depth, subpath_len, density
):
    rng = np.random.default_rng(seed)
    values, mask = random_batch(rng, 3, 4, steps, channels, density)
    path = fit_spline(RawSeries(values, mask))
    coords = L.window_logsig(path, subpath_len, depth)
    for w in range(3):
        want = cell_window_logsig(values[w], mask[w], subpath_len, depth)
        assert coords[:, w].tobytes() == want.tobytes()


def test_window_logsig_samples_the_path_once(monkeypatch):
    calls = []

    def counting(path):
        calls.append(path)
        return sample_chords(path)

    monkeypatch.setattr(L, "sample_chords", counting)
    path = make_path(RNG.normal(size=(2, 13)))
    coords = L.window_logsig(path, subpath_len=2, depth=2)
    assert len(coords) == 6
    assert calls == [path]


def irregular_windows(nodes=3):
    values = np.random.default_rng(8).normal(size=(nodes, 40, 1))
    windows = D.make_windows(values, 12, 12, 1)
    return D.drop_observations(windows, 0.4, seed=3)


def test_prepare_split_is_chunk_invariant(monkeypatch):
    windows = irregular_windows(nodes=3)
    norm = D.Normalizer(mean=np.zeros(1), std=np.ones(1))
    cfg = ModelConfig(num_nodes=3, input_len=12, horizon=12, dim_h=4, dim_z=4, sig_depth=3,
                      subpath_len=3)
    whole = TR.prepare_split(windows, norm, cfg).coords
    for w in range(len(windows)):
        want = cell_window_logsig(windows.inputs[w], windows.masks[w], 3, 3)
        assert whole[:, w].tobytes() == want.tobytes()
    for chunk in (1, 7):  # one cell, and a size that splits windows' node sets
        monkeypatch.setattr(TR, "CHUNK_CELLS", chunk)
        assert TR.prepare_split(windows, norm, cfg).coords.tobytes() == whole.tobytes()


def test_non_finite_observation_names_window_and_node():
    windows = irregular_windows()
    windows.masks[2, 1, 5] = True
    windows.inputs[2, 1, 5, 0] = np.inf
    norm = D.Normalizer(mean=np.zeros(1), std=np.ones(1))
    cfg = ModelConfig(num_nodes=3, input_len=12, horizon=12, dim_h=4, dim_z=4)
    with pytest.raises(DataError, match="window 2, node 1: observed values must be finite"):
        TR.prepare_split(windows, norm, cfg)
    windows.inputs[2, 1, 5, 0] = 0.0
    windows.masks[1, 2, -1] = False
    with pytest.raises(DataError, match="window 1, node 2: first and last"):
        TR.prepare_split(windows, norm, cfg)


def test_batched_projection_rejects_non_lie_cell():
    basis = L.LyndonBasis(2, 2)
    lies = L.tensor_log(L.sig_polyline(RNG.normal(size=(4, 3, 2)), 2))
    assert L.lyndon_project(lies, basis).shape == (4, 3)
    lies.levels[1][2, 0, 0] += 1.0  # one cell gains symmetric, non-Lie content
    with pytest.raises(ContractError, match="not a Lie element"):
        L.lyndon_project(lies, basis)
    lies.levels[1][2, 0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        L.lyndon_project(lies, basis)
    with pytest.raises(NonFiniteError):
        L.sig_polyline(np.array([[0.0, 1.0], [np.nan, 2.0]]), 2)
