"""Unit tests for the model fields, parameter store and checkpoints."""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrde import cli
from graphrde import tensor as T
from graphrde.errors import ConfigError, ContractError, DataError, DimensionError
from graphrde.model import (
    GNN_KINDS,
    VARIANTS,
    ModelConfig,
    ParamStore,
    adaptive_adjacency,
    augmented_rhs,
    field_f,
    field_g,
    graph_operator,
    init_state,
    load_checkpoint,
    normalized_adjacency,
    readout,
    save_checkpoint,
)
from graphrde.solver import SolveSpec, integrate
from oracles import field_f as unfused_field_f
from oracles import field_g as unfused_field_g
from oracles import augmented_rhs as unfused_augmented_rhs

RNG = np.random.default_rng(777)


def tiny_config(**overrides):
    base = dict(
        num_nodes=3,
        in_channels=1,
        input_len=6,
        horizon=2,
        out_channels=1,
        dim_h=4,
        dim_z=3,
        num_layers=1,
        embed_dim=2,
        sig_depth=2,
        subpath_len=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# Configuration and parameters
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(variant="both")
    with pytest.raises(ConfigError):
        tiny_config(gnn_kind="mlp")
    with pytest.raises(ConfigError):
        tiny_config(out_channels=2)  # exceeds in_channels
    with pytest.raises(ConfigError):
        tiny_config(input_len=2, subpath_len=4)
    with pytest.raises(ConfigError):
        tiny_config(dim_h=0)


def test_logsig_dim_property():
    assert tiny_config(sig_depth=2).logsig_dim == 3  # d_path=2
    assert tiny_config(sig_depth=3).logsig_dim == 5
    assert tiny_config(in_channels=2, out_channels=1, sig_depth=2).logsig_dim == 6


def test_param_shapes_and_variant_subsets():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=0)
    lsig = cfg.logsig_dim
    assert ps["embed"].shape == (3, 2)
    assert ps["f_w0"].shape == (4, 4) and ps["f_w1"].shape == (4, 4)
    assert ps["f_head_w"].shape == (4, 4 * lsig)
    assert ps["g_head_w"].shape == (3, 3 * 4)
    assert ps["out_w"].shape == (3, 2)
    temporal = ParamStore(tiny_config(variant="temporal_only"), seed=0)
    assert not any(n.startswith("g_") or n == "embed" for n in temporal.params)
    assert temporal["out_w"].shape == (4, 2)  # readout from H
    spatial = ParamStore(tiny_config(variant="spatial_only"), seed=0)
    assert not any(n.startswith("f_") for n in spatial.params)
    assert spatial["g_head_w"].shape == (3, 3 * lsig)  # widened head


def test_seeded_init_is_deterministic_and_bounded():
    cfg = tiny_config()
    a, b = ParamStore(cfg, seed=5), ParamStore(cfg, seed=5)
    c = ParamStore(cfg, seed=6)
    for name, t in a.tracked():
        assert np.array_equal(t.data, b[name].data)
    assert any(not np.array_equal(t.data, c[name].data) for name, t in a.tracked())
    for name, _, fan_in in [("f_w0", None, 4), ("embed", None, 2), ("init_h_w", None, 1)]:
        bound = 1.0 / math.sqrt(fan_in)
        assert np.max(np.abs(a[name].data)) <= bound


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------


def test_adaptive_adjacency_is_row_stochastic():
    ps = ParamStore(tiny_config(), seed=3)
    adj = adaptive_adjacency(ps).data
    assert adj.shape == (3, 3)
    assert np.all(adj >= 0)
    assert np.allclose(adj.sum(axis=1), 1.0, atol=1e-12)


def test_adaptive_adjacency_with_large_orthogonal_embeddings_is_near_identity():
    cfg = tiny_config(embed_dim=3)
    ps = ParamStore(cfg, seed=0)
    ps["embed"].data = np.eye(3) * 40.0
    adj = adaptive_adjacency(ps).data
    assert np.allclose(adj, np.eye(3), atol=1e-9)


def test_normalized_adjacency_formulas():
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    cheb = normalized_adjacency(a, "chebyshev")
    assert np.allclose(cheb, np.eye(2) + np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    gcn = normalized_adjacency(a, "plain_gcn")
    # A~ = A + I has uniform degree 3
    assert np.allclose(gcn, (a + np.eye(2)) / 3.0, atol=1e-12)
    with pytest.raises(DataError):
        normalized_adjacency(np.array([[0.0, -1.0], [1.0, 0.0]]), "chebyshev")
    with pytest.raises(DataError):
        normalized_adjacency(np.zeros((2, 3)), "chebyshev")


def test_external_adjacency_required_for_fixed_graph_kinds():
    with pytest.raises(ConfigError):
        ParamStore(tiny_config(gnn_kind="chebyshev"), seed=0)
    with pytest.raises(DataError, match="model has 3 nodes"):
        ParamStore(tiny_config(gnn_kind="plain_gcn"), seed=0, propagation=np.eye(2))
    # temporal-only ignores the graph entirely
    ParamStore(tiny_config(gnn_kind="chebyshev", variant="temporal_only"), seed=0)


# ---------------------------------------------------------------------------
# Fields against a straight-line scalar reimplementation
# ---------------------------------------------------------------------------


def scalar_relu(x):
    return x if x > 0 else 0.0


def scalar_fc(mat, w, b):
    rows, inner, cols = len(mat), len(w), len(w[0])
    out = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            s = b[c]
            for i in range(inner):
                s += mat[r][i] * w[i][c]
            out[r][c] = s
    return out


def scalar_head_matvec(head, rows, cols, x):
    """out[v][p] = sum_q tanh(head[v][p * cols + q]) * x[v][q]."""
    return [
        [sum(math.tanh(head[v][p * cols + q]) * x[v][q] for q in range(cols)) for p in range(rows)]
        for v in range(len(head))
    ]


def test_field_f_matches_scalar_reimplementation():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=9)
    h = RNG.normal(size=(3, 4))
    x = RNG.normal(size=(3, cfg.logsig_dim))
    got = field_f(T.constant(h), T.constant(x), ps, cfg).data
    assert got.shape == (3, 4)

    a = [list(row) for row in h]
    for k in range(cfg.num_layers + 1):
        w = ps[f"f_w{k}"].data.tolist()
        b = ps[f"f_b{k}"].data.tolist()
        a = [[scalar_relu(v) for v in row] for row in scalar_fc(a, w, b)]
    head = scalar_fc(a, ps["f_head_w"].data.tolist(), ps["f_head_b"].data.tolist())
    want = scalar_head_matvec(head, 4, cfg.logsig_dim, x.tolist())
    assert np.abs(got - np.array(want)).max() < 1e-12


def test_field_f_rows_are_independent():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=4)
    h = RNG.normal(size=(3, 4))
    x = T.constant(RNG.normal(size=(3, cfg.logsig_dim)))
    base = field_f(T.constant(h), x, ps, cfg).data
    h2 = h.copy()
    h2[0] += 1.0
    bumped = field_f(T.constant(h2), x, ps, cfg).data
    assert not np.allclose(base[0], bumped[0])
    assert np.array_equal(base[1:], bumped[1:])


def test_field_g_matches_scalar_reimplementation():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=2)
    z = RNG.normal(size=(3, 3))
    x = RNG.normal(size=(3, 4))  # a dH-shaped control
    got = field_g(T.constant(z), T.constant(x), graph_operator(ps, cfg), ps, cfg).data
    assert got.shape == (3, 3)

    b0 = [[scalar_relu(v) for v in row] for row in
          scalar_fc(z.tolist(), ps["g_w0"].data.tolist(), ps["g_b0"].data.tolist())]
    e = ps["embed"].data
    scores = [[sum(e[u, i] * e[v, i] for i in range(e.shape[1])) for v in range(3)] for u in range(3)]
    scores = [[scalar_relu(v) for v in row] for row in scores]
    adj = []
    for row in scores:
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        tot = sum(exps)
        adj.append([v / tot for v in exps])
    prop = [[adj[u][v] + (1.0 if u == v else 0.0) for v in range(3)] for u in range(3)]
    mixed = [[sum(prop[u][v] * b0[v][j] for v in range(3)) for j in range(3)] for u in range(3)]
    b1 = scalar_fc(mixed, ps["w_spatial"].data.tolist(), [0.0] * 3)
    head = scalar_fc(b1, ps["g_head_w"].data.tolist(), ps["g_head_b"].data.tolist())
    want = scalar_head_matvec(head, 3, 4, x.tolist())
    assert np.abs(got - np.array(want)).max() < 1e-12


def test_field_g_shapes_by_variant_and_kind():
    z = T.constant(RNG.normal(size=(3, 3)))
    dh = T.constant(RNG.normal(size=(3, 4)))
    full = tiny_config()
    ps = ParamStore(full, seed=0)
    assert field_g(z, dh, graph_operator(ps, full), ps, full).shape == (3, 3)
    sp = tiny_config(variant="spatial_only")
    ell = T.constant(RNG.normal(size=(3, sp.logsig_dim)))
    ps = ParamStore(sp, seed=0)
    assert field_g(z, ell, graph_operator(ps, sp), ps, sp).shape == (3, 3)
    att = tiny_config(gnn_kind="attention")
    ps = ParamStore(att, seed=0)
    assert "attn_self" in ps.params and "attn_neigh" in ps.params
    assert graph_operator(ps, att) is None
    assert field_g(z, dh, None, ps, att).shape == (3, 3)
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cheb = tiny_config(gnn_kind="chebyshev")
    ps2 = ParamStore(cheb, seed=0, propagation=normalized_adjacency(adj, "chebyshev"))
    assert graph_operator(ps2, cheb) is ps2.propagation
    assert field_g(z, dh, ps2.propagation, ps2, cheb).shape == (3, 3)
    with pytest.raises(DimensionError):
        # the full variant's control is dH, not the log-signature
        field_g(z, ell, ps2.propagation, ps2, cheb)


def test_batched_fields_match_per_sample():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=8)
    batch = RNG.normal(size=(4, 3, 4))
    ell = RNG.normal(size=(4, 3, cfg.logsig_dim))
    together = field_f(T.constant(batch), T.constant(ell), ps, cfg).data
    for i in range(4):
        single = field_f(T.constant(batch[i]), T.constant(ell[i]), ps, cfg).data
        assert np.allclose(together[i], single, atol=1e-14)
    zb = RNG.normal(size=(4, 3, 3))
    prop = graph_operator(ps, cfg)
    together_g = field_g(T.constant(zb), T.constant(batch), prop, ps, cfg).data
    for i in range(4):
        single = field_g(T.constant(zb[i]), T.constant(batch[i]), prop, ps, cfg).data
        assert np.allclose(together_g[i], single, atol=1e-14)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("gnn_kind", GNN_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_heads_match_unfused_oracle_bit_for_bit(variant, gnn_kind, method):
    cfg = tiny_config(num_nodes=4, in_channels=2, out_channels=2, dim_z=4, sig_depth=3,
                      variant=variant, gnn_kind=gnn_kind)
    rng = np.random.default_rng(31)
    prop = None
    if cfg.needs_adjacency:
        prop = normalized_adjacency(rng.uniform(size=(4, 4)), gnn_kind)
    ps = ParamStore(cfg, seed=5, propagation=prop)
    coords = rng.normal(size=(3, 2, 4, cfg.logsig_dim)) * 0.5  # windows, batch, nodes, L
    divisors = np.array([2.0, 2.0, 1.0])
    f0 = T.constant(rng.normal(size=(2, 4, 2)))
    target = T.constant(rng.normal(size=(2, 4, cfg.horizon, 2)))
    spec = SolveSpec(method=method, steps_per_window=2)

    def run(rhs):
        ps.zero_grad()
        pred = readout(integrate(init_state(f0, ps, cfg), coords, divisors, spec, rhs), ps, cfg)
        T.backward(T.mean_all(T.absolute(pred - target)))
        return pred.data, {name: p.grad.copy() for name, p in ps.tracked()}

    # the oracle rebuilds the graph operator in every RHS evaluation
    pred_ref, grads_ref = run(
        lambda state, ell, divisor: unfused_augmented_rhs(state, ell, divisor, ps, cfg)
    )
    prop = graph_operator(ps, cfg)  # once per forward, as in forward_prepared
    pred, grads = run(lambda state, ell, divisor: augmented_rhs(state, ell, divisor, prop, ps, cfg))
    assert np.array_equal(pred, pred_ref)
    assert grads.keys() == grads_ref.keys()
    # summed in another order: embed's over one operator instead of one per
    # RHS evaluation, a head weight's as one gemm over the batch axis
    reordered = {"embed", "f_head_w", "g_head_w"}
    for name in grads:
        if name in reordered:
            err = np.abs(grads[name] - grads_ref[name]).max()
            assert err <= 1e-12 * np.abs(grads_ref[name]).max(), name
        else:
            assert np.array_equal(grads[name], grads_ref[name]), name


# ---------------------------------------------------------------------------
# State initialization, dynamics, readout
# ---------------------------------------------------------------------------


def test_init_state_affine_maps():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=1)
    f0 = RNG.normal(size=(3, 1))
    h, z = init_state(T.constant(f0), ps, cfg)
    want_h = f0 @ ps["init_h_w"].data + ps["init_h_b"].data
    assert np.allclose(h.data, want_h, atol=1e-14)
    want_z = want_h @ ps["init_z_w"].data + ps["init_z_b"].data
    assert np.allclose(z.data, want_z, atol=1e-14)
    t_only = init_state(T.constant(f0), ParamStore(tiny_config(variant="temporal_only"), 1),
                        tiny_config(variant="temporal_only"))
    assert [t.shape for t in t_only] == [h.shape]
    with pytest.raises(ContractError):
        init_state(T.constant(np.zeros((4, 1))), ps, cfg)


def test_augmented_rhs_full_couples_z_to_dh():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=6)
    st = [T.constant(RNG.normal(size=(3, 4))), T.constant(RNG.normal(size=(3, 3)))]
    ell = T.constant(RNG.normal(size=(3, cfg.logsig_dim)))
    dh, dz = augmented_rhs(st, ell, 2.0, graph_operator(ps, cfg), ps, cfg)
    f_out = unfused_field_f(st[0], ps, cfg).data
    want_dh = np.einsum("vpl,vl->vp", f_out, ell.data) / 2.0
    assert np.allclose(dh.data, want_dh, atol=1e-13)
    g_out = unfused_field_g(st[1], ps, cfg).data
    want_dz = np.einsum("vqp,vp->vq", g_out, want_dh)
    assert np.allclose(dz.data, want_dz, atol=1e-13)
    with pytest.raises(ContractError):
        augmented_rhs(st, ell, 0.0, graph_operator(ps, cfg), ps, cfg)


def test_variant_rhs_states():
    t_cfg = tiny_config(variant="temporal_only")
    t_ps = ParamStore(t_cfg, seed=0)
    assert graph_operator(t_ps, t_cfg) is None
    d = augmented_rhs([T.constant(RNG.normal(size=(3, 4)))],
                      T.constant(RNG.normal(size=(3, 3))), 1.0, None, t_ps, t_cfg)
    assert [t.shape for t in d] == [(3, 4)]
    s_cfg = tiny_config(variant="spatial_only")
    s_ps = ParamStore(s_cfg, seed=0)
    d = augmented_rhs([T.constant(RNG.normal(size=(3, 3)))],
                      T.constant(RNG.normal(size=(3, 3))), 1.0, graph_operator(s_ps, s_cfg),
                      s_ps, s_cfg)
    assert [t.shape for t in d] == [(3, 3)]


def test_readout_shape_and_zero_weights_give_bias():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=0)
    state = [T.constant(np.zeros((3, 4))), T.constant(RNG.normal(size=(3, 3)))]
    y = readout(state, ps, cfg)
    assert y.shape == (3, 2, 1)
    ps["out_w"].data[:] = 0.0
    ps["out_b"].data[:] = [1.5, -2.0]
    y = readout(state, ps, cfg).data
    assert np.allclose(y[:, 0, 0], 1.5) and np.allclose(y[:, 1, 0], -2.0)


def test_node_permutation_equivariance():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=12)
    perm = np.array([2, 0, 1])
    h = RNG.normal(size=(3, 4))
    z = RNG.normal(size=(3, 3))
    ell = RNG.normal(size=(3, cfg.logsig_dim))
    d = augmented_rhs([T.constant(h), T.constant(z)], T.constant(ell), 2.0,
                      graph_operator(ps, cfg), ps, cfg)
    ps_perm = ParamStore(cfg, seed=12)
    ps_perm["embed"].data = ps["embed"].data[perm]
    d_perm = augmented_rhs(
        [T.constant(h[perm]), T.constant(z[perm])],
        T.constant(ell[perm]),
        2.0,
        graph_operator(ps_perm, cfg),
        ps_perm,
        cfg,
    )
    for got, want in zip(d_perm, d):
        assert np.allclose(got.data, want.data[perm], atol=1e-12)


def test_local_lipschitz_ratio_is_bounded():
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=0)
    ell = T.constant(RNG.normal(size=(3, cfg.logsig_dim)))
    prop = graph_operator(ps, cfg)
    rng = np.random.default_rng(55)
    ratios = []
    for _ in range(1000):
        h1, z1 = rng.normal(size=(3, 4)), rng.normal(size=(3, 3))
        dh, dz = rng.normal(size=(3, 4)) * 0.1, rng.normal(size=(3, 3)) * 0.1
        d1 = augmented_rhs([T.constant(h1), T.constant(z1)], ell, 2.0, prop, ps, cfg)
        d2 = augmented_rhs([T.constant(h1 + dh), T.constant(z1 + dz)], ell, 2.0, prop, ps, cfg)
        num = np.sqrt(sum(np.sum((a.data - b.data) ** 2) for a, b in zip(d1, d2)))
        den = np.sqrt(np.sum(dh**2) + np.sum(dz**2))
        ratios.append(num / den)
    assert max(ratios) < 100.0


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=21)
    extra = {"normalizer": {"mean": [1.0], "std": [2.0]}, "note": "fit"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), ps, extra=extra)
    cfg2, ps2, extra2 = load_checkpoint(str(path))
    assert cfg2 == cfg
    assert extra2 == extra
    for name, t in ps.tracked():
        assert np.array_equal(t.data, ps2[name].data)
    raw = path.read_bytes()
    assert raw[:8] == b"STGNRDE1"


def test_checkpoint_keeps_propagation_constant(tmp_path):
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cfg = tiny_config(gnn_kind="plain_gcn")
    ps = ParamStore(cfg, seed=0, propagation=normalized_adjacency(adj, "plain_gcn"))
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), ps)
    _, ps2, _ = load_checkpoint(str(path))
    assert np.array_equal(ps.propagation.data, ps2.propagation.data)
    assert b'"name": "const/propagation"' in path.read_bytes()
    assert ParamStore(tiny_config(), seed=0).propagation is None


def test_checkpoint_corruption_errors(tmp_path):
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), ps)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(str(bad))
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(bytes(raw[: len(raw) - 64]))
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(str(trunc))
    with pytest.raises(DataError):
        load_checkpoint(str(tmp_path / "missing.ckpt"))


def test_load_checkpoint_keeps_the_file_arrays_and_draws_nothing(tmp_path, monkeypatch):
    cfg = tiny_config()
    ps = ParamStore(cfg, seed=21)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), ps)

    class NoDraws:
        def uniform(self, *args, **kwargs):
            raise AssertionError("the reader drew a parameter it then overwrote")

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
    _, ps2, _ = load_checkpoint(str(path))
    for name, t in ps.tracked():
        assert np.array_equal(t.data, ps2[name].data) and ps2[name].requires_grad
    arrays = ps.state_arrays()
    ps3 = ParamStore(cfg, arrays=arrays)
    assert all(ps3[name].data is arr for name, arr in arrays.items())
    with pytest.raises(DataError, match="missing tensor 'out_b'"):
        ParamStore(cfg, arrays={k: v for k, v in arrays.items() if k != "out_b"})
    with pytest.raises(DataError, match=r"'out_b' has shape \(3,\), expected \(2,\)"):
        ParamStore(cfg, arrays={**arrays, "out_b": np.zeros(3)})
    nan = tmp_path / "nan.ckpt"
    ps["out_b"].data = np.full(2, np.nan)  # forged: a Tensor built from a NaN would refuse it
    save_checkpoint(str(nan), ps)
    with pytest.raises(DataError, match="non-finite"):
        load_checkpoint(str(nan))


def test_save_checkpoint_never_leaves_a_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), ParamStore(tiny_config(), seed=0))
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_checkpoint(str(path), ParamStore(tiny_config(), seed=1))
    assert path.read_bytes() == before


def _with_header(raw: bytes, mutate) -> bytes:
    """The checkpoint ``raw`` with ``mutate`` applied to its JSON header."""
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + n])
    mutate(header)
    body = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(body)) + body + raw[16 + n :]


def _entry(i: int, **fields):
    return lambda h: h["tensors"][i].update(fields)


def _config(**fields):
    return lambda h: h["config"].update(fields)


_CORRUPTIONS = {
    "negative offset": _entry(0, offset=-8),
    "negative shape": _entry(0, shape=[-3, -1]),
    "no manifest": lambda h: h.pop("tensors"),
    "zero width": _config(dim_h=0),
    "overlapping tensors": lambda h: h["tensors"][1].update(offset=h["tensors"][0]["offset"] + 8),
    "float offset": _entry(0, offset=8.0),
    "bool in shape": _entry(0, shape=[True, 6]),
    "name not a string": _entry(0, name=7),
    "duplicate name": lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
    "manifest not a list": lambda h: h.update(tensors={"embed": 0}),
    "entry not an object": lambda h: h["tensors"].append([1, 2]),
    "rank beyond numpy": _entry(0, shape=[0] * 70),
    "config not an object": lambda h: h.update(config=[1, 2]),
    "mistyped config value": _config(dim_h="4"),
    "missing num_nodes": lambda h: h["config"].pop("num_nodes"),
    "huge width": _config(dim_h=10**12),
    "huge depth": _config(sig_depth=10**9),
    "huge trunk": _config(num_layers=10**9),
    "huge channels": _config(in_channels=10**12),
    "extra not an object": lambda h: h.update(extra=3),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_corrupted_checkpoint_header_is_a_data_error(tmp_path, capsys, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), ParamStore(tiny_config(), seed=0))
    path.write_bytes(_with_header(path.read_bytes(), _CORRUPTIONS[case]))
    with pytest.raises(DataError):
        load_checkpoint(str(path))
    assert cli.main(["eval", "--checkpoint", str(path), "--data", "unread.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_header_that_is_not_an_object_is_a_data_error(tmp_path):
    path = tmp_path / "m.ckpt"
    body = b"[1, 2]"
    path.write_bytes(b"STGNRDE1" + struct.pack("<Q", len(body)) + body)
    with pytest.raises(DataError, match="not a JSON object"):
        load_checkpoint(str(path))


_DELETE = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cfg = tiny_config(gnn_kind="chebyshev")
    propagation = normalized_adjacency(adj, "chebyshev")
    save_checkpoint(str(path), ParamStore(cfg, seed=0, propagation=propagation))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_header_field_corruption_only_raises_data_error(saved_checkpoint, data):
    def corrupt(header):
        slots = [(header, k) for k in header]
        slots += [(header["config"], k) for k in header["config"]]
        slots += [(entry, k) for entry in header["tensors"] for k in entry]
        for target, key in data.draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3)):
            value = data.draw(st.one_of(st.just(_DELETE), _JSON))
            if value is _DELETE:
                target.pop(key, None)
            else:
                target[key] = value

    path = saved_checkpoint.with_name("corrupt.ckpt")
    path.write_bytes(_with_header(saved_checkpoint.read_bytes(), corrupt))
    try:
        load_checkpoint(str(path))
    except DataError:
        pass
