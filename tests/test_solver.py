"""Unit tests for the fixed-step solvers."""

import numpy as np
import pytest

from graphrde import tensor as T
from graphrde.errors import BlowupError, ConfigError
from graphrde.model import (
    ModelConfig, ParamStore, augmented_rhs, graph_operator, init_state, readout,
)
from graphrde.solver import SolveSpec, convergence_order, integrate, step
from oracles import clear_tape, finite_difference_grad

RNG = np.random.default_rng(31337)


def test_solve_spec_validation():
    SolveSpec(method="euler", steps_per_window=1)
    with pytest.raises(ConfigError):
        SolveSpec(method="midpoint")
    with pytest.raises(ConfigError):
        SolveSpec(steps_per_window=0)


def decay_rhs(ts):
    return [-1.0 * t for t in ts]


def test_euler_single_unit_step_annihilates_linear_decay():
    out = step("euler", decay_rhs, [T.constant(1.0)], 1.0)
    assert out[0].item() == 0.0


def test_euler_matches_compound_decay_factor():
    state = [T.constant(1.0)]
    for _ in range(4):
        state = step("euler", decay_rhs, state, 0.25)
    assert abs(state[0].item() - 0.75**4) < 1e-15


def test_rk4_single_step_matches_stability_polynomial():
    h = 0.5
    out = step("rk4", decay_rhs, [T.constant(1.0)], h)
    want = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    assert abs(out[0].item() - want) < 1e-15


def test_measured_convergence_orders():
    assert abs(convergence_order("euler") - 1.0) < 0.2
    assert abs(convergence_order("rk4") - 4.0) < 0.5


def test_integrate_covers_every_window_exactly():
    # constant unit derivative: the final state equals init plus one unit
    # of time per window, which checks step x h lands exactly on each end
    coords = np.zeros((3, 1, 2))
    init = [T.constant(np.zeros((1, 2)))]

    def rhs(state, ell):
        return [T.constant(np.ones((1, 2)))]

    for method in ("euler", "rk4"):
        for steps in (1, 2, 3):
            out = integrate(init, coords, SolveSpec(method, steps), rhs)
            assert np.allclose(out[0].data, 3.0, atol=1e-12)


def test_integrate_passes_each_window_its_control():
    coords = RNG.normal(size=(3, 1, 2))
    seen = []

    def rhs(state, ell):
        seen.append(ell.data)
        return [0.0 * state[0]]

    integrate([T.constant(np.zeros((1, 2)))], coords, SolveSpec("rk4", 2), rhs)
    assert len(seen) == 3 * 2 * 4  # windows x steps x stages
    for i, ell in enumerate(seen):
        assert np.array_equal(ell, coords[i // 8])


def test_integrate_linear_ode_against_closed_form():
    lam = -0.7
    coords = np.zeros((2, 1, 2))
    init = [T.constant(np.full((1, 2), 3.0))]

    def rhs(state, ell):
        return [lam * state[0]]

    out = integrate(init, coords, SolveSpec("rk4", 8), rhs)
    assert np.allclose(out[0].data, 3.0 * np.exp(lam * 2.0), atol=1e-7)
    out_e = integrate(init, coords, SolveSpec("euler", 512), rhs)
    assert np.allclose(out_e[0].data, 3.0 * np.exp(lam * 2.0), atol=2e-3)


def test_integrate_detects_blowup_with_location():
    coords = np.zeros((2, 1, 2))
    init = [T.constant(np.full((1, 2), 10.0))]

    def rhs(state, ell):
        with np.errstate(over="ignore"):
            return [1e308 * state[0]]

    with pytest.raises(BlowupError) as err:
        integrate(init, coords, SolveSpec("euler", 1), rhs)
    assert err.value.window == 0
    assert err.value.step == 0


def model_rhs(ps, cfg):
    prop = graph_operator(ps, cfg)
    return lambda state, ell: augmented_rhs(state, ell, prop, ps, cfg)


def test_field_head_overflow_is_a_blowup():
    # a @ f_head_w overflows, which tanh alone would hide as a finite 1
    cfg = ModelConfig(num_nodes=2, input_len=5, horizon=1, dim_h=3, num_layers=0,
                      sig_depth=2, subpath_len=2, variant="temporal_only")
    ps = ParamStore(cfg, seed=0)
    ps["f_w0"].data[:] = 0.0
    ps["f_b0"].data[:] = 1.0  # trunk output is all ones
    ps["f_head_w"].data[:] = 1e308
    init = init_state(T.constant(np.zeros((2, 1))), ps, cfg)
    coords = np.ones((2, 2, cfg.logsig_dim))
    with np.errstate(over="ignore"), pytest.raises(BlowupError, match=r"a @ w \+ b\)") as err:
        integrate(init, coords, SolveSpec("rk4", 2), model_rhs(ps, cfg))
    assert (err.value.window, err.value.step) == (0, 0)
    clear_tape()


def full_forward(cfg, ps, spec, f0, coords):
    state = init_state(T.constant(f0), ps, cfg)
    final = integrate(state, coords, spec, model_rhs(ps, cfg))
    return readout(final, ps, cfg)


def test_gradient_flows_through_integrate():
    cfg = ModelConfig(num_nodes=2, in_channels=1, input_len=5, horizon=2, dim_h=3, dim_z=3,
                      num_layers=0, embed_dim=2, sig_depth=1, subpath_len=2)
    ps = ParamStore(cfg, seed=2)
    f0 = RNG.normal(size=(2, 1))
    coords = RNG.normal(size=(2, 2, cfg.logsig_dim)) * 0.5
    spec = SolveSpec("rk4", 2)

    loss = T.mean_all(T.absolute(full_forward(cfg, ps, spec, f0, coords)))
    T.backward(loss)
    analytic = {name: t.grad.copy() for name, t in ps.tracked()}
    assert all(g is not None for g in analytic.values())

    for name in ("init_h_w", "f_head_w", "g_w0", "out_w", "embed"):
        arr = ps[name].data

        def value():
            with T.no_grad():
                return T.mean_all(
                    T.absolute(full_forward(cfg, ps, spec, f0, coords))
                ).item()

        # spot-check a handful of coordinates per tensor
        flat = arr.reshape(-1)
        gflat = analytic[name].reshape(-1)
        idx = np.linspace(0, flat.size - 1, min(4, flat.size)).astype(int)
        for i in idx:
            orig = flat[i]
            eps = 1e-5
            flat[i] = orig + eps
            up = value()
            flat[i] = orig - eps
            down = value()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6) < 1e-4


def test_batched_integration_matches_per_sample():
    cfg = ModelConfig(num_nodes=2, in_channels=1, input_len=5, horizon=2, dim_h=3, dim_z=3,
                      num_layers=0, embed_dim=2, sig_depth=1, subpath_len=2)
    ps = ParamStore(cfg, seed=7)
    spec = SolveSpec("rk4", 2)
    batch = 3
    f0 = RNG.normal(size=(batch, 2, 1))
    coords = RNG.normal(size=(2, batch, 2, cfg.logsig_dim)) * 0.5
    with T.no_grad():
        together = full_forward(cfg, ps, spec, f0, coords).data
        for i in range(batch):
            single = full_forward(cfg, ps, spec, f0[i], coords[:, i]).data
            assert np.allclose(together[i], single, atol=1e-13)
