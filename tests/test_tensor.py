"""Unit tests for the reverse-mode tensor core."""

import contextlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrde import tensor as T
from graphrde.errors import ContractError, DimensionError, NonFiniteError
from oracles import (clear_tape, finite_difference_grad, matvec, max_grad_mismatch, mul, neg,
                     sum_all, tanh)

# A test that compares against central differences draws from a generator of
# its own, so that no other test's draws move its arrays.
RNG = np.random.default_rng(20240811)
CONTROL = T.constant(RNG.normal(size=(2, 4, 3)))  # an untracked head_matvec control
NO_TRUNK = lambda a: a  # the trunk of a head_matvec call that has none


def check_grads(build, arrays, tol=1e-6):
    """Compare taped gradients of ``build()`` against central differences."""
    params = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*params)
    T.backward(loss)
    analytic = [p.grad for p in params]
    assert all(g is not None for g in analytic)

    def value():
        with T.no_grad():
            return build(*[T.Tensor(a) for a in arrays]).item()

    numeric = finite_difference_grad(value, arrays)
    assert max_grad_mismatch(analytic, numeric) < tol


def test_matmul_value():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]])
    b = T.constant([[1.0], [1.0]])
    assert np.array_equal((a @ b).data, [[3.0], [7.0]])


def test_relu_value_and_zero_grad_in_dead_region():
    x = T.Tensor([-2.0], requires_grad=True)
    y = sum_all(T.relu(x))
    assert y.item() == 0.0
    T.backward(y)
    assert np.array_equal(x.grad, [0.0])


def test_simple_polynomial_gradient():
    # d/dx of sum(x*x + 3x) at x=2 is 2*2+3 = 7
    x = T.Tensor([2.0], requires_grad=True)
    y = sum_all(mul(x, x) + 3.0 * x)
    T.backward(y)
    assert np.allclose(x.grad, [7.0])


@pytest.mark.parametrize(
    "name,build,shapes",
    [
        ("add", lambda a, b: sum_all(tanh(a + b)), [(3, 4), (3, 4)]),
        ("add_bias", lambda a, b: sum_all(tanh(a + b)), [(3, 4), (4,)]),
        ("sub", lambda a, b: sum_all(tanh(a - b)), [(2, 5), (2, 5)]),
        ("mul", lambda a, b: sum_all(tanh(mul(a, b))), [(4, 2), (4, 2)]),
        ("mul_broadcast", lambda a, b: sum_all(tanh(mul(a, b))), [(4,), (3, 4)]),
        ("matmul", lambda a, b: sum_all(tanh(a @ b)), [(3, 4), (4, 2)]),
        ("matmul_stacked_left", lambda a, b: sum_all(tanh(a @ b)), [(2, 3, 4), (4, 2)]),
        ("matmul_stacked_right", lambda a, b: sum_all(tanh(a @ b)), [(3, 4), (2, 4, 2)]),
        ("matvec", lambda a, b: sum_all(tanh(matvec(a, b))), [(2, 3, 4), (2, 4)]),
        ("softmax", lambda a, b: sum_all(mul(T.softmax_rows(a), b)), [(3, 5), (3, 5)]),
        ("relu", lambda a, b: sum_all(mul(T.relu(a), b)), [(4, 4), (4, 4)]),
        ("tanh", lambda a, b: sum_all(mul(tanh(a), b)), [(4, 3), (4, 3)]),
        ("abs", lambda a, b: sum_all(mul(T.absolute(a), b)), [(5,), (5,)]),
        ("scale", lambda a, b: sum_all(mul(T.scale(a, 2.5), b)), [(3,), (3,)]),
        ("mean", lambda a, b: T.mean_all(mul(a, b)), [(6,), (6,)]),
        ("reshape", lambda a, b: sum_all(T.reshape(a, (2, 6)) @ b), [(3, 4), (6, 2)]),
        ("transpose", lambda a, b: sum_all(T.transpose_last2(a) @ b), [(4, 3), (4, 2)]),
        ("neg", lambda a, b: sum_all(mul(tanh(neg(a)), b)), [(3, 3), (3, 3)]),
        (
            "head_matvec",
            lambda a, w, b, x: sum_all(tanh(T.head_matvec(NO_TRUNK, a, w, b, x, 3))),
            [(2, 4, 5), (5, 6), (6,), (2, 4, 3)],
        ),
        (
            "head_matvec_untracked_control",
            lambda a, w, b: sum_all(tanh(T.head_matvec(NO_TRUNK, a, w, b, CONTROL, 3))),
            [(2, 4, 5), (5, 6), (6,)],
        ),
        (
            "head_matvec_trunk",
            lambda h, u, w, b, x: sum_all(tanh(T.head_matvec(lambda t: tanh(t @ u), h, w, b, x, 3))),
            [(2, 4, 5), (5, 5), (5, 6), (6,), (2, 4, 3)],
        ),
    ],
)
def test_op_gradients_match_finite_differences(name, build, shapes):
    rng = np.random.default_rng(101)
    arrays = [rng.normal(size=s) * 0.8 + 0.1 for s in shapes]
    check_grads(build, arrays)


def test_two_layer_composition_gradient():
    def build(w1, b1, w2, x):
        h = T.relu(x @ w1 + b1)
        return T.mean_all(T.absolute(tanh(h @ w2)))

    rng = np.random.default_rng(102)
    arrays = [rng.normal(size=s) for s in [(3, 4), (4,), (4, 2), (5, 3)]]
    check_grads(build, arrays)


def test_fan_in_gradient_accumulates_over_both_paths():
    x = T.Tensor([1.5], requires_grad=True)
    y = sum_all(mul(x, x) + mul(x, x))  # two uses of the same node
    T.backward(y)
    assert np.allclose(x.grad, [6.0])


def test_zero_dim_add_sub_scale_are_arrays_and_back_propagate():
    # arithmetic on 0-d arrays returns numpy scalars, which a node cannot refer to weakly
    a, b = T.Tensor(2.0, requires_grad=True), T.Tensor(3.0, requires_grad=True)
    y = T.scale(T.sub(T.add(a, b), T.scale(b, 4.0)), 0.5)  # (a + b - 4 b) / 2
    assert type(y.data) is np.ndarray and y.data.shape == () and y.item() == -3.5
    T.backward(y)
    assert (a.grad, b.grad) == (0.5, -1.5)
    c = T.constant(1.0)
    for out in (T.add(c, c), T.sub(c, c), T.scale(c, 2.0)):
        assert type(out.data) is np.ndarray and out.data.shape == ()


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    rng = np.random.default_rng(seed)
    s = T.softmax_rows(T.constant(rng.normal(size=(rows, cols)) * 10.0))
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s.data >= 0.0)


def test_broadcast_limited_to_leading_axes():
    a = T.constant(np.ones((3, 1)))
    b = T.constant(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        T.add(a, b)
    # an explicit size-1 axis is not a missing one, leading or not
    with pytest.raises(DimensionError):
        T.add(T.constant(np.ones((1, 4))), b)
    T.add(T.constant(np.ones(())), b)
    # missing leading axes may include size-1 ones
    x = T.Tensor(np.ones((1, 4, 8)), requires_grad=True)
    bias = T.Tensor(np.ones(8), requires_grad=True)
    out = T.add(x, bias)
    T.backward(sum_all(out))
    assert np.array_equal(bias.grad, np.full(8, 4.0))
    assert np.array_equal(x.grad, np.ones((1, 4, 8)))


def test_matmul_rejects_two_stacked_operands():
    a, b = T.constant(np.ones((2, 3, 4))), T.constant(np.ones((2, 4, 5)))
    with pytest.raises(DimensionError, match="both operands are stacked"):
        T.matmul(a, b)


def test_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        T.add(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 4))))
    with pytest.raises(DimensionError):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))
    a, w, b = T.constant(np.ones((2, 3, 4))), T.constant(np.ones((4, 6))), T.constant(np.ones(6))
    with pytest.raises(DimensionError):
        T.head_matvec(NO_TRUNK, a, w, b, T.constant(np.ones((3, 3))), 3)  # leading axes differ
    with pytest.raises(DimensionError):
        T.head_matvec(NO_TRUNK, a, w, b, T.constant(np.ones((2, 3, 4))), 4)  # 4 does not divide 6
    with pytest.raises(DimensionError):
        T.head_matvec(NO_TRUNK, a, w, T.constant(np.ones(3)), T.constant(np.ones((2, 3, 3))), 3)
    with pytest.raises(ContractError):  # a tensor is scaled by numbers only
        T.constant(np.ones(2)) * T.constant(np.ones(2))


def test_non_finite_construction_rejected():
    with pytest.raises(NonFiniteError):
        T.Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        T.Tensor([np.inf])


def test_non_finite_op_output_rejected():
    big = T.constant(np.full((2,), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        mul(big, big)


@pytest.mark.parametrize("factor", [np.inf, -np.inf, np.nan])
def test_scale_by_a_non_finite_factor_is_rejected(factor):
    # the product holds inf or NaN, since 0 * inf is NaN, so the output's check sees it
    a = T.Tensor([1.0, 0.0], requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        T.scale(a, factor)
    assert T.tape_size() == 0


def test_head_matvec_checks_the_pre_activation():
    # tanh maps an overflow to a finite +-1, so the op must check a @ w + b before the tanh
    a = T.constant(np.full((1, 2), 1e200))
    x = T.constant(np.ones((1, 1)))
    w = T.Tensor(np.full((2, 2), 1e200), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=r"a @ w \+ b\)"):
        T.head_matvec(NO_TRUNK, a, w, T.constant(np.zeros(2)), x, 1)
    big = T.constant(np.full(2, 1.7e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=r"a @ w \+ b"):
        T.head_matvec(NO_TRUNK, T.constant(np.ones((1, 2))), T.constant(np.full((2, 2), 1e307)), big, x, 1)
    assert T.tape_size() == 0


def test_head_matvec_is_one_tape_entry_and_matches_the_unfused_chain():
    # a 5-deep head of 2 x 3, and one 64 deep and 4096 wide (64 x 64) as at pemsd4.cfg's
    # width, one tile and one block: the gemm of [a, 1] by [w; b] gives a @ w + b's bits
    wide = np.random.default_rng(64)  # its own, so that the module's draws stay the same
    inputs = [
        ([RNG.normal(size=(2, 4, 5)), RNG.normal(size=(5, 6)), RNG.normal(size=6),
          RNG.normal(size=(2, 4, 3))], 3),
        ([wide.normal(size=(2, 16, 64)), wide.normal(size=(64, 4096)) * 0.1,
          wide.normal(size=4096) * 0.1, wide.normal(size=(2, 16, 64))], 64),
    ]

    def run(arrays, cols, fused):
        a, w, b, x = [T.Tensor(arr, requires_grad=True) for arr in arrays]
        if fused:
            out = T.head_matvec(NO_TRUNK, a, w, b, x, cols)
            assert T.tape_size() == 1
        else:
            head = tanh(a @ w + b)
            out = matvec(T.reshape(head, head.shape[:-1] + (w.shape[1] // cols, cols)), x)
        T.backward(sum_all(tanh(out)))
        return [out.data] + [t.grad for t in (a, w, b, x)]

    for arrays, cols in inputs:
        fused, unfused = run(arrays, cols, True), run(arrays, cols, False)
        for name, got, want in zip(["out", "a", "w", "b", "x"], fused, unfused):
            if name == "w":  # one flat gemm over the leading axis sums in another order
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            else:
                assert np.array_equal(got, want), (cols, name)


def count_head_checks(monkeypatch):
    """A list that gets one entry per check of a head's pre-activation from now on."""
    checks, check = [], T._check_finite

    def counted(data, where, *rest):
        if where == "head_matvec (a @ w + b)":
            checks.append(data.shape)
        check(data, where, *rest)

    monkeypatch.setattr(T, "_check_finite", counted)
    return checks


def test_head_matvec_past_its_overflow_bound_checks_each_tile_and_keeps_the_bits(monkeypatch):
    # a 1e299 entry of a, in a column whose w row is zero: k * max|a| * max|w| is past the
    # bound, but every pre-activation is finite and the bits are those without the entry
    monkeypatch.setattr(T, "HEAD_TILE_BYTES", 8 * 6 * 3)  # 3 rows per tile, 3 tiles
    rng = np.random.default_rng(35)
    a, w = rng.normal(size=(2, 4, 5)), rng.normal(size=(5, 6))
    b, x, weights = rng.normal(size=6), rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 2))
    w[2], w[0, 0] = 0.0, 3.0
    a[..., 2] = 0.0
    big = a.copy()
    big[1, 3, 2] = 1e299
    assert 5 * 1e299 * np.abs(w).max() >= T._PRE_ACTIVATION_BOUND
    checks = count_head_checks(monkeypatch)
    want = run_head_matvec([a, w, b, x, weights], "wbx")
    assert checks == []
    got = run_head_matvec([big, w, b, x, weights], "wbx")
    assert checks == [(3, 6), (3, 6), (2, 6)]  # the forward's tiles, not the backward's blocks
    for name, g, ref in zip(["out", "a", "w", "b", "x"], got, want):
        if name != "w":  # w's row 2 gradient is a's column 2 against the head's
            assert (g is None and ref is None) or np.array_equal(g, ref), name
    assert np.array_equal(np.delete(got[2], 2, axis=0), np.delete(want[2], 2, axis=0))


def test_head_matvec_inside_its_overflow_bound_checks_no_pre_activation(monkeypatch):
    # many tiles and blocks, two workers, two calls on held slots: no element is checked
    monkeypatch.setattr(T, "HEAD_TILE_BYTES", 8 * 12 * 4)
    rng = np.random.default_rng(36)
    arrays = [rng.normal(size=(2, 40, 5)), rng.normal(size=(5, 12)), rng.normal(size=12),
              rng.normal(size=(2, 40, 3)), rng.normal(size=(2, 40, 4))]
    checks = count_head_checks(monkeypatch)
    with head_workers(2):
        for tracked, calls in (("awbx", 2), (None, 1)):
            run_head_matvec(arrays, tracked, calls)
    assert checks == []


def run_head_matvec(arrays, tracked, calls=1):
    """Value and (a, w, b, x) gradients of a weighted sum of one head_matvec.

    ``tracked`` names the inputs that require grad; None runs under no_grad.
    With ``calls=2`` a second call on the same ``a``, ``w`` and ``b``, with
    ``tanh(x)`` as its control, adds its sum to the loss; it is taped last,
    so its backward fills the slots that the first call's backward adds to.
    """
    *inputs, weights = arrays
    ts = [T.Tensor(arr, requires_grad=tracked is not None and name in tracked)
          for name, arr in zip("awbx", inputs)]
    if tracked is None:
        with T.no_grad():
            return [T.head_matvec(NO_TRUNK, *ts, 3).data]
    out = T.head_matvec(NO_TRUNK, *ts, 3)
    loss = sum_all(mul(out, T.constant(weights)))
    if calls == 2:
        loss = loss + sum_all(T.head_matvec(NO_TRUNK, *ts[:3], tanh(ts[3]), 3))
    T.backward(loss)
    return [out.data] + [t.grad for t in ts]


@contextlib.contextmanager
def head_workers(count):
    """Run head_matvec's tiles on ``count`` workers, the calling thread among them."""
    pool, saved = T._TilePool(count), T._HEAD_POOL
    T._HEAD_POOL = pool
    try:
        yield
    finally:
        T._HEAD_POOL = saved
        within(60, pool.executor.shutdown)  # joins the workers


def within(seconds, fn):
    """``fn()`` run on a helper thread that must finish within ``seconds``."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:  # handed back to the test thread below
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    if "error" in result:
        raise result["error"]
    return result["value"]


@pytest.mark.parametrize("tracked, calls", [("awbx", 1), ("x", 1), (None, 1), ("awbx", 2)],
                         ids=["awbx", "x", "None", "awbx-two-calls"])
def test_head_matvec_is_tile_invariant(monkeypatch, tracked, calls):
    # 2 x 40 rows of a 12-wide head of 4 head rows, one backward block by default: forward
    # tiles of 1, 3, 32 and 60 rows (all but the first leave a partial last tile), and
    # backward blocks of 1 head row (the first three) and of 3 (a partial last block).
    # With two calls on one w, the first call's blocks add into the slots the second's filled.
    arrays = [RNG.normal(size=(2, 40, 5)), RNG.normal(size=(5, 12)), RNG.normal(size=12),
              RNG.normal(size=(2, 40, 3)), RNG.normal(size=(2, 40, 4))]
    want = run_head_matvec(arrays, tracked, calls)
    for tile_bytes in (8 * 12 * 1, 8 * 12 * 3, 8 * 12 * 32, 8 * 80 * 3 * 3):
        monkeypatch.setattr(T, "HEAD_TILE_BYTES", tile_bytes)
        by_workers = {}
        for workers in (1, 2, 3):
            with head_workers(workers):
                by_workers[workers] = run_head_matvec(arrays, tracked, calls)
        got = by_workers[1]
        assert len(got) == len(want)
        for workers in (2, 3):  # the same tiles, blocks and numpy calls, so the same bits
            for name, g, ref in zip(["out", "a", "w", "b", "x"], by_workers[workers], got):
                assert (g is None and ref is None) or np.array_equal(g, ref), (workers, name)
        for name, g, ref in zip(["out", "a", "w", "b", "x"], got, want):
            if ref is None:  # an untracked input
                assert g is None, (tile_bytes, name)
                continue
            # BLAS may round a gemm of a few rows differently from a larger one, and blocks
            # sum a's and x's gradients in parts
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), (tile_bytes, name)


def child_env(threads=None):
    """This environment for a child that imports graphrde, with both BLAS variables set to
    ``threads`` or unset."""
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in variables}
    if threads is not None:
        env.update(dict.fromkeys(variables, threads))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(T.__file__))
    return env


def test_head_matvec_builds_w_and_b_in_one_workspace_of_its_pool():
    # made and freed per call, a large [w; b] moved glibc's threshold for mapping large
    # requests, and a pemsd4.cfg step's peak RSS with it
    rng = np.random.default_rng(37)  # its own, so that the module's draws stay the same

    def head(k, n):  # run_head_matvec's arrays for a (k, n) head of 3 columns over 2 x 40 rows
        return [rng.normal(size=(2, 40, k)), rng.normal(size=(k, n)), rng.normal(size=n),
                rng.normal(size=(2, 40, 3)), rng.normal(size=(2, 40, n // 3))]

    with head_workers(2):
        pool = T._HEAD_POOL
        run_head_matvec(head(5, 12), "awbx")
        workspace = pool.workspace
        assert workspace.size == 6 * 12
        for k, n in ((5, 12), (3, 9)):  # no larger head: the same buffer
            run_head_matvec(head(k, n), "awbx")
            assert pool.workspace is workspace
        run_head_matvec(head(7, 24), "awbx")  # a larger one: grown to its size
        assert pool.workspace.size == 8 * 24


def test_head_matvec_starts_its_workers_with_the_first_multi_tile_call(monkeypatch):
    imported = subprocess.run(
        [sys.executable, "-c", "import threading, graphrde.cli; print(threading.active_count())"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert imported.stdout.split() == ["1"], imported.stderr
    monkeypatch.setattr(T, "HEAD_TILE_BYTES", 8 * 12 * 8)  # 8 rows per tile
    arrays = [RNG.normal(size=(8, 5)), RNG.normal(size=(5, 12)), RNG.normal(size=12),
              RNG.normal(size=(8, 3)), RNG.normal(size=(8, 4))]
    before = set(threading.enumerate())  # the default pool may have started threads already

    def workers_alive():
        return sum(t.name.startswith("head_matvec") for t in set(threading.enumerate()) - before)

    with head_workers(3):
        run_head_matvec(arrays, "awbx")  # one tile
        assert workers_alive() == 0
        a, w, b, x, weights = arrays
        run_head_matvec([np.vstack([a, a]), w, b, np.vstack([x, x]), np.vstack([weights] * 2)],
                        "awbx")  # two tiles
        # threads start on demand, for helpers that find none idle, up to workers - 1
        assert 1 <= workers_alive() <= 2
    assert workers_alive() == 0


# Run in a child, whose BLAS starts as the environment set it.  Prints the OpenBLAS thread
# count before and after importing graphrde, the head workers, the count once the pool is
# made, and the CPUs this process may run on; with "missing", the OpenBLAS lookup finds none.
BLAS_POLICY_CHILD = """
import ctypes, json, os, sys
import numpy as np
core = ctypes.CDLL(np.empty.__self__.__file__)
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
get = next((getattr(core, name) for name in names if hasattr(core, name)), None)
if get is None:
    sys.exit(77)
before = get()
import graphrde.cli
from graphrde import tensor as T
imported = get()
if sys.argv[1] == "missing":
    T._openblas_set_threads = lambda: None
workers = T._head_pool().workers
print(json.dumps([before, imported, workers, get(), len(os.sched_getaffinity(0))]))
"""


def blas_policy(threads, lookup):
    """``BLAS_POLICY_CHILD``'s record, with both BLAS variables set to ``threads`` or unset."""
    done = subprocess.run([sys.executable, "-c", BLAS_POLICY_CHILD, lookup],
                          env=child_env(threads), capture_output=True, text=True, timeout=60)
    if done.returncode == 77:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its thread count")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("threads", [None, "1", "3"])
def test_head_pool_has_a_worker_per_cpu_and_blas_one_thread_whatever_the_environment(threads):
    before, imported, workers, after, cpus = blas_policy(threads, "found")
    assert imported == before  # importing graphrde sets no BLAS thread count
    assert workers == cpus and after == 1


@pytest.mark.parametrize("threads", [None, "3"])
def test_head_pool_without_numpys_openblas_has_one_worker_and_leaves_blas_alone(threads):
    before, imported, workers, after, _ = blas_policy(threads, "missing")
    assert workers == 1 and after == imported == before


def test_head_matvec_raises_the_first_error_in_tile_order(monkeypatch):
    # 6 rows of a 2-wide head in tiles of 2 rows, shared by 1, 2 and 3 workers; each check
    # sleeps, so that every worker has woken and taken a tile before the first one is done
    monkeypatch.setattr(T, "HEAD_TILE_BYTES", 8 * 2 * 2)
    check = T._check_finite

    def slow_check(data, *rest):  # tags its error with the tile's first non-finite value
        time.sleep(0.005)
        try:
            check(data, *rest)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{data[~np.isfinite(data)][0]}: {exc}") from None

    monkeypatch.setattr(T, "_check_finite", slow_check)
    x, zero_b = T.constant(np.ones((6, 1))), T.constant(np.zeros(2))

    def a_rows(values):  # a 6 x 2 ``a``, zero outside the rows given
        out = np.zeros((6, 2))
        for row, value in values.items():
            out[row] = value
        return out

    w, big_b = T.constant(np.full((2, 2), 1e307)), T.constant(np.full(2, 1.7e308))
    cases = [  # head inputs, and the message of the first failing tile
        ((T.constant(a_rows({5: 1e10})), w, zero_b), r"^inf: .*\(a @ w \+ b\)$"),
        ((T.Tensor(a_rows({5: 1.0}), requires_grad=True), w, big_b), r"^inf: .*\(a @ w \+ b\)$"),
        # tiles 1 and 2 both fail, tile 1 with inf and tile 2 with -inf: tile 1's error wins
        ((T.constant(a_rows({2: 1.0, 5: -1e10})), w, big_b), r"^inf: .*\(a @ w \+ b\)$"),
    ]

    def call(inputs):
        # an overflow warning is an error here, so workers must run under this errstate too
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            return T.head_matvec(NO_TRUNK, *inputs, x, 1)

    for inputs, pattern in cases:
        messages = {}
        for workers in (1, 2, 3):
            with head_workers(workers):
                with pytest.raises(NonFiniteError) as err:
                    within(60, lambda: call(inputs))
                messages[workers] = str(err.value)
                # the pool survives the error
                finite = (T.constant(np.ones((6, 2))), T.constant(np.ones((2, 2))), zero_b)
                out = within(60, lambda: call(finite))
                assert np.array_equal(out.data, np.full((6, 2), np.tanh(2.0)))
        assert messages[3] == messages[2] == messages[1]
        assert re.search(pattern, messages[1]), messages[1]
    assert T.tape_size() == 0


@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("count", [1, 2, 8])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tile_pool_run_returns_only_after_every_thread_it_gave_work(workers, count, fails):
    pool, futures, ran = T._TilePool(workers), [], []
    submit = pool.executor.submit

    def late_submit(call, *args):  # each helper wakes late, so the caller may take every j
        futures.append(submit(lambda: (time.sleep(0.02), call(*args))))
        return futures[-1]

    pool.executor.submit = late_submit

    def fn(slot, j):
        time.sleep(0.005)
        ran.append((slot, j))
        if fails and j == count - 1:
            raise RuntimeError(f"j {j} failed")

    try:
        raised = pytest.raises(RuntimeError, match=f"^j {count - 1} failed$")
        with raised if fails else contextlib.nullcontext():
            within(60, lambda: pool.run(fn, count))
        assert all(future.done() for future in futures)
        assert len(futures) == min(workers, count) - 1
        assert sorted(j for _, j in ran) == list(range(count))
        assert {slot for slot, _ in ran} <= set(range(workers))
    finally:
        within(60, pool.executor.shutdown)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_head_matvec_backward_block_that_raises_neither_hangs_nor_writes(monkeypatch, workers):
    # 2 x 40 rows of a 12-wide head, in 4 backward blocks of one head row.  Each block adds
    # its parts after the one before it, so a block that raised and kept its turn would
    # leave every later block waiting.
    rng = np.random.default_rng(25)  # its own, so that the module's draws stay the same
    arrays = [rng.normal(size=shape) for shape in [(2, 40, 5), (5, 12), 12, (2, 40, 3), (2, 40, 4)]]
    monkeypatch.setattr(T, "HEAD_TILE_BYTES", 8 * 80 * 3)
    tanh = np.tanh
    with head_workers(workers):
        want = run_head_matvec(arrays, "awbx")
        for k in (0, 2):
            calls = itertools.count()

            def failing_tanh(*args, **kwargs):  # each backward block calls it once
                if next(calls) == k:
                    raise RuntimeError(f"block {k} failed")
                return tanh(*args, **kwargs)

            ts = [T.Tensor(arr, requires_grad=True) for arr in arrays[:4]]
            loss = sum_all(mul(T.head_matvec(NO_TRUNK, *ts, 3), T.constant(arrays[4])))
            monkeypatch.setattr(np, "tanh", failing_tanh)  # for the backward only
            with pytest.raises(RuntimeError, match=f"^block {k} failed$"):
                within(60, lambda: T.backward(loss))
            monkeypatch.setattr(np, "tanh", tanh)
            assert all(t.grad is None for t in ts), k
            assert T.tape_size() == 0
            # the pool survives: the next forward and backward give a fresh run's bits
            got = within(60, lambda: run_head_matvec(arrays, "awbx"))
            assert all(np.array_equal(g, r) for g, r in zip(got, want)), k


def test_head_matvec_stays_bitwise_equal_under_thread_stress(monkeypatch):
    # more workers than CPUs, and a thread switch at every chance; 120 rows of a 12-wide
    # head of 4 head rows, in forward tiles of 2 rows and backward blocks of 1 head row,
    # or in tiles of 90 rows and blocks of 3 head rows, whose last tile and block are partial
    arrays = [RNG.normal(size=(4, 30, 5)), RNG.normal(size=(5, 12)), RNG.normal(size=12),
              RNG.normal(size=(4, 30, 3)), RNG.normal(size=(4, 30, 4))]
    sizes = (8 * 12 * 2, 8 * 120 * 3 * 3)
    # and one row whose gemm overflows, in tile 37 of 60, or in tile 0 of 2
    bad = [arr.copy() for arr in arrays]
    bad[0][2, 15] = 1e200
    bad[1] *= 1e200

    def overflow():
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=r"\(a @ w \+ b\)$"):
            run_head_matvec(bad, None)

    want = {}
    with head_workers(1):
        for size in sizes:
            monkeypatch.setattr(T, "HEAD_TILE_BYTES", size)
            for tracked in ("awbx", None):
                want[size, tracked] = run_head_matvec(arrays, tracked)
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 5.0
    runs = 0
    try:
        sys.setswitchinterval(1e-6)
        with head_workers(4):
            while runs < 40 and time.monotonic() < deadline:
                for (size, tracked), ref in want.items():
                    monkeypatch.setattr(T, "HEAD_TILE_BYTES", size)
                    got = within(60, lambda: run_head_matvec(arrays, tracked))
                    assert all(np.array_equal(g, r) for g, r in zip(got, ref)), (runs, size, tracked)
                    within(60, overflow)
                runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert runs >= 2


def test_head_matvec_holds_a_head_only_inside_its_backward():
    # 512 rows of a 64 x 64 head: 16 MiB of head, 1 MiB per default tile
    rows = cols = 64
    head_bytes, k = 512 * rows * cols * 8, 8
    arrays = [RNG.normal(size=(8, 64, k)) * 0.1, RNG.normal(size=(k, rows * cols)) * 0.1,
              RNG.normal(size=rows * cols) * 0.1, RNG.normal(size=(8, 64, cols))]

    def traced(fn):
        """``fn()`` and the peak of the memory traced while it ran."""
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def chain(a, w, b, x, calls):  # each call's output is the next call's control
        for _ in range(calls):
            x = T.head_matvec(NO_TRUNK, a, w, b, x, cols)
        return sum_all(x)

    # the backward's peak, in heads: 0.157 with one worker and 0.244 with two, as each worker
    # holds a 1 MiB block, 128 KiB of g ⊗ x and its parts of x's and a's gradients; 0.204 and
    # 0.292 for four calls taped together, whose later backwards add w's gradient into its slot
    # a block's columns at a time.  Each bound is the larger plus 0.05 of a head (0.8 MiB).
    backward_bound = {1: 0.26, 2: 0.35}
    for workers in (1, 2):
        with head_workers(workers):
            untracked = [T.constant(arr) for arr in arrays]
            with T.no_grad():
                assert traced(lambda: T.head_matvec(NO_TRUNK, *untracked, cols))[1] < 4 * 2**20
            # a taped forward keeps no head for its backward...
            a, w, b, x = [T.Tensor(arr, requires_grad=True) for arr in arrays]
            loss, peak = traced(lambda: chain(a, w, b, x, 1))
            assert peak < head_bytes / 4
            # ...which recomputes it block by block, and never holds a whole head
            peak = traced(lambda: T.backward(loss))[1]
            assert peak < backward_bound[workers] * head_bytes, (workers, peak / head_bytes)
            assert all(t.grad is not None for t in (a, w, b, x))
            # so calls taped together hold blocks of one head at a time
            a, w, b, x = [T.Tensor(arr, requires_grad=True) for arr in arrays]
            peak = traced(lambda: T.backward(chain(a, w, b, x, 4)))[1]
            assert peak < backward_bound[workers] * head_bytes, (workers, peak / head_bytes)


def test_head_matvec_frees_its_head_before_the_trunk_backward_runs():
    rows = cols = 64  # 512 rows of a 64 x 64 head: 16 MiB of head
    head_bytes, k = 512 * rows * cols * 8, 8
    arrays = [RNG.normal(size=(8, 64, k)) * 0.1, RNG.normal(size=(k, rows * cols)) * 0.1,
              RNG.normal(size=rows * cols) * 0.1, RNG.normal(size=(8, 64, cols))]
    held = []

    def trunk(t):  # one op whose backward reads how much is held when it runs
        def backward_fn(g):
            held.append(tracemalloc.get_traced_memory()[0])
            T._accumulate(t.node, g)

        return T._make(t.data + 0.0, (t,), backward_fn, "probe")

    a, w, b, x = [T.Tensor(arr, requires_grad=True) for arr in arrays]
    loss = sum_all(T.head_matvec(trunk, a, w, b, x, cols))
    tracemalloc.start()
    try:
        T.backward(loss)
    finally:
        tracemalloc.stop()
    # held: the gradients made so far and the trunk's output, about 0.6 MiB
    assert len(held) == 1 and held[0] < head_bytes / 4
    assert all(t.grad is not None for t in (a, w, b, x))


def test_backward_drops_each_entry_once_it_has_run():
    rng = np.random.default_rng(34)  # its own, so that the module's draws stay the same
    p = T.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    seen = []

    def probe(t):  # an earlier entry, whose backward sees whether the last entry's array lives
        def backward_fn(g):
            seen.append(kept())
            T._accumulate(t.node, g)

        return T._make(t.data + 0.0, (t,), backward_fn, "probe")

    q = probe(p)
    values = rng.normal(size=(4, 1))
    column = T.constant(values.copy())
    kept = weakref.ref(column.data)
    loss = q @ column  # the last entry, the only one that keeps the column, for q's gradient
    del column
    assert kept() is not None
    T.backward(loss)
    assert seen == [None]
    assert np.array_equal(p.grad, values.T)


def test_backward_releases_intermediate_grads_and_keeps_leaf_grads():
    p = T.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    mid = tanh(p)
    loss = sum_all(mul(mid, mid))
    T.backward(loss)
    assert mid.grad is None and loss.grad is None
    assert np.allclose(p.grad, 2.0 * mid.data * (1.0 - mid.data**2))


def test_tape_frees_every_output_that_no_backward_reads():
    rng = np.random.default_rng(103)
    arrays = [rng.normal(size=s) for s in [(4, 3), (3, 5), (5,), (5, 2)]]
    x, w, b, v = [T.Tensor(arr, requires_grad=True) for arr in arrays]
    refs = {}

    def watch(name, t):
        refs[name] = weakref.ref(t.data)
        return t

    hidden = watch("relu", T.relu(watch("add", watch("matmul", x @ w) + b)))
    # add's and relu's backwards read no input array, so x @ w and + b are gone
    assert refs["matmul"]() is None and refs["add"]() is None
    loss = sum_all(tanh(hidden @ v))
    del hidden
    # the matmul that reads it for v's gradient keeps the relu output until backward
    assert refs["relu"]() is not None
    T.backward(loss)
    assert refs["relu"]() is None

    def value():
        with T.no_grad():
            x, w, b, v = [T.Tensor(arr) for arr in arrays]
            return sum_all(tanh(T.relu(x @ w + b) @ v)).item()

    numeric = finite_difference_grad(value, arrays)
    assert max_grad_mismatch([t.grad for t in (x, w, b, v)], numeric) < 1e-6


RECOMPUTE_ARRAYS = {name: RNG.normal(size=shape) for name, shape in
                    [("p", (2, 3, 4)), ("q", (4, 4)), ("w", (4, 5)), ("b", (5,)), ("u", (5, 4)),
                     ("v", (4, 8)), ("c", (8,)), ("control", (2, 3, 2))]}
# the head of the recompute tests below: weight (2, 2), bias (2,), control (3, 1)
SMALL_HEAD = [T.constant(RNG.normal(size=shape)) for shape in [(2, 2), (2,), (3, 1)]]


def recompute_case(wrapped, tracked):
    """Tape entries, output, loss and gradients of a loss that reads ``x``
    inside and outside ``block``.

    ``block`` reads ``x`` twice, ``w`` and ``u``; wrapped, it is the trunk of
    a ``head_matvec`` that runs it again in the backward, else it runs taped
    in place under a head with no trunk.  The head's weight is ``v``.
    ``tracked`` names which of ``x``, ``w``, ``u`` and ``v`` are tracked,
    ``x`` as an op output of ``p``.
    """
    arrays = RECOMPUTE_ARRAYS
    w, u, v = [T.Tensor(arrays[name], requires_grad=name in tracked) for name in "wuv"]
    p = T.Tensor(arrays["p"], requires_grad=True)
    x = p @ T.constant(arrays["q"]) if "x" in tracked else T.constant(arrays["p"])
    c, control = T.constant(arrays["c"]), T.constant(arrays["control"])

    def block(t):
        return T.relu(t @ w + T.constant(arrays["b"])) @ u + t

    if wrapped:
        out = T.head_matvec(block, x, v, c, control, 2)
    else:
        out = T.head_matvec(NO_TRUNK, block(x), v, c, control, 2)
    loss = sum_all(tanh(out + x))
    entries = T.tape_size()
    T.backward(loss)
    return entries, [out.data, loss.data] + [t.grad for t in (p, w, u, v)]


@pytest.mark.parametrize("tracked", ["xwuv", "wuv", "xv", "v"])
def test_recompute_is_bit_identical_to_the_unwrapped_function(tracked):
    wrapped_entries, wrapped = recompute_case(True, tracked)
    plain_entries, plain = recompute_case(False, tracked)
    for got, want in zip(wrapped, plain):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)
    block_entries = 0 if tracked == "v" else 5  # matmul, add, relu, matmul, add
    assert wrapped_entries == plain_entries - block_entries


def test_recompute_output_is_tracked_exactly_when_the_function_would_be():
    x, w = T.constant(RNG.normal(size=(3, 2))), T.constant(RNG.normal(size=(2, 2)))
    out = T.head_matvec(lambda t: T.relu(t @ w), x, *SMALL_HEAD, 1)
    assert not out.requires_grad and T.tape_size() == 0
    w = T.Tensor(w.data, requires_grad=True)
    out = T.head_matvec(lambda t: T.relu(t @ w), x, *SMALL_HEAD, 1)
    assert out.requires_grad and T.tape_size() == 1
    clear_tape()
    # an output not made by the trunk's own ops is taken again from a re-run too
    y = T.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    calls = []

    def trunk(t):
        calls.append(t)
        return y

    T.backward(sum_all(T.head_matvec(trunk, x, *SMALL_HEAD, 1)))
    got = y.grad
    y.grad = None
    T.backward(sum_all(T.head_matvec(NO_TRUNK, y, *SMALL_HEAD, 1)))
    assert len(calls) == 2 and calls[0] is x and calls[1].data is x.data
    assert np.array_equal(got, y.grad)


def test_recompute_under_no_grad_is_the_function():
    x = T.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    calls = []

    def block(t):
        calls.append(t)
        return T.relu(t @ T.constant(np.ones((2, 2))))

    with T.no_grad():
        out = T.head_matvec(block, x, *SMALL_HEAD, 1)
        assert calls == [x] and not out.requires_grad and T.tape_size() == 0
        want = T.head_matvec(NO_TRUNK, T.constant(np.maximum(x.data @ np.ones((2, 2)), 0.0)),
                             *SMALL_HEAD, 1)
    assert np.array_equal(out.data, want.data)


def test_recompute_keeps_none_of_the_functions_intermediates():
    x = T.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    w = T.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    refs = []

    def block(t):
        for _ in range(3):
            t = T.relu(t @ w)
            refs.append(weakref.ref(t.data))
        return t

    out = T.head_matvec(block, x, *SMALL_HEAD, 1)
    # the two layers before the last would be kept by the next layer's matmul
    # for w's gradient if the block were taped in place, and the last by the head
    assert [ref() is None for ref in refs] == [True, True, True]
    assert T.tape_size() == 1
    T.backward(sum_all(tanh(out)))
    assert len(refs) == 6  # the backward ran the block once more
    assert x.grad is not None and w.grad is not None


def test_recompute_restores_the_outer_tape_when_the_rerun_raises():
    x = T.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    fail = []

    def block(t):
        if fail:
            raise NonFiniteError("re-run fails")
        return T.relu(t @ T.constant(np.ones((2, 2))))

    out = sum_all(T.head_matvec(block, x, *SMALL_HEAD, 1))
    outer = T._TAPE
    _, backward_fn = outer[-2]
    fail.append(True)
    with pytest.raises(NonFiniteError, match="re-run fails"):
        backward_fn(np.ones((3, 2)))
    assert T._TAPE is outer and len(outer) == 2 and T._GRAD_ENABLED
    with pytest.raises(NonFiniteError, match="re-run fails"):
        T.backward(out)
    assert T._TAPE is outer and T.tape_size() == 0
    fail.clear()
    T.backward(sum_all(T.head_matvec(block, x, *SMALL_HEAD, 1)))  # the tape works on
    assert x.grad is not None


def test_recompute_refuses_an_untracked_rerun_of_a_tracked_output():
    x = T.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    calls = []

    def block(t):
        calls.append(t)
        out = T.relu(t @ T.constant(np.ones((2, 2))))
        return out if len(calls) == 1 else T.constant(out.data)

    out = sum_all(T.head_matvec(block, x, *SMALL_HEAD, 1))
    outer = T._TAPE
    with pytest.raises(ContractError, match="re-run is untracked"):
        T.backward(out)
    assert len(calls) == 2 and x.grad is None
    assert T._TAPE is outer and T.tape_size() == 0 and T._GRAD_ENABLED


def test_a_tape_node_reads_its_output_while_the_output_lives():
    p = T.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    out = p @ T.constant(RNG.normal(size=(3, 4)))
    node, _ = T._TAPE[-1]
    assert node.data is out.data
    del out
    assert node.data.size == 0
    clear_tape()


def test_a_head_output_kept_as_the_next_heads_control_reads_its_bytes():
    rng = np.random.default_rng(33)  # its own, so that the module's draws stay the same
    a, w, b, x = [T.Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in [(2, 4, 5), (5, 9), 9, (2, 4, 3)]]
    first = T.head_matvec(NO_TRUNK, a, w, b, x, 3)
    node, _ = T._TAPE[-1]
    T.head_matvec(NO_TRUNK, a, w, b, first, 3)
    nbytes = first.data.nbytes
    del first  # now kept only by the second call's entry, as its control
    assert node.data.nbytes == nbytes
    clear_tape()


def test_an_untracked_tensor_refuses_a_gradient():
    c = T.constant([1.0, 2.0])
    assert c.grad is None
    with pytest.raises(ContractError):
        c.grad = np.ones(2)
    assert c.grad is None


def test_backward_requires_scalar_tracked_loss():
    p = T.Tensor(np.ones((2, 2)), requires_grad=True)
    vec = p + T.constant(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        T.backward(vec)
    clear_tape()
    const = sum_all(T.constant(np.ones(3)))
    with pytest.raises(ContractError):
        T.backward(const)
    clear_tape()


def test_untracked_inputs_get_no_gradient():
    p = T.Tensor([2.0], requires_grad=True)
    c = T.constant([3.0])
    y = sum_all(mul(p, c))
    T.backward(y)
    assert np.allclose(p.grad, [3.0])
    assert c.grad is None


def test_tape_cleared_and_single_backward_per_forward():
    p = T.Tensor([1.0], requires_grad=True)
    y = sum_all(mul(p, p))
    assert T.tape_size() > 0
    T.backward(y)
    assert T.tape_size() == 0
    with pytest.raises(ContractError):
        T.backward(y)


def test_no_grad_suppresses_taping():
    p = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = sum_all(mul(p, p))
    assert not y.requires_grad
    assert T.tape_size() == 0


def test_no_grad_inside_a_taped_forward_adds_nothing_to_the_outer_tape():
    arrays = [RNG.normal(size=(2, 3)), RNG.normal(size=(3, 3))]

    def grad(block: bool) -> np.ndarray:
        p, w = T.Tensor(arrays[0], requires_grad=True), T.constant(arrays[1])
        h = T.relu(p @ w)
        outer, before = T._TAPE, list(T._TAPE)
        if block:
            with T.no_grad():
                side = T.relu(h @ w) - h
                assert not side.requires_grad and T.tape_size() == 0
            assert T._TAPE is outer and T._TAPE == before
        loss = sum_all(mul(h @ w, h))
        assert T._TAPE[: len(before)] == before and T.tape_size() > len(before)
        T.backward(loss)
        return p.grad

    assert np.array_equal(grad(True), grad(False))


def test_backward_is_bit_deterministic():
    arrays = [RNG.normal(size=(4, 4)), RNG.normal(size=(4, 2))]

    def run():
        w = T.Tensor(arrays[0].copy(), requires_grad=True)
        x = T.Tensor(arrays[1].copy(), requires_grad=True)
        loss = T.mean_all(T.absolute(tanh(w @ x)))
        T.backward(loss)
        return w.grad.copy(), x.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])
