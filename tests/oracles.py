"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written by a different route than the
library code: plain finite differences, dense linear solves, numerical
quadrature and exhaustive enumeration.  Three exceptions: the inverse
maps ``tensor_exp`` and ``lyndon_expand``, which only tests need; the
per-cell log-signature front end, which keeps the one-cell-at-a-time
float operation order the batched library code must reproduce bit for
bit; and the unfused field heads at the end of this file, which tape
each head as separate ops and rebuild the graph operator in every
right-hand-side evaluation, the reference the fused heads and the
once-per-forward operator must reproduce: predictions bit for bit,
gradients bit for bit or, where the sum order differs, to rounding.
Those heads take each window's length and scale by its inverse, and
``integrate``, the solver's earlier form, steps each window over its real
length: the reference for the library's unit-time windows.  The tape ops that only
those heads and the tests use (``tanh``, ``mul``, ``neg``, ``sum_all``,
``matvec``) live beside them, on the library's tape.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from graphrde import tensor as T
from graphrde.errors import ContractError, DimensionError
from graphrde.logsig import LyndonBasis, TruncatedTensor, chen_mul, identity_tensor, zero_tensor
from graphrde.solver import step
from graphrde.tensor import _accumulate, _as_tensor, _check_broadcast, _make, _unbroadcast


def finite_difference_grad(fn, arrays, eps: float = 1e-5):
    """Central-difference gradient of scalar ``fn()`` w.r.t. in-place arrays.

    ``arrays`` is a list of numpy buffers that ``fn`` reads; gradients are
    returned in the same order.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = fn()
            flat[i] = orig - eps
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def relative_error(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def max_grad_mismatch(analytic, numeric, floor: float = 1e-6) -> float:
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), floor)
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


# ---------------------------------------------------------------------------
# Natural cubic spline by the second-derivative (M) formulation
# ---------------------------------------------------------------------------


def natural_spline_eval(knots_t: np.ndarray, knots_y: np.ndarray, t: float) -> float:
    """Evaluate the natural cubic interpolant via the M-form linear system.

    Solves the dense system for the knot second derivatives M_i with
    M_0 = M_{n-1} = 0, then evaluates the classical two-point formula.
    """
    x = np.asarray(knots_t, dtype=float)
    y = np.asarray(knots_y, dtype=float)
    n = len(x)
    if n == 2:
        m = np.zeros(2)
    else:
        h = np.diff(x)
        a = np.zeros((n, n))
        rhs = np.zeros(n)
        a[0, 0] = 1.0
        a[n - 1, n - 1] = 1.0
        for i in range(1, n - 1):
            a[i, i - 1] = h[i - 1] / 6.0
            a[i, i] = (h[i - 1] + h[i]) / 3.0
            a[i, i + 1] = h[i] / 6.0
            rhs[i] = (y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1]
        m = np.linalg.solve(a, rhs)
    i = int(np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2))
    hi = x[i + 1] - x[i]
    left, right = x[i + 1] - t, t - x[i]
    return float(
        m[i] * left**3 / (6 * hi)
        + m[i + 1] * right**3 / (6 * hi)
        + (y[i] / hi - m[i] * hi / 6) * left
        + (y[i + 1] / hi - m[i + 1] * hi / 6) * right
    )


# ---------------------------------------------------------------------------
# Signatures by iterated-integral numerical quadrature
# ---------------------------------------------------------------------------


def densify_polyline(points: np.ndarray, per_segment: int) -> np.ndarray:
    """Resample a polyline with ``per_segment`` chords per original segment."""
    points = np.asarray(points, dtype=float)
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        for k in range(1, per_segment + 1):
            out.append(a + (b - a) * (k / per_segment))
    return np.asarray(out)

def quadrature_signature_entry(samples: np.ndarray, word: tuple[int, ...]) -> float:
    """Iterated integral S^(word) of a densely sampled path via trapezoids.

    ``samples`` has shape (n, d); accuracy is O(1/n^2) for smooth paths
    and exact up to roundoff for the first level.
    """
    x = np.asarray(samples, dtype=float)
    f = np.ones(len(x))
    for channel in word:
        dx = np.diff(x[:, channel])
        incr = 0.5 * (f[:-1] + f[1:]) * dx
        f = np.concatenate([[0.0], np.cumsum(incr)])
    return float(f[-1])


def quadrature_signature_level(samples: np.ndarray, dim: int, level: int) -> np.ndarray:
    out = np.zeros((dim,) * level)
    for word in itertools.product(range(dim), repeat=level):
        out[word] = quadrature_signature_entry(samples, word)
    return out


# ---------------------------------------------------------------------------
# Lyndon words by exhaustive rotation check
# ---------------------------------------------------------------------------


def is_lyndon(word: tuple[int, ...]) -> bool:
    """True when the word is strictly smaller than all its proper rotations."""
    n = len(word)
    for k in range(1, n):
        if word[k:] + word[:k] <= word:
            return False
    return True


def enumerate_lyndon_words(alphabet: int, max_len: int) -> list[tuple[int, ...]]:
    words = []
    for length in range(1, max_len + 1):
        for cand in itertools.product(range(alphabet), repeat=length):
            if is_lyndon(cand):
                words.append(cand)
    return sorted(words, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# Inverse maps of the tensor log and the Lyndon projection
# ---------------------------------------------------------------------------


def tensor_exp(l: TruncatedTensor) -> TruncatedTensor:
    """Tensor exponential of an element with zero level-0 scalar."""
    if abs(l.scalar) > 1e-12:
        raise ContractError(f"tensor_exp needs level-0 scalar 0, got {l.scalar}")
    out = identity_tensor(l.dim, l.depth)
    power = l.copy()
    for n in range(1, l.depth + 1):
        c = 1.0 / math.factorial(n)
        out.scalar += c * power.scalar
        for a, b in zip(out.levels, power.levels):
            a += c * b
        if n < l.depth:
            power = chen_mul(power, l)
    return out


def lyndon_expand(coords: np.ndarray, basis: LyndonBasis) -> TruncatedTensor:
    """Rebuild the Lie element from Lyndon coordinates (inverse of project)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (len(basis),):
        raise ContractError(f"expected {len(basis)} coordinates, got shape {coords.shape}")
    out = zero_tensor(basis.dim, basis.depth)
    for c, word, expansion in zip(coords, basis.words, basis.expansions):
        out.levels[len(word) - 1] += c * expansion
    return out


# ---------------------------------------------------------------------------
# Per-cell log-signature front end
# ---------------------------------------------------------------------------
# One (window, node) cell at a time, with plain Python loops: the natural
# cubic spline of the cell's observed samples, chord samples evaluated
# one point at a time, chord signatures multiplied one Chen product at a
# time, the tensor log and the triangular Lyndon sweep.  A signature is a
# (scalar, levels) pair with level k of shape (d,) * k.


def cell_spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Natural cubic (a, b, c, d) per interval, (n-1, C, 4), by a Thomas solve."""
    n = len(x)
    h = np.diff(x)
    c = np.zeros((n, y.shape[1]))
    if n > 2:
        slopes = np.diff(y, axis=0) / h[:, None]
        rhs = 3.0 * (slopes[1:] - slopes[:-1])
        lower = h[:-1].copy()
        diag = 2.0 * (h[:-1] + h[1:])
        upper = h[1:].copy()
        m = n - 2
        cp = np.zeros(m)
        dp = np.zeros((m, y.shape[1]))
        cp[0] = upper[0] / diag[0]
        dp[0] = rhs[0] / diag[0]
        for i in range(1, m):
            denom = diag[i] - lower[i] * cp[i - 1]
            cp[i] = upper[i] / denom
            dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
        sol = np.zeros((m, y.shape[1]))
        sol[m - 1] = dp[m - 1]
        for i in range(m - 2, -1, -1):
            sol[i] = dp[i] - cp[i] * sol[i + 1]
        c[1:-1] = sol
    a = y[:-1]
    b = np.diff(y, axis=0) / h[:, None] - h[:, None] * (2.0 * c[:-1] + c[1:]) / 3.0
    d = (c[1:] - c[:-1]) / (3.0 * h[:, None])
    return np.stack([a, b, c[:-1], d], axis=-1)


def cell_eval(x, coeffs, t: float, t_start: float, t_end: float) -> np.ndarray:
    """Spline channels plus the rescaled time channel at one time t."""
    i = int(np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2))
    dt = t - x[i]
    a, b, c, d = (coeffs[i, :, k] for k in range(4))
    value = a + dt * (b + dt * (c + dt * d))
    return np.concatenate([value, [(t - t_start) / (t_end - t_start)]])


def cell_sig_linear(v: np.ndarray, depth: int):
    levels = [v.copy()]
    for k in range(2, depth + 1):
        levels.append(np.multiply.outer(levels[-1], v) / k)
    return 1.0, levels


def cell_chen_mul(a, b):
    (sa, la), (sb, lb) = a, b
    levels = []
    for n in range(1, len(la) + 1):
        acc = sa * lb[n - 1] + sb * la[n - 1]
        for i in range(1, n):
            acc = acc + np.multiply.outer(la[i - 1], lb[n - i - 1])
        levels.append(acc)
    return sa * sb, levels


def cell_tensor_log(sig):
    _, levels = sig
    u = (0.0, levels)
    out = [np.zeros(l.shape) for l in levels]
    power = u
    sign = 1.0
    for n in range(1, len(levels) + 1):
        for acc, p in zip(out, power[1]):
            acc += (sign / n) * p
        if n < len(levels):
            power = cell_chen_mul(power, u)
            sign = -sign
    return out


def cell_lyndon_project(levels, basis: LyndonBasis) -> np.ndarray:
    residual = [l.copy() for l in levels]
    coords = np.zeros(len(basis))
    for i, word in enumerate(basis.words):
        lvl = residual[len(word) - 1]
        c = lvl[word]
        coords[i] = c
        if c != 0.0:
            lvl -= c * basis.expansions[i]
    return coords


def cell_window_logsig(
    values: np.ndarray,
    mask: np.ndarray,
    subpath_len: int,
    depth: int,
) -> np.ndarray:
    """Windowed Lyndon log-signatures (windows, nodes, L) of one series.

    ``values`` is (nodes, timesteps, channels) and ``mask`` (nodes,
    timesteps), timestep i at time i; each node is fitted, sampled
    window by window and projected on its own.
    """
    nodes, steps, channels = values.shape
    basis = LyndonBasis(channels + 1, depth)
    n_intervals = steps - 1
    n_windows = -(-n_intervals // subpath_len)
    edges = [min(i * subpath_len, n_intervals) for i in range(n_windows + 1)]
    t_start, t_end = 0.0, float(n_intervals)
    coords = np.zeros((n_windows, nodes, len(basis)))
    for v in range(nodes):
        x = np.flatnonzero(mask[v]).astype(np.float64)
        coeffs = cell_spline_coefficients(x, values[v][mask[v]])
        for w in range(n_windows):
            i0, i1 = edges[w], edges[w + 1]
            ts = np.linspace(float(i0), float(i1), i1 - i0 + 1)
            pts = np.stack([cell_eval(x, coeffs, float(t), t_start, t_end) for t in ts])
            sig = cell_sig_linear(pts[1] - pts[0], depth)
            for i in range(1, len(pts) - 1):
                sig = cell_chen_mul(sig, cell_sig_linear(pts[i + 1] - pts[i], depth))
            coords[w, v] = cell_lyndon_project(cell_tensor_log(sig), basis)
    return coords


# ---------------------------------------------------------------------------
# Tape ops only the tests use, and the unfused field heads built from them
# ---------------------------------------------------------------------------


def clear_tape():
    """Drop a tape that no backward will consume."""
    T._TAPE.clear()


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape, "mul")
    data = a.data * b.data
    ad, bd, na, nb = a.data, b.data, a.node, b.node

    def backward_fn(g):
        _accumulate(na, _unbroadcast(g * bd, ad.shape))
        _accumulate(nb, _unbroadcast(g * ad, bd.shape))

    return _make(data, (a, b), backward_fn, "mul")


def neg(a):
    return T.scale(a, -1.0)


def tanh(a):
    a = _as_tensor(a)
    data = np.tanh(a.data)
    na = a.node

    def backward_fn(g):
        _accumulate(na, g * (1.0 - data * data))

    return _make(data, (a,), backward_fn, "tanh")


def sum_all(a):
    a = _as_tensor(a)
    data = a.data.sum()
    na, sa = a.node, a.shape

    def backward_fn(g):
        _accumulate(na, np.broadcast_to(g, sa))

    return _make(data, (a,), backward_fn, "sum_all")


def matvec(f, x):
    """Per-slot matrix-vector product: ``(..,p,q)`` with ``(..,q)`` -> ``(..,p)``."""
    f, x = _as_tensor(f), _as_tensor(x)
    if f.ndim < 2 or x.ndim < 1 or f.shape[:-2] != x.shape[:-1] or f.shape[-1] != x.shape[-1]:
        raise DimensionError(f"matvec shapes incompatible: {f.shape} with {x.shape}")
    data = np.einsum("...pq,...q->...p", f.data, x.data)
    fd, xd, nf, nx = f.data, x.data, f.node, x.node

    def backward_fn(g):
        if nf is not None:
            _accumulate(nf, np.einsum("...p,...q->...pq", g, xd))
        if nx is not None:
            _accumulate(nx, np.einsum("...pq,...p->...q", fd, g))

    return _make(data, (f, x), backward_fn, "matvec")


def field_f(h, params, config):
    """Temporal field head: (.., nodes, dim_h) -> (.., nodes, dim_h, L)."""
    a = h
    for k in range(config.num_layers + 1):
        a = T.relu(a @ params[f"f_w{k}"] + params[f"f_b{k}"])
    out = tanh(a @ params["f_head_w"] + params["f_head_b"])
    return T.reshape(out, out.shape[:-1] + (config.dim_h, config.logsig_dim))


def mixed_features(b0, params, config):
    """Graph mixing with the operator built afresh on every call."""
    e = params["embed"]
    prop = T.constant(np.eye(config.num_nodes)) + T.softmax_rows(T.relu(e @ T.transpose_last2(e)))
    return (prop @ b0) @ params["w_spatial"]


def field_g(z, params, config):
    """Spatial field head: (.., nodes, dim_z) -> (.., nodes, dim_z, cols)."""
    b0 = T.relu(z @ params["g_w0"] + params["g_b0"])
    b1 = mixed_features(b0, params, config)
    out = tanh(b1 @ params["g_head_w"] + params["g_head_b"])
    cols = config.logsig_dim if config.variant == "spatial_only" else config.dim_h
    return T.reshape(out, out.shape[:-1] + (config.dim_z, cols))


def augmented_rhs(state, ell, divisor, params, config):
    """The model's right-hand side, built from the unfused heads, on a
    window of length ``divisor`` run over real time."""
    if config.variant == "temporal_only":
        return [matvec(field_f(state[0], params, config), ell) * (1.0 / divisor)]
    if config.variant == "spatial_only":
        return [matvec(field_g(state[0], params, config), ell) * (1.0 / divisor)]
    h, z = state
    dh = matvec(field_f(h, params, config), ell) * (1.0 / divisor)
    return [dh, matvec(field_g(z, params, config), dh)]


def integrate(state, coords, divisors, spec, rhs):
    """March ``state`` across the windows with window ``w`` spanning
    ``divisors[w]`` of time, ``spec.steps_per_window`` steps of
    ``divisors[w] / spec.steps_per_window`` each; ``rhs(state, ell,
    divisor)`` is the state's time derivative on the window."""
    for w in range(len(coords)):
        ell = T.constant(coords[w])
        divisor = float(divisors[w])

        def window_rhs(tensors):
            return rhs(tensors, ell, divisor)

        h = divisor / spec.steps_per_window
        for _ in range(spec.steps_per_window):
            state = step(spec.method, window_rhs, state, h)
    return state
