"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy float64 buffer.  Operations on tracked
tensors append an entry to an ambient tape; :func:`backward` replays the
tape in reverse execution order (a reverse topological order, since the
graph is built incrementally) and accumulates gradients into the
``grad`` buffer of every tracked leaf tensor; an op output's gradient is
released as soon as its own entry has run.

Design rules enforced at every operation boundary:

* values are float64 and finite (NaN/Inf raises :class:`NonFiniteError`),
* elementwise broadcasting is limited to leading-1 extents, i.e. the
  smaller operand may only broadcast along a prefix of the axes,
* the tape is single threaded and cleared by :func:`backward`; only the
  tile loops inside :func:`head_matvec` run on worker threads, which call
  numpy alone and never touch the tape.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import queue
import threading
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "tape_size",
    "clear_tape",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "matmul",
    "head_matvec",
    "relu",
    "tanh",
    "absolute",
    "softmax_rows",
    "reshape",
    "transpose_last2",
    "sum_all",
    "mean_all",
    "constant",
    "zeros",
    "eye",
]

# Ambient tape: list of (output tensor, backward closure) in execution order.
_TAPE: list[tuple["Tensor", Callable[[np.ndarray], None]]] = []
_GRAD_ENABLED: bool = True
# Bytes of tanh head per tile in ``head_matvec``: 32 rows of a 4096-wide head,
# small enough that each pass over a tile hits L2 rather than memory; with
# fewer rows per tile the per-tile gemm loses more than the cache saves.
HEAD_TILE_BYTES = 1 << 20


def _check_finite(data: np.ndarray, where: str, scratch: np.ndarray | None = None) -> None:
    if not np.isfinite(data, out=scratch).all():
        raise NonFiniteError(f"non-finite value produced by {where}")


class _TilePool:
    """The calling thread and ``workers - 1`` daemon threads that share a call's work.

    The threads start with the first call to :meth:`run` that has work for them.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._todo: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    def run(self, fn: Callable[[int, int], object], count: int) -> None:
        """Call ``fn(slot, j)`` for every ``j`` in ``range(count)`` and wait for all.

        The caller, as slot 0, and up to ``workers - 1`` threads, as slots
        1, 2, ..., each take the next ``j`` in turn, so a thread whose CPU
        is slow or busy takes fewer; no two calls at once share a slot.  A
        thread runs in a copy of the caller's context, so ``np.errstate``
        holds.  Then the error of the lowest ``j`` that raised is raised:
        every lower ``j`` ran, as in a serial loop.
        """
        helpers = min(self.workers, count) - 1
        if helpers < 1:
            for j in range(count):
                fn(0, j)
            return
        while len(self._threads) < self.workers - 1:
            thread = threading.Thread(target=self._serve, name="head_matvec", daemon=True)
            thread.start()
            self._threads.append(thread)
        # next() on an itertools.count is atomic, so each j and slot goes to one thread
        jobs, slots, done = itertools.count(), itertools.count(1), queue.SimpleQueue()
        # emptied once every j is done: a thread that wakes late holds none of fn's buffers
        work = [fn]
        share = partial(self._share, work, count, jobs, done)
        for _ in range(helpers):
            self._todo.put((contextvars.copy_context(), share, slots))
        share(0)
        errors = {}
        for _ in range(count):  # every j is taken and reported once
            j, exc = done.get()
            if exc is not None:
                errors[j] = exc
        work.clear()
        if errors:
            raise errors[min(errors)]

    @staticmethod
    def _share(work: list, count: int, jobs, done: queue.SimpleQueue, slot: int) -> None:
        failed = False
        for j in jobs:
            if j >= count:
                return
            if failed:  # after its own error a thread only reports what it takes
                done.put((j, None))
                continue
            try:
                work[0](slot, j)
            except BaseException as exc:  # handed to the caller, which raises it
                done.put((j, exc))
                failed = True
            else:
                done.put((j, None))

    def _serve(self) -> None:
        # one item per call, so that a thread waiting for the next holds nothing
        while self._serve_one(self._todo.get()):
            pass

    @staticmethod
    def _serve_one(item) -> bool:
        if item is None:
            return False
        context, share, slots = item
        context.run(share, next(slots))
        return True

    def shutdown(self) -> None:
        for _ in self._threads:
            self._todo.put(None)
        for thread in self._threads:
            thread.join()
        self._threads.clear()


# Made by the first ``head_matvec`` call, never at import.
_HEAD_POOL: _TilePool | None = None


def _head_pool() -> _TilePool:
    """One worker per CPU this process may run on, the caller among them.

    Every ``head_matvec`` call runs its tiles on it; a call of one tile runs
    on the caller alone, since ``_TilePool.run`` starts no thread for it.

    When the inherited BLAS setting is not one thread (``OPENBLAS_NUM_THREADS``,
    or else ``OMP_NUM_THREADS``, unset or above 1), each gemm already spreads
    over the CPUs and more workers would oversubscribe them, so there is one.
    """
    global _HEAD_POOL
    if _HEAD_POOL is None:
        blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
        workers = 1
        if blas is not None and blas.strip() == "1":
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
        _HEAD_POOL = _TilePool(workers)
    return _HEAD_POOL


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", tracked" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar; semantics live in the module-level functions.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not supported")
        return scale(self, 1.0 / float(other))

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


@contextlib.contextmanager
def no_grad():
    """Context manager that suspends tape recording."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    _TAPE.clear()


def _as_tensor(x) -> Tensor:
    if not isinstance(x, Tensor):
        raise ContractError(f"expected Tensor, got {type(x).__name__}")
    return x


def _make(data: np.ndarray, inputs: Sequence[Tensor], backward_fn, name: str) -> Tensor:
    """Create an op output, recording a tape entry when tracking applies."""
    _check_finite(data, name)
    tracked = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = tracked
    if tracked:
        _TAPE.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf ancestor of ``loss``.

    ``loss`` must be a single-element tensor produced by taped
    operations.  An op output's ``grad`` is dropped once its entry has
    run, since every consumer of it ran before; without that, the
    gradients of all intermediates would be alive together at the end.
    The tape is cleared afterwards, so each graph supports exactly one
    backward pass.
    """
    _as_tensor(loss)
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any tracked tensor")
    if not _TAPE:
        raise ContractError("no recorded operations; the tape supports one backward per forward")
    try:
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(_TAPE):
            if out.grad is not None:
                fn(out.grad)
                out.grad = None
    finally:
        _TAPE.clear()


# ---------------------------------------------------------------------------
# Broadcasting helpers (leading-1 extents only)
# ---------------------------------------------------------------------------


def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...], name: str) -> None:
    ndim = max(len(sa), len(sb))
    pa = (1,) * (ndim - len(sa)) + sa
    pb = (1,) * (ndim - len(sb)) + sb
    diff = [i for i in range(ndim) if pa[i] != pb[i]]
    for i in diff:
        if min(pa[i], pb[i]) != 1:
            raise DimensionError(f"{name}: incompatible shapes {sa} and {sb}")
    # broadcast axes must lead; axes where both operands are 1 don't count
    nontrivial = [i for i in range(ndim) if max(pa[i], pb[i]) > 1]
    if diff != nontrivial[: len(diff)]:
        raise DimensionError(
            f"{name}: broadcasting of {sa} with {sb} is not limited to leading axes"
        )


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (s, gs) in enumerate(zip(shape, g.shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise binary ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape, "add")
    data = a.data + b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape, "sub")
    data = a.data - b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape, "mul")
    data = a.data * b.data

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward_fn, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    if not np.isfinite(c):
        raise NonFiniteError("non-finite scale factor")
    data = a.data * c

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return _make(data, (a,), backward_fn, "scale")


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, with optional stacked leading axes on one operand.

    Supported shapes: ``(m,k) @ (k,n)``, ``(..,m,k) @ (k,n)`` and
    ``(m,k) @ (..,k,n)``; leading axes must match exactly when both
    operands carry them.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul requires 2-D or stacked operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la and lb and la != lb:
        raise DimensionError(f"matmul stacked axes differ: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward_fn, "matmul")


def head_matvec(a: Tensor, w: Tensor, b: Tensor, x: Tensor, cols: int) -> Tensor:
    """A tanh field head applied to a control, as one tape entry.

    ``out[.., p] = sum_q tanh(a @ w + b)[.., p, q] * x[.., q]``, where the
    head ``tanh(a @ w + b)`` of shape ``(.., rows * cols)`` is read as
    ``(.., rows, cols)``.  Shapes: ``a`` ``(.., m, k)``, ``w`` ``(k, n)``,
    ``b`` ``(n,)`` and ``x`` ``(.., m, cols)`` with ``n = rows * cols``;
    the result is ``(.., m, rows)``.

    The forward runs over tiles of head rows (a row is one slot of ``a``'s
    leading axes and ``m``), ``HEAD_TILE_BYTES`` of head at a time, so the
    gemm, both finiteness checks, the bias, the tanh and the contraction
    each pass over a tile while it is in cache.  A taped call writes the
    tiles into the head it keeps for backward; an untaped one (``no_grad``
    or no tracked input) gives each worker one tile buffer and never holds
    a head.  The closure keeps only the inputs and the tanh head.  Its
    backward takes ``x``'s gradient from each head tile and then overwrites
    the tile with ``g_pre = (g ⊗ x) * (1 - t*t)``, which the ``a``, ``b`` and
    ``w`` gradients read, so no head-sized array is allocated after the
    forward.

    A call with more than one tile shares its tiles, in order, among one
    worker thread per CPU, the caller among them (see ``_head_pool``): a
    worker takes the next tile whenever it is free, so one whose CPU is
    busy takes fewer.  The backward's ``a`` gradient, and its ``w`` and
    ``b`` gradients, are two more such pieces of work.  Workers run numpy
    alone, into buffers the caller allocated, and the caller waits for all
    of them before it raises the first error in tile order.  The tiles,
    and every numpy call, are the same whatever the number of workers, so
    every output bit is too.

    The values and the gradients of ``a``, ``b`` and ``x`` are
    bit-identical to ``matmul``, ``add``, ``tanh``, ``reshape`` and a
    per-slot matrix-vector product taped one by one, as long as BLAS gives
    a row the same bits whatever the number of rows in its gemm.  ``w``'s
    gradient is one gemm over every leading axis and row at once,
    ``a.reshape(-1, k).T @ g_pre.reshape(-1, n)``, rather than one gemm per
    leading index summed afterwards; with leading axes it therefore sums in
    another order and agrees with the taped chain to rounding, not bit for
    bit.
    """
    a, w, b, x = _as_tensor(a), _as_tensor(w), _as_tensor(b), _as_tensor(x)
    if a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"head_matvec: cannot apply {a.shape} @ {w.shape} + {b.shape}")
    if cols < 1 or w.shape[1] % cols or x.shape != a.shape[:-1] + (cols,):
        raise DimensionError(
            f"head_matvec: head of width {w.shape[1]} cannot take {cols} columns "
            f"against a control of shape {x.shape}"
        )
    k, n = w.shape
    rows = n // cols
    a2, x2 = a.data.reshape(-1, k), x.data.reshape(-1, cols)
    total = a2.shape[0]
    step = max(1, HEAD_TILE_BYTES // max(8 * n, 1))
    tiles = -(-total // step)
    pool = _head_pool()
    tile_shape = (min(pool.workers, tiles), min(step, total))  # one tile per slot
    keep = _GRAD_ENABLED and any(t.requires_grad for t in (a, w, b, x))
    buf = np.empty((total, n)) if keep else np.empty(tile_shape + (n,))
    finite = np.empty(tile_shape + (n,), dtype=bool)
    out = np.empty((total, rows))

    def forward(slot: int, j: int) -> None:
        lo, hi = j * step, min(j * step + step, total)
        p = buf[lo:hi] if keep else buf[slot, : hi - lo]
        np.matmul(a2[lo:hi], w.data, out=p)
        _check_finite(p, "head_matvec (a @ w)", finite[slot, : hi - lo])
        p += b.data
        # tanh would hide an overflow
        _check_finite(p, "head_matvec (a @ w + b)", finite[slot, : hi - lo])
        np.tanh(p, out=p)
        np.einsum("rpq,rq->rp", p.reshape(-1, rows, cols), x2[lo:hi], out=out[lo:hi])

    pool.run(forward, tiles)
    head_tracked = a.requires_grad or w.requires_grad or b.requires_grad

    def backward_fn(g: np.ndarray) -> None:  # taped only when ``keep``: buf is the head
        g2 = g.reshape(-1, rows)
        gx = np.empty((total, cols)) if x.requires_grad else None
        gx_outer = np.empty(tile_shape + (rows, cols)) if head_tracked else None

        def to_g_pre(slot: int, j: int) -> None:
            # the entry runs once, so the head may turn into g_pre tile by tile
            lo, hi = j * step, min(j * step + step, total)
            tile = buf[lo:hi]
            if gx is not None:
                np.einsum("rpq,rp->rq", tile.reshape(-1, rows, cols), g2[lo:hi], out=gx[lo:hi])
            if gx_outer is not None:
                outer = gx_outer[slot, : hi - lo]
                np.einsum("rp,rq->rpq", g2[lo:hi], x2[lo:hi], out=outer)
                np.multiply(tile, tile, out=tile)
                np.subtract(1.0, tile, out=tile)
                tile *= outer.reshape(hi - lo, n)

        pool.run(to_g_pre, tiles)
        if gx is not None:
            _accumulate(x, gx.reshape(x.shape))
        if not head_tracked:
            return
        t = buf.reshape(a.shape[:-1] + (n,))
        ga = np.empty(a.shape) if a.requires_grad else None
        gw = np.empty(w.shape) if w.requires_grad else None
        gb = np.empty(b.shape) if b.requires_grad else None

        def weight_grads() -> None:
            if gb is not None:
                np.sum(buf, axis=0, out=gb)
            if gw is not None:
                np.matmul(a2.T, buf, out=gw)

        calls = [weight_grads]
        if ga is not None:
            calls.append(lambda: np.matmul(t, w.data.T, out=ga))
        if tiles > 1:  # a's gradient and w's are gemms of equal size, so two threads can share them
            pool.run(lambda slot, j: calls[j](), len(calls))
        else:  # a head of one tile stays on one thread
            for call in calls:
                call()
        for tensor, grad in ((a, ga), (w, gw), (b, gb)):
            if grad is not None:
                _accumulate(tensor, grad)

    return _make(out.reshape(a.shape[:-1] + (rows,)), (a, w, b, x), backward_fn, "head_matvec")


def transpose_last2(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"transpose_last2 requires ndim >= 2, got {a.shape}")
    data = np.swapaxes(a.data, -1, -2).copy()

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _make(data, (a,), backward_fn, "transpose_last2")


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0
    data = np.where(mask, a.data, 0.0)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _make(data, (a,), backward_fn, "relu")


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.tanh(a.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), backward_fn, "tanh")


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.abs(a.data)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * np.sign(a.data))

    return _make(data, (a,), backward_fn, "absolute")


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis (each row sums to one)."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"softmax_rows requires ndim >= 2, got {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g: np.ndarray) -> None:
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _make(data, (a,), backward_fn, "softmax_rows")


# ---------------------------------------------------------------------------
# Shape and reduction ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), backward_fn, "reshape")


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.asarray(a.data.sum())

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(data, (a,), backward_fn, "sum_all")


def mean_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")
    data = np.asarray(a.data.mean())

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g / n, a.shape))

    return _make(data, (a,), backward_fn, "mean_all")


# ---------------------------------------------------------------------------
# Constant constructors
# ---------------------------------------------------------------------------


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def eye(n: int) -> Tensor:
    return Tensor(np.eye(n, dtype=np.float64))
