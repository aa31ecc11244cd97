"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy float64 buffer; a tracked one also has a
gradient slot, its ``node``.  Operations on tracked tensors append the
output's node and a backward closure to an ambient tape; :func:`backward`
replays the tape in reverse execution order (a reverse topological order,
since the graph is built incrementally) and accumulates gradients into the
slot of every tracked leaf tensor; an op output's gradient, and the entry
with the arrays its closure keeps, are released as soon as the entry has run.

The tape holds slots, not tensors, and each closure holds the input slots,
the shapes and only the arrays its own backward reads (``relu`` its mask,
``matmul`` the operands its gradients read, ``add`` none).  So an op
output whose array no backward reads is freed as soon as the forward drops
its tensor, not at the end of the backward.  A closure reads its input
arrays as they were bound in the forward: rebinding a tensor's ``data``
before the backward does not reach it, writing into the array does.
:func:`head_matvec` makes a whole field, a trunk under a tanh head, one
entry that keeps only its inputs and runs the trunk and the head again in
the backward.

Design rules enforced at every operation boundary:

* values are float64 and finite (NaN/Inf raises :class:`NonFiniteError`),
* elementwise broadcasting only adds missing leading axes: the shorter
  shape must equal the longer one's trailing axes,
* the tape is single threaded and cleared by :func:`backward`; only the
  tile loops inside :func:`head_matvec` run on worker threads, which call
  numpy alone and never touch the tape.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import itertools
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "discard_on_error",
    "tape_size",
    "add",
    "sub",
    "scale",
    "matmul",
    "head_matvec",
    "relu",
    "absolute",
    "softmax_rows",
    "reshape",
    "transpose_last2",
    "mean_all",
    "constant",
]

# Ambient tape: list of (output's node, backward closure) in execution order.
_TAPE: list[tuple["_Node", Callable[[np.ndarray], None]]] = []
_GRAD_ENABLED: bool = True
# Bytes of tanh head per forward tile and per backward block in ``head_matvec``:
# 32 rows of a 4096-wide head, small enough that each pass over a tile hits L2
# rather than memory; with fewer rows per tile the per-tile gemm loses more
# than the cache saves, and blocks of 2 or 4 MiB raised a step's peak.
HEAD_TILE_BYTES = 1 << 20


def _check_finite(data: np.ndarray, where: str, scratch: np.ndarray | None = None) -> None:
    if not np.isfinite(data, out=scratch).all():
        raise NonFiniteError(f"non-finite value produced by {where}")


class _TilePool:
    """The calling thread and up to ``workers - 1`` executor threads that share a call's work.

    The executor starts a thread only when a call has work for it and no
    thread is idle, so there is none before the first such call.
    """

    def __init__(self, workers: int):
        self.workers = workers
        # with one worker the executor is never given work, but it needs a size of 1 or more
        self.executor = ThreadPoolExecutor(max(workers - 1, 1), thread_name_prefix="head_matvec")

    def run(self, fn: Callable[[int, int], object], count: int) -> None:
        """Call ``fn(slot, j)`` for every ``j`` in ``range(count)`` and wait for all.

        The caller, as slot 0, and up to ``workers - 1`` threads, as slots
        1, 2, ..., each take the next ``j`` in turn, so a thread whose CPU
        is slow or busy takes fewer; no two calls at once share a slot.  A
        thread runs in a copy of the caller's context, so ``np.errstate``
        holds.  The caller waits for every thread it gave work, then raises
        the error of the lowest ``j`` that raised: every lower ``j`` ran, as
        in a serial loop.  With no helper, as with one worker or one ``j``,
        the caller alone runs every ``j`` in order and no thread gets work.
        """
        # next() on an itertools.count is atomic, so each j goes to one thread
        jobs, errors = itertools.count(), {}

        def share(slot: int) -> None:
            for j in jobs:
                if j >= count:
                    return
                try:
                    fn(slot, j)
                except BaseException as exc:  # kept, so no future holds an error
                    errors[j] = exc

        helpers = [self.executor.submit(contextvars.copy_context().run, share, slot)
                   for slot in range(1, min(self.workers, count))]
        share(0)
        for helper in helpers:
            helper.result()
        if errors:
            raise errors[min(errors)]


# Made by the first ``head_matvec`` call, never at import.
_HEAD_POOL: _TilePool | None = None


def _openblas_set_threads() -> Callable[[int], object] | None:
    """``set_num_threads`` of the OpenBLAS numpy loaded, or None if numpy loaded none."""
    # dlsym on numpy's core extension also searches the libraries it links, BLAS among them
    core = ctypes.CDLL(np.empty.__self__.__file__)
    # numpy 2 wheels, then numpy 1.x wheels
    names = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")
    return next((getattr(core, name) for name in names if hasattr(core, name)), None)


def _head_pool() -> _TilePool:
    """One worker per CPU this process may run on, the caller among them.

    Every ``head_matvec`` call runs its tiles on it; a call of one tile runs
    on the caller alone, since ``_TilePool.run`` hands no thread work for it.

    Making the pool sets the OpenBLAS that numpy loaded to one thread, for
    the whole process and whatever thread count it started with, so the
    workers do not oversubscribe the CPUs with BLAS threads of their own.
    Without such an OpenBLAS there is one worker, and BLAS is left alone.
    """
    global _HEAD_POOL
    if _HEAD_POOL is None:
        set_threads, workers = _openblas_set_threads(), 1
        if set_threads is not None:
            set_threads(1)
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
        _HEAD_POOL = _TilePool(workers)
    return _HEAD_POOL


# What a node reads as ``data`` once its array is gone.
_DEAD = np.empty(0)


class _Node:
    """The gradient slot of a tracked tensor, and a weak reference to its array.

    ``data`` is the array the node was made with while anything holds that
    array, and a zero-size array after.  So the slot never keeps the array
    alive, and ``_TAPE`` still shows which taped arrays are alive
    (perfbench's tape probe sums ``node.data.nbytes``).
    """

    __slots__ = ("grad", "_ref")

    def __init__(self, data: np.ndarray):
        self.grad: np.ndarray | None = None
        self._ref = weakref.ref(data)

    @property
    def data(self) -> np.ndarray:
        data = self._ref()
        return _DEAD if data is None else data


class Tensor:
    """Dense float64 array with a gradient slot when tracked (``node`` is None when not)."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.node = _Node(arr) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.node is None:
            raise ContractError("an untracked tensor has no gradient to set")
        self.node.grad = g

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
            raise ContractError("tensor*tensor products are not supported")
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def no_grad():
    """Context manager that suspends tape recording: in the block the ambient
    tape is a fresh one that nothing records onto; the outer one is back after it."""
    return _own_tape(False)


def tape_size() -> int:
    return len(_TAPE)


@contextlib.contextmanager
def discard_on_error():
    """Remove the tape entries made inside the block when the block raises."""
    mark = len(_TAPE)
    try:
        yield
    except BaseException:
        del _TAPE[mark:]
        raise


@contextlib.contextmanager
def _own_tape(record: bool):
    """Ops record onto a fresh tape, yielded, in the block if ``record``; the
    ambient tape and recording flag are restored after it, also when it raises."""
    global _TAPE, _GRAD_ENABLED
    outer, enabled = _TAPE, _GRAD_ENABLED
    _TAPE, _GRAD_ENABLED = [], record
    try:
        yield _TAPE
    finally:
        _TAPE, _GRAD_ENABLED = outer, enabled


def _as_tensor(x) -> Tensor:
    if not isinstance(x, Tensor):
        raise ContractError(f"expected Tensor, got {type(x).__name__}")
    return x


def _make(data, inputs: Sequence[Tensor], backward_fn, name: str) -> Tensor:
    """Create an op output, recording a tape entry when tracking applies."""
    data = np.asarray(data)  # 0-d arithmetic gives numpy scalars, which no weakref can hold
    _check_finite(data, name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.node = None
    if _GRAD_ENABLED and any(t.node is not None for t in inputs):
        out.node = _Node(data)
        _TAPE.append((out.node, backward_fn))
    return out


def _accumulate(node: _Node | None, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` to ``node``'s slot; an empty slot takes a copy, or ``g`` itself if ``owned``."""
    if node is None:
        return
    if node.grad is None:
        node.grad = g if owned else np.array(g, dtype=np.float64, copy=True)
    else:
        node.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf ancestor of ``loss``.

    ``loss`` must be a single-element tensor produced by taped
    operations.  An op output's ``grad`` is dropped once its entry has
    run, since every consumer of it ran before; without that, the
    gradients of all intermediates would be alive together at the end.
    The entry itself leaves the tape before it runs, so its closure, and
    every array only that closure keeps, is dropped once it has run too,
    and each entry's backward runs beside the tape that is left, not the
    whole tape.  The tape is empty afterwards, also when an entry raises,
    so each graph supports exactly one backward pass.
    """
    _as_tensor(loss)
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any tracked tensor")
    if not _TAPE:
        raise ContractError("no recorded operations; the tape supports one backward per forward")
    try:
        loss.node.grad = np.ones_like(loss.data)
        _replay(_TAPE)
    finally:
        _TAPE.clear()


def _replay(tape: list[tuple[_Node, Callable[[np.ndarray], None]]]) -> None:
    """Run the entries of ``tape`` whose output has a gradient, last first.

    Each entry leaves the tape before it runs, so its closure, with the
    arrays it keeps, is dropped once it has run.
    """
    while tape:
        node, fn = tape.pop()
        if node.grad is not None:
            fn(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# Broadcasting helpers (missing leading axes only)
# ---------------------------------------------------------------------------


def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...], name: str) -> None:
    short, long = sorted((sa, sb), key=len)
    if long[len(long) - len(short) :] != short:
        raise DimensionError(f"{name}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient over the leading axes its operand lacks."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


# ---------------------------------------------------------------------------
# Elementwise binary ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape, "add")
    data = a.data + b.data
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, _unbroadcast(g, sa))
        _accumulate(nb, _unbroadcast(g, sb))

    return _make(data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))  # x - y and x + (-y) are the same float


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    data = a.data * c
    na = a.node

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, g * c)

    return _make(data, (a,), backward_fn, "scale")


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, with stacked leading axes on at most one operand.

    Supported shapes: ``(m,k) @ (k,n)``, ``(..,m,k) @ (k,n)`` and
    ``(m,k) @ (..,k,n)``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul requires 2-D or stacked operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la and lb:
        raise DimensionError(f"matmul: both operands are stacked: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    # each operand's array is read only for the other's gradient
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def backward_fn(g: np.ndarray) -> None:
        if na is not None:
            ga = np.matmul(g, np.swapaxes(bd, -1, -2))
            _accumulate(na, _unbroadcast(ga, sa))
        if nb is not None:
            gb = np.matmul(np.swapaxes(ad, -1, -2), g)
            _accumulate(nb, _unbroadcast(gb, sb))

    return _make(data, (a, b), backward_fn, "matmul")


def head_matvec(
    trunk: Callable[[Tensor], Tensor], h: Tensor, w: Tensor, b: Tensor, x: Tensor, cols: int
) -> Tensor:
    """A field, a trunk under a tanh head, applied to a control, as one tape entry.

    ``out[.., p] = sum_q tanh(a @ w + b)[.., p, q] * x[.., q]`` with
    ``a = trunk(h)``, where the head ``tanh(a @ w + b)`` of shape
    ``(.., rows * cols)`` is read as ``(.., rows, cols)``.  Shapes: ``a``
    ``(.., m, k)``, ``w`` ``(k, n)``, ``b`` ``(n,)`` and ``x`` ``(.., m, cols)``
    with ``n = rows * cols``; the result is ``(.., m, rows)``.  A head with
    no trunk passes ``lambda a: a``.

    The entry keeps ``h``, ``w``, ``b`` and ``x``, and neither the trunk's
    output nor any of its intermediates (selective recomputation).  The
    forward runs the trunk on a tape of its own that it drops when the trunk
    returns.  The backward runs the trunk again, taped on a tape of its own
    and reading ``h`` through ``h``'s own gradient slot, restores the outer
    tape, also when the re-run raises, recomputes the head from the re-run's
    output, takes the gradients of ``x``, that output, ``w`` and ``b``, and
    then replays the re-run's tape from the output's gradient.  So every
    gradient, of ``h`` and of the tracked tensors the trunk reads, is summed
    in the order the trunk and the head taped in place would sum it, bit for
    bit, as long as the re-run computes what the forward did: the trunk reads
    the tensors it closes over as they are at the backward.  A re-run whose
    output is untracked where the forward's was raises ``ContractError``.
    Under ``no_grad`` the trunk runs once.

    The forward runs over tiles of rows (a row is one slot of ``a``'s
    leading axes and ``m``), ``HEAD_TILE_BYTES`` of head at a time, so the
    gemm, the bias, one finiteness check, the tanh and the contraction
    each pass over a tile while it is in cache.  Each worker has one tile
    buffer, taped or not, so no call holds a head from its forward to its
    backward.  The backward runs over blocks of whole head rows ``p``
    instead, across every row, about ``HEAD_TILE_BYTES`` of head at a time
    and at least one head row.  It recomputes a block with the forward's
    gemm, bias and tanh calls on the block's columns of ``w`` and ``b``,
    without the finiteness check, which those arrays already passed; takes
    the block's part of ``x``'s gradient; writes ``g_pre = (1 - t*t) *
    (g ⊗ x)`` over the block, ``g ⊗ x`` a chunk of rows, about
    ``HEAD_TILE_BYTES / 8`` bytes, at a time; takes the block's columns of
    ``w``'s and ``b``'s gradients; and takes its part of ``a``'s gradient.
    Where the slot of ``w`` or ``b`` already holds a gradient, as it does
    for every call but the last one taped on a shared weight, a block adds
    its columns into the slot through a buffer of its worker's; blocks own
    disjoint columns, so they take no turn for it.  Where the slot is
    empty, the blocks write their columns into one array, which becomes the
    slot, uncopied, once every block has run.  Each element is the slot
    plus the block's part, as a whole gradient added to the slot would
    give.  So no array of the head's size, and none of ``w``'s beside its
    slot, exists, and the parts of ``x``'s and ``a``'s gradients are added
    to their sums in block order.  Each worker holds a block, a chunk of
    ``g ⊗ x``, its parts of ``x``'s and ``a``'s gradients and, for a slot
    that holds one, its block's columns of ``w``'s and ``b``'s.

    A call with more than one tile or block shares them, in order, among
    one worker thread per CPU, the caller among them; from the first call
    on, the process's numpy BLAS runs one thread (see ``_head_pool``).  A
    worker takes the next one whenever it is free, so one whose CPU is
    busy takes fewer.  A block adds its parts only after the block before
    it has, and passes the turn on also when it raises.  Workers run numpy
    alone, into buffers made for the call, and the caller waits for all of
    them before it raises the first error in order.  A backward that raises
    leaves every empty gradient slot empty, but a slot of ``w`` or ``b``
    that held a gradient may include the columns of the blocks that
    finished, as the slots of the entries already replayed include theirs.
    The tiles, the blocks and every numpy call are the same whatever the
    number of workers, so every output bit is too.

    The values and the gradients of ``w`` and ``b`` are the bits of a
    head taken whole, as long as BLAS gives an element of a gemm the same
    bits whatever the gemm's other rows and columns.  With one block, as
    for every head of at most ``HEAD_TILE_BYTES`` bytes, so are ``a``'s
    and ``x``'s, and the values and the gradients of ``a``, ``b`` and
    ``x`` are bit-identical to ``matmul``, ``add``, ``tanh``, ``reshape``
    and a per-slot matrix-vector product taped one by one.  With more
    blocks, ``a``'s and ``x``'s gradients are sums of per-block parts,
    which agree with one block's sums to rounding.  ``w``'s gradient is one gemm
    over every leading axis and row at once, ``a.reshape(-1, k).T @
    g_pre.reshape(-1, n)``, rather than one gemm per leading index summed
    afterwards; with leading axes it therefore sums in another order and
    agrees with the taped chain to rounding, not bit for bit.
    """
    h, w, b, x = _as_tensor(h), _as_tensor(w), _as_tensor(b), _as_tensor(x)
    with _own_tape(_GRAD_ENABLED):  # dropped, with the trunk's intermediates, before the head runs
        a = _as_tensor(trunk(h))
    if a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"head_matvec: cannot apply {a.shape} @ {w.shape} + {b.shape}")
    if cols < 1 or w.shape[1] % cols or x.shape != a.shape[:-1] + (cols,):
        raise DimensionError(
            f"head_matvec: head of width {w.shape[1]} cannot take {cols} columns "
            f"against a control of shape {x.shape}"
        )
    k, n = w.shape
    rows = n // cols
    a2, x2, wd, bd = a.data.reshape(-1, k), x.data.reshape(-1, cols), w.data, b.data
    nw, nb, nx, a_shape = w.node, b.node, x.node, a.shape
    total = a2.shape[0]
    step = max(1, HEAD_TILE_BYTES // max(8 * n, 1))
    tiles = -(-total // step)
    pool = _head_pool()
    slots, tile_rows = range(min(pool.workers, tiles)), min(step, total)
    buf, scratch = [None for _ in slots], [None for _ in slots]  # made in the slot's thread
    # the entry's node holds out itself, which every view a consumer keeps holds too
    out = np.empty(a_shape[:-1] + (rows,))
    out2 = out.reshape(total, rows)

    def head_tile(a: np.ndarray, w: np.ndarray, b: np.ndarray, p: np.ndarray, finite) -> None:
        """``tanh(a @ w + b)`` into ``p``, checked unless ``finite`` is None."""
        np.matmul(a, w, out=p)
        p += b  # inf and NaN survive the bias, so one check after it sees them
        if finite is not None:  # tanh would hide an overflow
            _check_finite(p, "head_matvec (a @ w + b)", finite)
        np.tanh(p, out=p)

    def forward(slot: int, j: int) -> None:
        lo, hi = j * step, min(j * step + step, total)
        if buf[slot] is None:  # in its own malloc arena, so peak RSS hangs on no thread timing
            buf[slot], scratch[slot] = np.empty((tile_rows, n)), np.empty((tile_rows, n), bool)
        p = buf[slot][: hi - lo]
        head_tile(a2[lo:hi], wd, bd, p, scratch[slot][: hi - lo])
        np.einsum("rpq,rq->rp", p.reshape(-1, rows, cols), x2[lo:hi], out=out2[lo:hi])

    pool.run(forward, tiles)

    tracked = a.node is not None  # a bool, so that the entry keeps h and not the trunk's output

    def backward_fn(g: np.ndarray) -> None:
        with _own_tape(True) as tape:
            a_again = _as_tensor(trunk(h))
        if tracked and a_again.node is None:
            raise ContractError("head_matvec: the trunk's re-run is untracked")
        a2, g2 = a_again.data.reshape(-1, k), g.reshape(-1, rows)
        per = max(1, min(rows, HEAD_TILE_BYTES // (8 * total * cols)))  # head rows per block
        blocks = -(-rows // per)
        chunk = min(total, max(1, HEAD_TILE_BYTES // (64 * per * cols)))  # g ⊗ x rows per chunk
        # w's and b's gradients: a slot that holds one gets each block's part added to its
        # columns, and an empty one gets the array that the blocks fill
        held = [node is not None and node.grad is not None for node in (nw, nb)]
        gw, gb = [node.grad if kept else np.empty(shape)
                  for node, kept, shape in zip((nw, nb), held, (wd.shape, bd.shape))]
        # x's and a's gradients, to which every block adds its parts
        sums = [np.zeros((total, cols)), np.zeros((total, k))]
        own = [None for _ in range(min(pool.workers, blocks))]  # made in the slot's thread
        turn, passed = threading.Condition(), [0]

        def block_parts(slot: int, j: int):
            # the forward's head_tile over every row and the block's columns, on the arrays
            # it checked, then g_pre in place of the block; returns the parts to add
            p0, p1 = j * per, min(j * per + per, rows)
            c0, c1 = p0 * cols, p1 * cols
            if own[slot] is None:  # a block, rows of g ⊗ x, parts of x's, a's, w's and b's grads
                own[slot] = [np.empty(total * per * cols), np.empty(chunk * per * cols),
                             np.empty((total, cols)), np.empty((total, k)),
                             np.empty(k * per * cols if held[0] else 0),
                             np.empty(per * cols if held[1] else 0)]
            flat, flat_outer, gx, ga, flat_w, flat_b = own[slot]
            tile = flat[: total * (c1 - c0)].reshape(total, c1 - c0)
            t3 = tile.reshape(total, p1 - p0, cols)
            head_tile(a2, wd[:, c0:c1], bd[c0:c1], tile, None)
            np.einsum("rpq,rp->rq", t3, g2[:, p0:p1], out=gx)
            np.multiply(tile, tile, out=tile)
            np.subtract(1.0, tile, out=tile)
            for r0 in range(0, total, chunk):
                outer = flat_outer[: min(chunk, total - r0) * (c1 - c0)].reshape(-1, p1 - p0, cols)
                np.einsum("rp,rq->rpq", g2[r0 : r0 + chunk, p0:p1], x2[r0 : r0 + chunk], out=outer)
                t3[r0 : r0 + chunk] *= outer
            # blocks own disjoint columns, so they add into a held slot without a turn
            pw = flat_w[: k * (c1 - c0)].reshape(k, c1 - c0) if held[0] else gw[:, c0:c1]
            pb = flat_b[: c1 - c0] if held[1] else gb[c0:c1]
            np.matmul(a2.T, tile, out=pw)
            np.sum(tile, axis=0, out=pb)
            if held[0]:
                gw[:, c0:c1] += pw
            if held[1]:
                gb[c0:c1] += pb
            np.matmul(tile, wd[:, c0:c1].T, out=ga)
            return zip(sums, (gx, ga))

        def block(slot: int, j: int) -> None:
            added = ()
            try:
                added = block_parts(slot, j)
            finally:  # also when the block raises, or every later block would wait forever
                with turn:  # parts are added in block order, so the bits hang on no thread timing
                    turn.wait_for(lambda: passed[0] == j)
                    for total_sum, part in added:
                        total_sum += part
                    passed[0] += 1
                    turn.notify_all()

        pool.run(block, blocks)
        gx, ga = sums
        _accumulate(nx, gx.reshape(a_shape[:-1] + (cols,)))
        _accumulate(a_again.node, ga.reshape(a_shape))
        for node, kept, grad in zip((nw, nb), held, (gw, gb)):
            if not kept:  # the blocks filled it, so the slot takes it without a copy
                _accumulate(node, grad, owned=True)
        del own, sums, gx, ga, gw, gb  # freed before the trunk's gradients are made
        _replay(tape)

    return _make(out, (a, w, b, x), backward_fn, "head_matvec")


def transpose_last2(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"transpose_last2 requires ndim >= 2, got {a.shape}")
    data = np.swapaxes(a.data, -1, -2).copy()
    na = a.node

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, np.swapaxes(g, -1, -2))

    return _make(data, (a,), backward_fn, "transpose_last2")


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0
    data = np.where(mask, a.data, 0.0)
    na = a.node

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, g * mask)

    return _make(data, (a,), backward_fn, "relu")


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    data = np.abs(a.data)
    ad, na = a.data, a.node

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, g * np.sign(ad))

    return _make(data, (a,), backward_fn, "absolute")


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis (each row sums to one)."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError(f"softmax_rows requires ndim >= 2, got {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    na = a.node

    def backward_fn(g: np.ndarray) -> None:
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(na, data * (g - inner))

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
    na, sa = a.node, a.shape

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, g.reshape(sa))

    return _make(data, (a,), backward_fn, "reshape")


def mean_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")
    data = a.data.mean()
    na, sa = a.node, a.shape

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(na, np.broadcast_to(g / n, sa))

    return _make(data, (a,), backward_fn, "mean_all")


# ---------------------------------------------------------------------------
# Constant constructors
# ---------------------------------------------------------------------------


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))
