"""Truncated signatures and log-signatures in the Lyndon-word basis.

A depth-D signature of a d-channel path lives in the truncated tensor
algebra: one dense order-k tensor per level k = 1..D plus a level-0
scalar.  Signatures of chords are tensor exponentials of the increment;
signatures of polylines are Chen (concatenation) products of chord
signatures; the tensor logarithm of a signature is a Lie element, and
its coordinates in the Lyndon bracket basis form the log-signature
vector of length given by the Witt formula.

Every operation works elementwise over leading cell axes (one cell is
one node of one window), so a whole batch of cells goes through each
step as one numpy call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, NonFiniteError
from .paths import SplinePath, sample_chords

__all__ = [
    "TruncatedTensor",
    "LyndonBasis",
    "identity_tensor",
    "zero_tensor",
    "sig_linear",
    "sig_polyline",
    "chen_mul",
    "tensor_log",
    "lyndon_dimension",
    "lyndon_project",
    "window_logsig",
]

LIE_TOL = 1e-8  # ``lyndon_project``'s bound on a Lie element's scalar and residual


@dataclass
class TruncatedTensor:
    """Elements of the tensor algebra truncated at ``depth``, one per cell.

    ``levels[k-1]`` has shape ``(*cells, dim, ..., dim)`` with k trailing
    ``dim`` axes; an unbatched element has no cell axes.  ``scalar`` is
    the level-0 component shared by every cell (1 for signatures, 0 for
    Lie elements).  Construction checks nothing: the public functions
    below check their inputs once per batched array.
    """

    dim: int
    depth: int
    scalar: float
    levels: list[np.ndarray]

    @property
    def cells(self) -> tuple[int, ...]:
        return self.levels[0].shape[:-1]

    def copy(self) -> "TruncatedTensor":
        return TruncatedTensor(self.dim, self.depth, self.scalar, [l.copy() for l in self.levels])


def zero_tensor(dim: int, depth: int, cells: tuple[int, ...] = ()) -> TruncatedTensor:
    return TruncatedTensor(
        dim, depth, 0.0, [np.zeros(cells + (dim,) * k) for k in range(1, depth + 1)]
    )


def identity_tensor(dim: int, depth: int) -> TruncatedTensor:
    out = zero_tensor(dim, depth)
    out.scalar = 1.0
    return out


def _axpy(acc: TruncatedTensor, c: float, x: TruncatedTensor) -> None:
    acc.scalar += c * x.scalar
    for a, b in zip(acc.levels, x.levels):
        a += c * b


def _outer(a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
    """Per-cell tensor product of an order-i level and an order-j level."""
    cells = b.shape[: b.ndim - j]
    return a.reshape(a.shape + (1,) * j) * b.reshape(cells + (1,) * i + b.shape[len(cells) :])


def _sig_linear(v: np.ndarray, depth: int) -> TruncatedTensor:
    levels = [v.copy()]
    for k in range(2, depth + 1):
        levels.append(_outer(levels[-1], k - 1, v, 1) / k)
    return TruncatedTensor(v.shape[-1], depth, 1.0, levels)


def sig_linear(increment: np.ndarray, depth: int) -> TruncatedTensor:
    """Signature of a straight chord per cell: exp of the increment,
    level k = v^(x)k / k!.  ``increment`` is (*cells, dim)."""
    v = np.asarray(increment, dtype=np.float64)
    if v.ndim < 1 or depth < 1:
        raise ContractError(f"need an increment vector and depth >= 1, got {v.shape}, {depth}")
    if not np.isfinite(v).all():
        raise NonFiniteError("non-finite chord increment")
    return _sig_linear(v, depth)


def chen_mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated concatenation (tensor) product per cell; Chen's identity multiplier."""
    if a.dim != b.dim or a.depth != b.depth:
        raise ContractError(
            f"operands disagree: dim {a.dim} vs {b.dim}, depth {a.depth} vs {b.depth}"
        )
    levels = []
    for n in range(1, a.depth + 1):
        acc = a.scalar * b.levels[n - 1] + b.scalar * a.levels[n - 1]
        for i in range(1, n):
            acc = acc + _outer(a.levels[i - 1], i, b.levels[n - i - 1], n - i)
        levels.append(acc)
    return TruncatedTensor(a.dim, a.depth, a.scalar * b.scalar, levels)


def sig_polyline(points: np.ndarray, depth: int) -> TruncatedTensor:
    """Signature of the polyline through ``points`` (*cells, vertices, dim)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-2] < 2 or depth < 1:
        raise ContractError(
            f"polyline needs at least two points and depth >= 1, got shape {pts.shape}, {depth}"
        )
    if not np.isfinite(pts).all():
        raise NonFiniteError("non-finite polyline vertex")
    sig = _sig_linear(pts[..., 1, :] - pts[..., 0, :], depth)
    for i in range(1, pts.shape[-2] - 1):
        sig = chen_mul(sig, _sig_linear(pts[..., i + 1, :] - pts[..., i, :], depth))
    return sig


def tensor_log(s: TruncatedTensor) -> TruncatedTensor:
    """Tensor logarithm of group-like elements (level-0 scalar must be 1)."""
    if abs(s.scalar - 1.0) > 1e-12:
        raise ContractError(f"tensor_log needs level-0 scalar 1, got {s.scalar}")
    u = TruncatedTensor(s.dim, s.depth, 0.0, s.levels)
    out = zero_tensor(s.dim, s.depth, s.cells)
    power = u
    sign = 1.0
    for n in range(1, s.depth + 1):
        _axpy(out, sign / n, power)
        if n < s.depth:
            power = chen_mul(power, u)
            sign = -sign
    return out


# ---------------------------------------------------------------------------
# Lyndon basis of the free Lie algebra
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def lyndon_dimension(dim: int, depth: int) -> int:
    """Number of Lyndon words of length <= depth over a dim-letter alphabet.

    Necklace-counting (Witt) formula: sum over k of (1/k) sum_{e | k}
    mu(e) dim^(k/e).
    """
    total = 0
    for k in range(1, depth + 1):
        s = sum(_mobius(e) * dim ** (k // e) for e in range(1, k + 1) if k % e == 0)
        total += s // k
    return total


def _duval_words(dim: int, max_len: int) -> list[tuple[int, ...]]:
    """All Lyndon words of length <= max_len, by Duval's algorithm."""
    words: list[tuple[int, ...]] = []
    w = [-1]
    while w:
        w[-1] += 1
        words.append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == dim - 1:
            w.pop()
    return words


def _is_lyndon(word: tuple[int, ...]) -> bool:
    return all(word < word[k:] + word[:k] for k in range(1, len(word)))


def _standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a Lyndon word as u*v with v its longest proper Lyndon suffix."""
    for start in range(1, len(word)):
        if _is_lyndon(word[start:]):
            return word[:start], word[start:]
    raise ContractError(f"no standard factorization for {word}")  # pragma: no cover


class LyndonBasis:
    """Lyndon bracket basis of the free Lie algebra, truncated at ``depth``.

    Words are ordered by length then lexicographically.  ``expansions[i]``
    is the dense concatenation-algebra expansion of the bracketed word
    ``words[i]``; expansions are triangular: the word itself carries
    coefficient 1 and every other word in the expansion is
    lexicographically greater, which makes projection a simple sweep.
    """

    def __init__(self, dim: int, depth: int):
        if dim < 1 or depth < 1:
            raise ContractError(f"need dim >= 1 and depth >= 1, got {dim}, {depth}")
        self.dim = dim
        self.depth = depth
        self.words: list[tuple[int, ...]] = sorted(
            _duval_words(dim, depth), key=lambda w: (len(w), w)
        )
        expected = lyndon_dimension(dim, depth)
        if len(self.words) != expected:
            raise ContractError(
                f"basis of size {len(self.words)} does not match dimension formula {expected}"
            )
        cache: dict[tuple[int, ...], np.ndarray] = {}
        self.expansions: list[np.ndarray] = [self._expand(w, cache) for w in self.words]

    def __len__(self) -> int:
        return len(self.words)

    def _expand(self, word: tuple[int, ...], cache: dict) -> np.ndarray:
        if word in cache:
            return cache[word]
        if len(word) == 1:
            arr = np.zeros(self.dim)
            arr[word[0]] = 1.0
        else:
            u, v = _standard_factorization(word)
            eu, ev = self._expand(u, cache), self._expand(v, cache)
            arr = np.multiply.outer(eu, ev) - np.multiply.outer(ev, eu)
        cache[word] = arr
        return arr


def lyndon_project(lie: TruncatedTensor, basis: LyndonBasis) -> np.ndarray:
    """Coordinates (*cells, L) of Lie elements in the Lyndon basis.

    Exploits triangularity: sweeping words in (length, lex) order, the
    residual coefficient at each word is that word's coordinate.  A
    residual above ``LIE_TOL`` after the sweep means the input was not a Lie
    element.
    """
    if lie.dim != basis.dim or lie.depth != basis.depth:
        raise ContractError(
            f"element ({lie.dim}, {lie.depth}) does not match basis ({basis.dim}, {basis.depth})"
        )
    if abs(lie.scalar) > LIE_TOL:
        raise ContractError(f"Lie element must have zero level-0 scalar, got {lie.scalar}")
    for k, lvl in enumerate(lie.levels, start=1):
        if lvl.ndim < k or lvl.shape[lvl.ndim - k :] != (lie.dim,) * k:
            raise ContractError(
                f"level {k} has shape {lvl.shape}, expected {k} trailing axes of {lie.dim}"
            )
        if not np.isfinite(lvl).all():
            raise NonFiniteError(f"non-finite level {k} of a Lie element")
    residual = [l.copy() for l in lie.levels]
    coords = np.zeros(lie.cells + (len(basis),))
    for i, word in enumerate(basis.words):
        lvl = residual[len(word) - 1]
        c = lvl[(...,) + word]
        coords[..., i] = c
        c = c[(...,) + (None,) * len(word)]
        np.subtract(lvl, c * basis.expansions[i], out=lvl, where=c != 0.0)
    worst = max(float(np.max(np.abs(l))) for l in residual)
    if worst > LIE_TOL:
        raise ContractError(f"input is not a Lie element: projection residual {worst:.3e}")
    return coords


# ---------------------------------------------------------------------------
# Windowed log-signatures of a spline path
# ---------------------------------------------------------------------------


def window_logsig(
    path: SplinePath,
    subpath_len: int,
    depth: int,
    basis: LyndonBasis | None = None,
) -> np.ndarray:
    """Depth-``depth`` log-signature of each cell over each sub-path window.

    Returns coordinates of shape (windows, *cells, L).  The timesteps 0..N
    are cut into ceil(N / subpath_len) windows [i*P, min((i+1)*P, N)]; the
    final window may be shorter, and every window is non-empty.  The path
    is sampled once at every timestep; each window's chord polyline is a
    slice of those samples, and its signature logarithm is projected onto
    the Lyndon basis in one vectorised pass over every cell.
    """
    if subpath_len < 1:
        raise ContractError(f"sub-path length must be >= 1, got {subpath_len}")
    n_intervals = path.steps - 1
    if n_intervals < subpath_len:
        raise DataError(
            f"series with {path.steps} samples is too short for sub-path length {subpath_len}"
        )
    if basis is None:
        basis = LyndonBasis(path.num_channels, depth)
    elif basis.dim != path.num_channels or basis.depth != depth:
        raise ContractError("supplied basis does not match path channels / depth")
    n_windows = -(-n_intervals // subpath_len)
    edges = [min(i * subpath_len, n_intervals) for i in range(n_windows + 1)]
    pts = sample_chords(path)
    coords = np.empty((n_windows,) + path.cell_shape + (len(basis),))
    for w in range(n_windows):
        window = pts[..., edges[w] : edges[w + 1] + 1, :]
        coords[w] = lyndon_project(tensor_log(sig_polyline(window, depth)), basis)
    return coords
