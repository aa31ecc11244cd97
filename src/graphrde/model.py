"""Coupled temporal/spatial fields driven by windowed log-signatures.

The forecasting state is a pair of per-node hidden matrices (H, Z).
H follows a controlled differential equation whose vector field is a
stack of fully connected layers, contracted against the window's
log-signature, each window spanning unit time (the log-ODE step); Z is
driven by dH through a graph-convolutional field, so spatial mixing
happens inside the dynamics.  Predictions are a linear readout of the
final state.

Variants:

* ``full``           evolves H and Z jointly and reads out from Z,
* ``temporal_only``  evolves H alone and reads out from H,
* ``spatial_only``   drives Z directly from the log-signature control
                     (its field head widens accordingly).

The spatial field mixes over the node-adaptive graph I + softmax(relu(E E^T))
learned from node embeddings E, built once per forward.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass, fields as dc_fields

import numpy as np

from . import tensor as T
from .data import atomic_write
from .errors import ConfigError, ContractError, DataError, NonFiniteError
from .logsig import lyndon_dimension
from .tensor import Tensor

VARIANTS = ("full", "temporal_only", "spatial_only")

CHECKPOINT_MAGIC = b"STGNRDE1"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    """Architecture and windowing hyperparameters."""

    num_nodes: int
    in_channels: int = 1      # data channels per node (D)
    input_len: int = 12       # observations per forecasting window (N+1)
    horizon: int = 12         # forecast steps (S)
    out_channels: int = 1     # predicted channels per step (M)
    dim_h: int = 32           # temporal hidden width
    dim_z: int = 32           # spatial hidden width
    num_layers: int = 1       # extra temporal trunk layers (K)
    embed_dim: int = 2        # node embedding width (C)
    sig_depth: int = 2        # log-signature truncation depth
    subpath_len: int = 2      # knot intervals per log-signature window (P)
    variant: str = "full"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in (
            "num_nodes",
            "in_channels",
            "input_len",
            "horizon",
            "out_channels",
            "dim_h",
            "dim_z",
            "embed_dim",
            "sig_depth",
            "subpath_len",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_layers < 0:
            raise ConfigError(f"num_layers must be >= 0, got {self.num_layers}")
        if self.out_channels > self.in_channels:
            raise ConfigError(
                f"out_channels {self.out_channels} cannot exceed in_channels {self.in_channels}"
            )
        if self.input_len - 1 < self.subpath_len:
            raise ConfigError(
                f"input_len {self.input_len} gives {self.input_len - 1} knot intervals, "
                f"fewer than sub-path length {self.subpath_len}"
            )

    @property
    def path_channels(self) -> int:
        """Spline path dimensionality: data channels plus time."""
        return self.in_channels + 1

    @property
    def logsig_dim(self) -> int:
        return lyndon_dimension(self.path_channels, self.sig_depth)

    @property
    def readout_dim(self) -> int:
        return self.dim_h if self.variant == "temporal_only" else self.dim_z


def _param_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Ordered (name, shape, fan_in) triples for every trainable tensor."""
    v, c = config.num_nodes, config.embed_dim
    dh, dz = config.dim_h, config.dim_z
    lsig = config.logsig_dim
    spec: list[tuple[str, tuple[int, ...], int]] = []
    has_temporal = config.variant in ("full", "temporal_only")
    has_spatial = config.variant in ("full", "spatial_only")
    if has_spatial:
        spec.append(("embed", (v, c), c))
    if has_temporal:
        for k in range(config.num_layers + 1):
            spec.append((f"f_w{k}", (dh, dh), dh))
            spec.append((f"f_b{k}", (dh,), dh))
        spec.append(("f_head_w", (dh, dh * lsig), dh))
        spec.append(("f_head_b", (dh * lsig,), dh))
    if has_spatial:
        spec.append(("g_w0", (dz, dz), dz))
        spec.append(("g_b0", (dz,), dz))
        spec.append(("w_spatial", (dz, dz), dz))
        g_head_out = dz * lsig if config.variant == "spatial_only" else dz * dh
        spec.append(("g_head_w", (dz, g_head_out), dz))
        spec.append(("g_head_b", (g_head_out,), dz))
    spec.append(("init_h_w", (config.in_channels, dh), config.in_channels))
    spec.append(("init_h_b", (dh,), config.in_channels))
    if has_spatial:
        spec.append(("init_z_w", (dh, dz), dh))
        spec.append(("init_z_b", (dz,), dh))
    out_dim = config.horizon * config.out_channels
    spec.append(("out_w", (config.readout_dim, out_dim), config.readout_dim))
    spec.append(("out_b", (out_dim,), config.readout_dim))
    return spec


def _stored(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``arrays[name]`` as float64, checked to exist with the given shape."""
    if name not in arrays:
        raise DataError(f"checkpoint is missing tensor {name!r}")
    arr = np.asarray(arrays[name], dtype=np.float64)
    if arr.shape != shape:
        raise DataError(f"checkpoint tensor {name!r} has shape {arr.shape}, expected {shape}")
    return arr


class ParamStore:
    """Named trainable tensors for one model.

    Weights and biases are initialized uniform(-1/sqrt(fan_in),
    +1/sqrt(fan_in)) with a seeded generator, in a fixed name order, so
    a seed fully determines the initial parameters.  Given ``arrays``, the
    store holds those arrays instead, without copying them or drawing.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        arrays: dict[str, np.ndarray] | None = None,
    ):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        for name, shape, fan_in in _param_spec(config):
            if arrays is None:
                bound = 1.0 / np.sqrt(fan_in)
                data = rng.uniform(-bound, bound, size=shape)
            else:
                data = _stored(arrays, name, shape)
            self.params[name] = Tensor(data, requires_grad=True)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def tracked(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            t.data = _stored(arrays, name, t.shape).copy()
            t.grad = None


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def adaptive_adjacency(params: ParamStore) -> Tensor:
    """Learned normalized adjacency: softmax over rows of relu(E E^T)."""
    e = params["embed"]
    return T.softmax_rows(T.relu(e @ T.transpose_last2(e)))


def field_f(h: Tensor, x: Tensor, params: ParamStore, config: ModelConfig,
            k: Tensor | None = None, c: float = 0.0) -> Tensor:
    """Temporal vector field at ``h + c k`` (at ``h`` when ``k`` is None) applied to a control.

    (.., nodes, dim_h) with the control (.., nodes, L) -> (.., nodes, dim_h):
    the (dim_h, L) head of each node contracted against its control.  The
    stage sum ``h + c k``, the relu trunk and the head are one tape entry
    (``tensor.head_matvec``) that keeps ``h`` and ``k`` and runs all three
    again in the backward, so each runs once per forward and once per
    backward, and no stage state is kept.
    """

    def trunk(a: Tensor) -> Tensor:
        if k is not None:
            a = a + c * k
        for layer in range(config.num_layers + 1):
            a = T.relu(a @ params[f"f_w{layer}"] + params[f"f_b{layer}"])
        return a

    return T.head_matvec(trunk, h, params["f_head_w"], params["f_head_b"], x, config.logsig_dim)


def graph_operator(params: ParamStore, config: ModelConfig) -> Tensor | None:
    """The graph operator the spatial field mixes with, built once per forward.

    ``I + adaptive_adjacency``, a function of the node embeddings alone;
    None for the ``temporal_only`` variant, which has no graph.
    """
    if config.variant == "temporal_only":
        return None
    return T.constant(np.eye(config.num_nodes)) + adaptive_adjacency(params)


def field_g(z: Tensor, x: Tensor, prop: Tensor, params: ParamStore, config: ModelConfig,
            k: Tensor | None = None, c: float = 0.0) -> Tensor:
    """Spatial vector field at ``z + c k`` (at ``z`` when ``k`` is None) applied to a control.

    (.., nodes, dim_z) with the control (.., nodes, cols) -> (.., nodes, dim_z).
    The control is dH, with ``cols`` = dim_h (full variant), or the
    window's log-signature, with ``cols`` = L (spatial-only variant).
    ``prop`` is the forward's ``graph_operator``.  The stage sum, the relu
    layer, the graph mixing and the head are one tape entry that keeps ``z``
    and ``k`` and runs them again in the backward, as in ``field_f``.
    """

    def trunk(z: Tensor) -> Tensor:
        if k is not None:
            z = z + c * k
        b0 = T.relu(z @ params["g_w0"] + params["g_b0"])
        return (prop @ b0) @ params["w_spatial"]

    cols = config.logsig_dim if config.variant == "spatial_only" else config.dim_h
    return T.head_matvec(trunk, z, params["g_head_w"], params["g_head_b"], x, cols)


def init_state(f0: Tensor, params: ParamStore, config: ModelConfig) -> list[Tensor]:
    """Initial augmented state from the first observed frame.

    H(0) is an affine map of the raw frame; Z(0) an affine map of H(0).
    The state is ``[H]``, ``[Z]`` or ``[H, Z]`` by variant, so its last
    component is always the one the readout reads.
    """
    if f0.shape[-1] != config.in_channels or f0.shape[-2] != config.num_nodes:
        raise ContractError(
            f"first frame has shape {f0.shape}, expected (.., {config.num_nodes}, {config.in_channels})"
        )
    h0 = f0 @ params["init_h_w"] + params["init_h_b"]
    if config.variant == "temporal_only":
        return [h0]
    z0 = h0 @ params["init_z_w"] + params["init_z_b"]
    if config.variant == "spatial_only":
        return [z0]
    return [h0, z0]


def augmented_rhs(
    state: list[Tensor],
    ell: Tensor,
    prop: Tensor | None,
    params: ParamStore,
    config: ModelConfig,
    k: list[Tensor] | None = None,
    c: float = 0.0,
) -> list[Tensor]:
    """Derivative of the augmented state at ``state + c k`` on one log-signature window.

    ``ell`` holds the window's log-signature coordinates (.., nodes, L),
    the constant control over the window's unit time.  ``prop`` is
    ``graph_operator(params, config)``, built once per forward pass.  The
    derivative is taken at ``state`` when ``k`` is None; otherwise each
    field adds its component of ``c k`` to its state inside its own entry
    (an RK4 stage), so no stage state is kept for the backward.
    """
    ks = [None] * len(state) if k is None else k
    if config.variant == "temporal_only":
        return [field_f(state[0], ell, params, config, ks[0], c)]
    if config.variant == "spatial_only":
        return [field_g(state[0], ell, prop, params, config, ks[0], c)]
    h, z = state
    dh = field_f(h, ell, params, config, ks[0], c)
    return [dh, field_g(z, dh, prop, params, config, ks[1], c)]


def readout(state: list[Tensor], params: ParamStore, config: ModelConfig) -> Tensor:
    """Linear map from the final state's last component to
    (.., nodes, horizon, out_channels)."""
    y = state[-1] @ params["out_w"] + params["out_b"]
    return T.reshape(y, y.shape[:-1] + (config.horizon, config.out_channels))


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, params: ParamStore, extra: dict | None = None) -> None:
    """Write a self-describing binary checkpoint.

    Layout: 8-byte magic, little-endian uint64 header length, JSON
    header (format version, model config, tensor manifest, free-form
    ``extra`` metadata), then raw little-endian float64 blobs at the
    manifest offsets (relative to the end of the header).
    """
    manifest = []
    blob = io.BytesIO()
    for name, arr in params.state_arrays().items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": blob.tell()})
        blob.write(arr.tobytes())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "tensors": manifest,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    atomic_write(
        path,
        CHECKPOINT_MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + blob.getvalue(),
    )


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _read_tensors(manifest, data: bytes, path: str) -> dict[str, np.ndarray]:
    """The manifest's arrays, after checking every entry: a string name,
    a shape of non-negative ints, a non-negative int offset, and byte
    ranges that lie inside ``data`` and do not overlap."""
    if not isinstance(manifest, list):
        raise DataError(f"{path} has no tensor manifest")
    arrays: dict[str, np.ndarray] = {}
    spans = []
    for entry in manifest:
        got = entry if isinstance(entry, dict) else {}
        name, shape, start = got.get("name"), got.get("shape"), got.get("offset")
        ok = isinstance(name, str) and isinstance(shape, list)
        if not (ok and all(map(_is_count, [start, *shape]))):
            raise DataError(f"{path} has a malformed tensor entry {entry!r}")
        if name in arrays:
            raise DataError(f"{path} lists tensor {name!r} twice")
        end = start + 8 * math.prod(shape)
        if end > len(data):
            raise DataError(f"{path} is truncated (tensor {name!r})")
        spans.append((start, end, name))
        try:
            arr = np.frombuffer(data[start:end], dtype="<f8").reshape(shape)
        except ValueError as exc:  # numpy's limits on rank and dimension size
            raise DataError(f"{path}: tensor {name!r} has an unusable shape: {exc}") from exc
        arrays[name] = arr.astype(np.float64)
    spans.sort()
    for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
        if start < end:
            raise DataError(f"{path}: tensors {a!r} and {b!r} share bytes")
    return arrays


def load_checkpoint(path: str) -> tuple[ModelConfig, ParamStore, dict]:
    """Read a checkpoint back into a fresh ParamStore.

    Any fault in the file, its header included, raises ``DataError``.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 16 or raw[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if 16 + header_len > len(raw):
        raise DataError(f"{path} is truncated (header)")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or absurd nesting
        raise DataError(f"{path} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path} has a corrupt header: not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {header.get('format_version')}")
    cfg_dict, extra = header.get("config"), header.get("extra", {})
    if not isinstance(cfg_dict, dict) or not isinstance(extra, dict):
        raise DataError(f"{path} has a corrupt header: config and extra must be JSON objects")
    types = {f.name: f.type for f in dc_fields(ModelConfig)}
    bad = sorted(k for k in types | cfg_dict if type(cfg_dict.get(k)).__name__ != types.get(k))
    if bad:
        raise DataError(f"checkpoint config has missing, unknown or mistyped keys: {bad}")
    arrays = _read_tensors(header.get("tensors"), raw[16 + header_len :], path)
    floats = sum(arr.size for arr in arrays.values())
    try:
        config = ModelConfig(**cfg_dict)
        # A forged config must neither stall the spec below nor size the
        # store's allocation beyond the file: each temporal trunk layer has
        # its own tensors, init_h_w has in_channels rows, and a head has at
        # least logsig_dim >= sig_depth (sig_depth - 1) / 2 entries (the
        # words 0^a 1^b are Lyndon).
        if (
            (config.variant != "spatial_only" and config.num_layers >= len(arrays))
            or config.in_channels > floats
            or config.sig_depth * (config.sig_depth - 1) > 2 * floats
            or sum(math.prod(shape) for _, shape, _ in _param_spec(config)) > floats
        ):
            raise DataError(f"{path}: the model config does not fit the stored tensors")
        store = ParamStore(config, arrays=arrays)
    except (ConfigError, NonFiniteError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    return config, store, extra
