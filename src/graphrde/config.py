"""Flat key=value run configuration.

One file describes a full run: dataset location, model shape, training
hyperparameters, solver, split ratios and observation drop.  The format
is a plain text file of ``key = value`` lines with ``#`` comments;
unknown keys are rejected so typos fail loudly.  Every run writes its
fully resolved configuration next to its outputs, and that file alone
reproduces the run bit-for-bit.

Only the dataset, ``ratios`` and ``drop_rate`` keys are declared here.
Every other key is a field of ``ModelConfig``, ``TrainConfig`` or
``SolveSpec`` with that field's name, type and default, and the
section's ``__post_init__`` is the one place its rules are checked.
"""

from __future__ import annotations

from dataclasses import field, fields, make_dataclass

from .data import atomic_write
from .errors import ConfigError
from .model import ModelConfig
from .solver import SolveSpec
from .training import TrainConfig


def _section_keys(cls, skip: tuple[str, ...] = ()) -> list:
    return [(f.name, f.type, field(default=f.default)) for f in fields(cls) if f.name not in skip]


class _Sections:
    """Builders from the flat keys to each section's dataclass."""

    def _section(self, cls, **given):
        names = (f.name for f in fields(cls) if f.name not in given)
        return cls(**{name: getattr(self, name) for name in names}, **given)

    def model_config(self, num_nodes: int) -> ModelConfig:
        if self.num_nodes and self.num_nodes != num_nodes:
            raise ConfigError(
                f"config says num_nodes = {self.num_nodes} but the data has {num_nodes} nodes"
            )
        return self._section(ModelConfig, num_nodes=num_nodes, in_channels=self.channels)

    def train_config(self) -> TrainConfig:
        return self._section(TrainConfig)

    def solve_spec(self) -> SolveSpec:
        return self._section(SolveSpec)

    def split_plan(self) -> tuple[int, int, int]:
        """The train:val:test ratios of the chronological split, e.g. (6, 2, 2)."""
        parts = self.ratios.split(":")
        if len(parts) != 3:
            raise ConfigError(f"ratios must look like 6:2:2, got {self.ratios!r}")
        try:
            ratios = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"ratios must be integers, got {self.ratios!r}") from exc
        if any(r <= 0 for r in ratios):
            raise ConfigError(f"ratios must be three positive integers, got {self.ratios!r}")
        return ratios

    def validate(self) -> None:
        """Cheap checks that don't need the data: build every section."""
        for f in fields(self):  # render_config writes a string as it is, to be parsed back
            v = getattr(self, f.name)
            if f.type == "str" and ("#" in v or v != v.strip() or len(v.splitlines()) > 1):
                raise ConfigError(f"config key {f.name!r} cannot hold {v!r}: a '#', a line break "
                                  "or a blank at an end would not be read back")
        if not (0.0 <= self.drop_rate < 1.0):
            raise ConfigError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        self.model_config(self.num_nodes or 1)
        self.train_config()
        self.solve_spec()
        self.split_plan()


RunConfig = make_dataclass(
    "RunConfig",
    [
        # dataset
        ("values_path", "str", field(default="")),
        ("channels", "int", field(default=1)),  # reader width and ModelConfig.in_channels
        ("num_nodes", "int", field(default=0)),  # 0: inferred from the data
        *_section_keys(ModelConfig, skip=("num_nodes", "in_channels")),
        *_section_keys(TrainConfig),
        *_section_keys(SolveSpec),
        # chronological split and input irregularity
        ("ratios", "str", field(default="6:2:2")),
        ("drop_rate", "float", field(default=0.0)),
    ],
    bases=(_Sections,),
    namespace={"__doc__": "Every knob a run needs, in one flat namespace.", "__module__": __name__},
)

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} expects {kind}, got {raw!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines into a typed override dict."""
    overrides: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        overrides[key] = _parse_value(key, raw)
    return overrides


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a config file and apply CLI overrides on top."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text, source=path)
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    config = RunConfig(**values)
    config.validate()
    return config


def render_config(config: RunConfig) -> str:
    """Canonical text form; floats keep 17 significant digits."""
    lines = ["# resolved run configuration"]
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.type == "float":
            value = "%.17g" % value
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def save_config(path: str, config: RunConfig) -> None:
    atomic_write(path, render_config(config))
