"""Experiment configuration: dataclasses, JSON parsing, validation.

Configs are plain JSON objects. Every field has a default except the ones a
run cannot invent (nothing, currently: a minimal ``{}`` runs the default
blob experiment). Unknown keys are rejected by name so typos never silently
fall back to defaults, and every value is checked against its field's type
before validation compares it with anything.
"""

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from . import baselines, data, entangle, protocol


class ConfigError(ValueError):
    """A config file failed validation."""


@dataclass
class DatasetConfig:
    kind: typing.Literal["blobs", "csv"] = "blobs"
    classes: int = 10
    per_class: int = 50
    dim: int = 2
    spread: float = 1.0
    path: str | None = None

    def validate(self):
        if self.kind == "csv" and not self.path:
            raise ConfigError("dataset.kind csv needs dataset.path")
        if self.kind == "blobs":
            if min(self.classes, self.per_class, self.dim) < 1:
                raise ConfigError("dataset sizes must be positive")
            if self.spread <= 0:
                raise ConfigError("dataset.spread must be positive")


@dataclass
class PartitionConfig:
    mode: typing.Literal[data.PARTITION_MODES] = data.PRA
    alpha: float = 0.1
    categories_per_client: int = 2
    imbalance_factor: float = 100.0

    def validate(self):
        if self.alpha <= 0:
            raise ConfigError("partition.alpha must be positive")
        if self.categories_per_client < 1:
            raise ConfigError("partition.categories_per_client must be positive")
        if self.imbalance_factor < 1:
            raise ConfigError("partition.imbalance_factor must be >= 1")


@dataclass
class InversionConfig:
    steps: int = 300
    lr: float = 0.05
    init_scale: float = 1.0
    num_targets: int = 3
    restarts: int = 1  # independent attack starts per target, best kept
    data_range: float | None = None  # None: empirical range of the client data

    def validate(self):
        if self.steps < 0:
            raise ConfigError("inversion.steps must be nonnegative")
        if self.lr <= 0:
            raise ConfigError("inversion.lr must be positive")
        if self.num_targets < 1:
            raise ConfigError("inversion.num_targets must be positive")
        if self.restarts < 1:
            raise ConfigError("inversion.restarts must be positive")
        if self.data_range is not None and self.data_range <= 0:
            raise ConfigError("inversion.data_range must be positive")


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    num_clients: int = 10
    participation_rate: float = 1.0
    rounds: int = 100
    strategy: typing.Literal[baselines.STRATEGIES] = baselines.FEDRE
    mechanism: typing.Literal[entangle.MECHANISMS] = entangle.RAP
    weight_distribution: typing.Literal[entangle.DISTRIBUTIONS] = entangle.UNIFORM
    resample: typing.Literal[baselines.RESAMPLE_MODES] = baselines.RESAMPLED
    rm_op: typing.Literal[entangle.RM_KINDS] = entangle.AP
    unified_dim: int = 8
    architectures: list | None = None  # hidden sizes per client; last is d_k
    client_lr: float = 0.05
    client_batch_size: int = 16
    client_epochs: int = 1
    server_lr: float = 0.01
    server_batch_size: int = 10
    server_epochs: int = 5
    train_fraction: float = 0.75
    comm_convention: typing.Literal[protocol.CONVENTIONS] = protocol.REPRESENTATION_ONLY
    lambda_proto: float = 0.1
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    output_path: str = "runs/metrics.jsonl"
    inversion: InversionConfig = field(default_factory=InversionConfig)

    def validate(self):
        for prefix, group in (("", self), ("dataset.", self.dataset), ("partition.", self.partition)):
            for f in dataclasses.fields(group):
                value = getattr(group, f.name)
                choices = typing.get_args(f.type)
                if typing.get_origin(f.type) is typing.Literal and value not in choices:
                    raise ConfigError(f"{prefix}{f.name} must be one of {choices}, not {value!r}")
        self.dataset.validate()
        self.partition.validate()
        self.inversion.validate()
        if self.num_clients < 1:
            raise ConfigError("num_clients must be positive")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ConfigError("participation_rate must lie in (0, 1]")
        if self.rounds < 0:
            raise ConfigError("rounds must be nonnegative")
        if self.unified_dim < 1:
            raise ConfigError("unified_dim must be positive")
        if self.architectures is None:
            self.architectures = [[2 * self.unified_dim]] * self.num_clients
        if len(self.architectures) != self.num_clients:
            raise ConfigError(
                f"architectures lists {len(self.architectures)} entries but "
                f"num_clients is {self.num_clients}"
            )
        for k, hidden in enumerate(self.architectures):
            if not hidden or min(hidden) < 1:
                raise ConfigError(f"architectures[{k}] must be positive sizes")
            if self.rm_op in (entangle.AP, entangle.MP) and (
                hidden[-1] % self.unified_dim != 0
            ):
                raise ConfigError(
                    f"architectures[{k}] ends in {hidden[-1]}, which is not "
                    f"divisible by unified_dim {self.unified_dim} under "
                    f"{self.rm_op} mapping"
                )
        for name in ("client_lr", "server_lr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in (
            "client_batch_size",
            "client_epochs",
            "server_batch_size",
            "server_epochs",
        ):
            if getattr(self, name) < (0 if name.endswith("epochs") else 1):
                raise ConfigError(f"{name} is out of range")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must lie in [0, 1]")
        if self.lambda_proto < 0:
            raise ConfigError("lambda_proto must be nonnegative")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must list at least one seed, none negative")
        if not self.output_path or "\0" in self.output_path:
            raise ConfigError("output_path must be a nonempty path without NUL bytes")
        if self.dataset.kind == "blobs" and self.partition.mode == data.PAT:
            if self.partition.categories_per_client > self.dataset.classes:
                raise ConfigError(
                    "partition.categories_per_client exceeds dataset.classes"
                )


_KINDS = {int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _as_int(value):
    """value as an int if it is one, an integral float or an integer
    string (a bool is none of these); None otherwise."""
    if isinstance(value, bool):
        return None
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    try:
        return int(value) if isinstance(value, (int, str)) else None
    except ValueError:
        return None


def _int_list(name, value):
    ints = [_as_int(v) for v in value] if isinstance(value, list) else [None]
    if None in ints:
        raise ConfigError(f"{name} must be a list of integers, not {json.dumps(value)}")
    return ints


def _checked(name, value, kind):
    """value, checked against its field's type annotation kind: a bool is
    not an integer and an integer is a number. seeds and architectures
    entries may also be integral floats or integer strings, made ints."""
    if dataclasses.is_dataclass(kind):
        return _from_mapping(kind, value, prefix=name + ".")
    if name == "seeds":
        return _int_list(name, value)
    if name == "architectures":
        if value is None:
            return None
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of lists of integers")
        return [_int_list(f"{name}[{k}]", hidden) for k, hidden in enumerate(value)]
    if typing.get_origin(kind) is typing.Literal:
        kind = str  # validate checks the choice
    kinds = typing.get_args(kind) or (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = " or ".join(_KINDS[k] for k in kinds)
        raise ConfigError(f"{name} must be {expected}, not {json.dumps(value)}")
    return value


def _from_mapping(cls, mapping, prefix=""):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a JSON object")
    unknown = set(mapping) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown config key {prefix + sorted(unknown)[0]!r}")
    return cls(**{
        f.name: _checked(prefix + f.name, mapping[f.name], f.type)
        for f in dataclasses.fields(cls)
        if f.name in mapping
    })


def parse_config(mapping):
    """Build and validate an ExperimentConfig from a plain dict."""
    cfg = _from_mapping(ExperimentConfig, mapping)
    cfg.validate()
    return cfg


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return parse_config(raw)


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)
