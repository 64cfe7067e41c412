"""Experiment configuration: dataclasses, JSON parsing, validation.

Configs are plain JSON objects. Every field has a default except the ones a
run cannot invent (nothing, currently: a minimal ``{}`` runs the default
blob experiment). Unknown keys are rejected by name so typos never silently
fall back to defaults, and every value is checked against its field's type
before validation compares it with anything. A numeric field's range is
stated once, on the field, and every number must be finite.

Validation boundary: a rule a config can state is stated and checked here
only, each ``Literal`` choice and each field's bound. The library below runs
on validated configs and does not check them again; a dispatch on a kind
ends in a ``ValueError`` for a kind it does not know, so a policy built
directly cannot run another. The library checks only what a config cannot
state: empty sets, shapes, the finiteness of computed arrays, weight
vectors, the pat deal and csv contents.
"""

import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass, field

from . import baselines, data, entangle, protocol


class ConfigError(ValueError):
    """A config file failed validation."""


def _bounded(default, lo, hi=math.inf, open_below=False):
    """A field whose value must lie in [lo, hi], or in (lo, hi] when
    open_below; validate checks it."""
    return field(default=default, metadata={"bound": (lo, hi, open_below)})


@dataclass
class DatasetConfig:
    kind: typing.Literal["blobs", "csv"] = "blobs"
    classes: int = _bounded(10, 1)
    per_class: int = _bounded(50, 1)
    dim: int = _bounded(2, 1)
    spread: float = _bounded(1.0, 0, open_below=True)
    path: str | None = None


@dataclass
class PartitionConfig:
    mode: typing.Literal[data.PARTITION_MODES] = data.PRA
    alpha: float = _bounded(0.1, 0, open_below=True)
    categories_per_client: int = _bounded(2, 1)
    imbalance_factor: float = _bounded(100.0, 1)


@dataclass
class InversionConfig:
    steps: int = _bounded(300, 0)
    lr: float = _bounded(0.05, 0, open_below=True)
    init_scale: float = 1.0
    num_targets: int = _bounded(3, 1)
    restarts: int = _bounded(1, 1)  # independent attack starts per target, best kept
    data_range: float | None = _bounded(None, 0, open_below=True)  # None: the data's own range


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    num_clients: int = _bounded(10, 1)
    participation_rate: float = _bounded(1.0, 0, 1, open_below=True)
    rounds: int = _bounded(100, 0)
    strategy: typing.Literal[baselines.STRATEGIES] = baselines.FEDRE
    mechanism: typing.Literal[entangle.MECHANISMS] = entangle.RAP
    weight_distribution: typing.Literal[entangle.DISTRIBUTIONS] = entangle.UNIFORM
    resample: typing.Literal[baselines.RESAMPLE_MODES] = baselines.RESAMPLED
    rm_op: typing.Literal[entangle.RM_KINDS] = entangle.AP
    unified_dim: int = _bounded(8, 1)
    architectures: list | None = None  # hidden sizes per client; last is d_k
    client_lr: float = _bounded(0.05, 0)
    client_batch_size: int = _bounded(16, 1)
    client_epochs: int = _bounded(1, 0)
    server_lr: float = _bounded(0.01, 0)
    server_batch_size: int = _bounded(10, 1)
    server_epochs: int = _bounded(5, 0)
    train_fraction: float = _bounded(0.75, 0, 1)
    comm_convention: typing.Literal[protocol.CONVENTIONS] = protocol.REPRESENTATION_ONLY
    lambda_proto: float = _bounded(0.1, 0)
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    output_path: str = "runs/metrics.jsonl"
    inversion: InversionConfig = field(default_factory=InversionConfig)

    def validate(self):
        _check_fields(self)
        if self.dataset.kind == "csv" and not self.dataset.path:
            raise ConfigError("dataset.kind csv needs dataset.path")
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
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must list at least one seed, none negative")
        if not self.output_path or "\0" in self.output_path:
            raise ConfigError("output_path must be a nonempty path without NUL bytes")
        if self.dataset.kind == "blobs" and self.partition.mode == data.PAT:
            if self.partition.categories_per_client > self.dataset.classes:
                raise ConfigError(
                    "partition.categories_per_client exceeds dataset.classes"
                )


def _check_fields(group, prefix=""):
    """Check every field of group and its sub-configs against its
    annotation: a Literal's choices, a float's finiteness (NaN, infinities
    and integers past the float range fail), an int's fit in an index
    (sys.maxsize) and a bounded field's range, NaN failing it too."""
    for f in dataclasses.fields(group):
        name, value = prefix + f.name, getattr(group, f.name)
        kinds = typing.get_args(f.type) or (f.type,)
        if dataclasses.is_dataclass(value):
            _check_fields(value, name + ".")
        elif typing.get_origin(f.type) is typing.Literal and value not in kinds:
            raise ConfigError(f"{name} must be one of {kinds}, not {value!r}")
        elif value is None:
            continue
        elif float in kinds and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, not {json.dumps(value)}")
        elif int in kinds and value > sys.maxsize:
            raise ConfigError(f"{name} must be at most {sys.maxsize}, not {value}")
        elif "bound" in f.metadata:
            lo, hi, open_below = f.metadata["bound"]
            if not (lo < value <= hi if open_below else lo <= value <= hi):
                left, right = "(" if open_below else "[", "]" if hi < math.inf else ")"
                raise ConfigError(
                    f"{name} must lie in {left}{lo}, {hi}{right}, not {json.dumps(value)}"
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
        except ValueError as e:  # bad syntax, too many digits, or not UTF-8
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return parse_config(raw)


def config_to_dict(cfg):
    return dataclasses.asdict(cfg)
