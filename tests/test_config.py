"""Tests for config parsing, defaults, validation, and persistence."""

import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import pytest

from fedre import config, presets


def test_empty_mapping_yields_runnable_defaults():
    cfg = config.parse_config({})
    assert cfg.num_clients == 10
    assert cfg.strategy == "fedre"
    assert cfg.mechanism == "rap"
    assert cfg.rm_op == "ap"
    assert cfg.unified_dim == 8
    assert cfg.architectures == [[16]] * 10  # filled as twice the unified dim
    assert cfg.server_lr == 0.01
    assert cfg.server_batch_size == 10
    assert cfg.server_epochs == 5
    assert cfg.client_epochs == 1
    assert cfg.seeds == [0, 1, 2]


def test_nested_overrides_are_applied():
    cfg = config.parse_config(
        {
            "dataset": {"classes": 4, "per_class": 12},
            "partition": {"mode": "pat", "categories_per_client": 2},
            "inversion": {"steps": 10},
            "num_clients": 2,
        }
    )
    assert cfg.dataset.classes == 4
    assert cfg.partition.mode == "pat"
    assert cfg.inversion.steps == 10
    assert cfg.inversion.restarts == 1


def test_unknown_keys_are_named():
    with pytest.raises(config.ConfigError, match="rouns"):
        config.parse_config({"rouns": 5})
    with pytest.raises(config.ConfigError, match="dataset.clases"):
        config.parse_config({"dataset": {"clases": 3}})


ILL_TYPED = [
    ({"seeds": ["x"]}, "seeds must be a list of integers"),
    ({"seeds": 5}, "seeds must be a list of integers"),
    ({"seeds": [True]}, "seeds must be a list of integers"),
    ({"seeds": [-1]}, "none negative"),
    ({"rounds": "ten"}, "rounds must be an integer"),
    ({"rounds": 1.5}, "rounds must be an integer"),
    ({"rounds": True}, "rounds must be an integer"),
    ({"num_clients": 2.0}, "num_clients must be an integer"),
    ({"client_batch_size": 1.5}, "client_batch_size must be an integer"),
    ({"unified_dim": "8"}, "unified_dim must be an integer"),
    ({"train_fraction": "0.5"}, "train_fraction must be a number"),
    ({"client_lr": False}, "client_lr must be a number"),
    ({"strategy": 3}, "strategy must be a string"),
    ({"partition": {"alpha": None}}, "partition.alpha must be a number"),
    ({"dataset": {"classes": 2.5}}, "dataset.classes must be an integer"),
    ({"dataset": {"kind": "csv", "path": 5}}, "dataset.path must be a string or null"),
    ({"inversion": {"data_range": "1"}}, "inversion.data_range must be a number or null"),
    ({"architectures": [["a"]], "num_clients": 1}, r"architectures\[0\] must be a list"),
    ({"architectures": [8], "num_clients": 1}, r"architectures\[0\] must be a list"),
    ({"architectures": 8, "num_clients": 1}, "architectures must be a list"),
    ({"dataset": "blobs"}, "^dataset must be a JSON object$"),
]


@pytest.mark.parametrize("mapping, message", ILL_TYPED)
def test_ill_typed_values_are_config_errors(mapping, message):
    with pytest.raises(config.ConfigError, match=message):
        config.parse_config(mapping)


def built_in_code(mapping):
    """The ExperimentConfig a mapping describes, built directly, each
    sub-config from its own mapping, so that no parse check runs."""
    groups = {f.name: f.type for f in dataclasses.fields(config.ExperimentConfig)}
    return config.ExperimentConfig(**{
        k: groups[k](**v) if isinstance(v, dict) else v for k, v in mapping.items()
    })


@pytest.mark.parametrize(
    "mapping, message", [case for case in ILL_TYPED if case[0] != {"dataset": "blobs"}]
)
def test_validate_runs_the_type_checks_of_parse(mapping, message):
    """A config edited in code (a preset, a script, the benchmark) gets
    only validate(); it rejects an ill-typed value with parse's message."""
    cfg = built_in_code(mapping)
    with pytest.raises(config.ConfigError, match=message):
        cfg.validate()


def test_validate_rejects_a_sub_config_of_another_type():
    with pytest.raises(config.ConfigError, match="^dataset must be a DatasetConfig"):
        config.ExperimentConfig(dataset="blobs").validate()


def test_well_typed_values_pass():
    cfg = config.parse_config({
        "client_lr": 1,  # an integer is a number
        "inversion": {"data_range": None},
        "dataset": {"path": None},
    })
    assert cfg.client_lr == 1 and cfg.inversion.data_range is None


@pytest.mark.parametrize("in_code", [False, True], ids=["parsed", "built_in_code"])
def test_seed_and_architecture_coercion(in_code):
    mapping = {"num_clients": 2, "seeds": ["3", 4.0], "architectures": [["8"], [16.0]]}
    if in_code:
        cfg = built_in_code(mapping)
        cfg.validate()
    else:
        cfg = config.parse_config(mapping)
    assert cfg.seeds == [3, 4]
    assert cfg.architectures == [[8], [16]]


@pytest.mark.parametrize(
    "mapping",
    [
        {"strategy": "magic"},
        {"mechanism": "xyz"},
        {"weight_distribution": "cauchy"},
        {"resample": "never"},
        {"rm_op": "conv"},
        {"participation_rate": 0.0},
        {"participation_rate": 1.5},
        {"train_fraction": 1.2},
        {"num_clients": 0},
        {"rounds": -1},
        {"unified_dim": 0},
        {"seeds": []},
        {"lambda_proto": -1},
        {"comm_convention": "telepathy"},
        {"dataset": {"kind": "csv"}},  # csv without a path
        {"dataset": {"spread": 0.0}},
        {"partition": {"alpha": 0.0}},
        {"partition": {"imbalance_factor": 0.5}},
        {"inversion": {"lr": 0.0}},
        {"inversion": {"restarts": 0}},
        {"num_clients": 2, "architectures": [[8]]},  # count mismatch
        {"num_clients": 1, "architectures": [[]]},
        {"dataset": {"classes": 3}, "partition": {"mode": "pat", "categories_per_client": 5}},
        # a blob-only size is checked under csv data too
        {"dataset": {"kind": "csv", "path": "data.csv", "spread": 0.0}},
        {"client_lr": math.nan},
        {"server_lr": math.inf},
        {"lambda_proto": -math.inf},
        {"participation_rate": math.nan},
        {"partition": {"alpha": math.nan}},
        {"partition": {"imbalance_factor": math.inf}},
        {"inversion": {"init_scale": math.nan}},
        {"inversion": {"data_range": -math.inf}},
    ],
)
def test_validation_rejects_bad_values(mapping):
    with pytest.raises(config.ConfigError):
        config.parse_config(mapping)


def annotated_fields(kind, cls=config.ExperimentConfig, prefix=()):
    """The key path of every field annotated with kind, sub-configs included."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from annotated_fields(kind, f.type, prefix + (f.name,))
        elif kind in (typing.get_args(f.type) or (f.type,)):
            yield prefix + (f.name,)


def nested(path, value):
    """{path[0]: {path[1]: ... value}}"""
    for key in reversed(path):
        value = {key: value}
    return value


def test_every_float_field_rejects_a_number_no_float_holds():
    paths = list(annotated_fields(float))
    assert {path[:-1] for path in paths} == {(), ("dataset",), ("partition",), ("inversion",)}
    for path in paths:
        for value in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(config.ConfigError, match=f"^{'.'.join(path)} must be a finite"):
                config.parse_config(nested(path, value))


def test_every_int_field_rejects_a_value_past_sys_maxsize():
    # only 2**63 is probed: a huge count that does fit makes a run allocate for it
    paths = list(annotated_fields(int))
    assert {path[:-1] for path in paths} == {(), ("dataset",), ("partition",), ("inversion",)}
    for path in paths:
        name = ".".join(path)
        with pytest.raises(config.ConfigError, match=f"^{name} must be at most {sys.maxsize}, not"):
            config.parse_config(nested(path, 2**63))


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"participation_rate": 0}, r"^participation_rate must lie in \(0, 1\], not 0$"),
        ({"train_fraction": 1.5}, r"^train_fraction must lie in \[0, 1\], not 1.5$"),
        ({"num_clients": 0}, r"^num_clients must lie in \[1, inf\), not 0$"),
        ({"inversion": {"lr": 0.0}}, r"^inversion.lr must lie in \(0, inf\), not 0.0$"),
    ],
)
def test_a_range_error_names_the_field_and_its_range(mapping, message):
    with pytest.raises(config.ConfigError, match=message):
        config.parse_config(mapping)


def test_block_mapping_requires_divisible_raw_dim():
    bad = {"num_clients": 1, "unified_dim": 8, "architectures": [[12]], "rm_op": "ap"}
    with pytest.raises(config.ConfigError, match="divisible"):
        config.parse_config(bad)
    # a learned mapping has no such constraint
    ok = dict(bad, rm_op="fc")
    assert config.parse_config(ok).architectures == [[12]]


def test_direct_construction_validates_too():
    cfg = config.ExperimentConfig(num_clients=3)
    cfg.validate()
    assert cfg.architectures == [[16]] * 3


def test_the_shipped_example_config_is_the_toy_preset():
    """configs/toy_fedre.json, which the README's CLI examples run, is the
    toy comparison preset with the toy attack's inversion settings."""
    cfg = config.load_config(Path(__file__).resolve().parent.parent / "configs" / "toy_fedre.json")
    shipped, preset = dataclasses.asdict(cfg), dataclasses.asdict(presets.toy_comparison_config())
    for d in (shipped, preset):
        del d["output_path"], d["inversion"]
    assert shipped == preset
    assert cfg.inversion == presets.toy_inversion_config().inversion


def test_load_and_save_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"rounds": 7, "dataset": {"classes": 3}}))
    cfg = config.load_config(p)
    assert cfg.rounds == 7
    out = tmp_path / "echo.json"
    out.write_text(json.dumps(dataclasses.asdict(cfg)))
    again = config.load_config(out)
    assert dataclasses.asdict(again) == dataclasses.asdict(cfg)


def test_load_config_reports_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(config.ConfigError, match="not valid JSON"):
        config.load_config(p)


def test_every_bound_and_every_choice_is_checked_at_its_ends():
    """The config is the one place these rules are checked: a value just
    outside each finite end of a field's bound, or outside a Literal's
    choices, is a ConfigError naming the field; one just inside passes."""
    bounded, literals = [], []

    def walk(cls, prefix):
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.type):
                walk(f.type, prefix + (f.name,))
            elif "bound" in f.metadata:
                bounded.append((prefix + (f.name,), f))
            elif typing.get_origin(f.type) is typing.Literal:
                literals.append(prefix + (f.name,))

    walk(config.ExperimentConfig, ())
    assert len(bounded) == 24 and len(literals) == 8
    for path, f in bounded:
        lo, hi, open_below = f.metadata["bound"]

        def past(value, direction):  # the next int, or the next float
            if f.type is int:
                return value + direction
            return math.nextafter(value, direction * math.inf)

        ends = [(lo, past(lo, 1)) if open_below else (past(lo, -1), lo)]
        if hi < math.inf:
            ends.append((past(hi, 1), hi))
        for outside, inside in ends:
            with pytest.raises(config.ConfigError, match=f"^{'.'.join(path)} must lie in"):
                config.parse_config(nested(path, outside))
            config.parse_config(nested(path, inside))
    for path in literals:
        with pytest.raises(config.ConfigError, match=f"^{'.'.join(path)} must be one of"):
            config.parse_config(nested(path, "bogus"))
