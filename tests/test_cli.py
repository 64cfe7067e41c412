"""End-to-end tests of the command-line verbs."""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import baselines, cli, data, entangle, protocol, runner

from helpers import time_limit


@pytest.fixture
def cfg_path(tmp_path):
    mapping = {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "partition": {"mode": "pra", "alpha": 1.0},
        "num_clients": 2,
        "rounds": 1,
        "unified_dim": 4,
        "architectures": [[8], [8]],
        "seeds": [0],
        "inversion": {"steps": 10, "num_targets": 1},
        "output_path": str(tmp_path / "metrics.jsonl"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(mapping))
    return p


@pytest.fixture
def untrained(monkeypatch):
    """Fail the test if any seed trains."""

    def no_training(cfg, world):
        raise AssertionError("a seed trained")

    monkeypatch.setattr(runner, "train", no_training)


def test_run_writes_metrics_and_reports(cfg_path, tmp_path, capsys):
    assert cli.main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "final mean accuracy" in out
    assert "wrote jsonl metrics" in out
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["round"] == 0


def test_run_output_and_format_flags(cfg_path, tmp_path, capsys):
    target = tmp_path / "custom.csv"
    assert cli.main(["run", str(cfg_path), "--output", str(target)]) == 0
    assert target.read_text().startswith("seed,round,mean_acc")
    capsys.readouterr()


def test_run_respects_output_dir_env(cfg_path, tmp_path, capsys, monkeypatch):
    redirect = tmp_path / "elsewhere"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(redirect))
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (redirect / "metrics.jsonl").exists()
    capsys.readouterr()


def test_validate_echoes_effective_config(cfg_path, capsys):
    assert cli.main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "is valid" in out
    assert '"num_clients": 2' in out


def test_invalid_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"strategy": "warp"}))
    assert cli.main(["run", str(p)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["validate", str(tmp_path)]) == 2  # a directory
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["validate", "run", "invert", "sweep"])
@pytest.mark.parametrize(
    "text",
    [b"{not json", b'{"client_lr": ' + b"1" * 5000 + b"}", b'{"output_path": "\xff"}'],
    ids=["bad syntax", "an integer of 5000 digits", "not UTF-8"],
)
def test_a_config_file_that_is_not_json_exits_2(tmp_path, capsys, verb, text):
    p = tmp_path / "cfg.json"
    p.write_bytes(text)
    sweep = ["--key", "rounds", "--values", "1"] if verb == "sweep" else []
    assert cli.main([verb, str(p), *sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {p} is not valid JSON")


def test_sweep_writes_one_file_per_value(cfg_path, tmp_path, capsys):
    rc = cli.main(
        ["sweep", str(cfg_path), "--key", "mechanism", "--values", '"var"', '"rap"']
    )
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("metrics_*.jsonl"))
    assert names == ["metrics_mechanism-rap.jsonl", "metrics_mechanism-var.jsonl"]
    out = capsys.readouterr().out
    assert "mechanism=var" in out and "mechanism=rap" in out


@pytest.mark.parametrize(
    "key, values",
    [("rounds.x", ["1"]), ("rounds", ["notjson"]), ("rounds", ["1" * 5000])],
    ids=["key descends into a number", "value is not JSON", "value has 5000 digits"],
)
def test_sweep_with_a_bad_key_or_value_exits_2(cfg_path, tmp_path, capsys, key, values):
    assert cli.main(["sweep", str(cfg_path), "--key", key, "--values", *values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not list(tmp_path.glob("metrics*"))


SWEEP_PROBES = {
    "a NUL byte": ['"a\\u0000b"'],
    "a 300-character file name": ['"' + "x" * 300 + '"'],
    "two values, one file": ['"p/q"', '"p_q"'],
}


@pytest.mark.parametrize("probe", sorted(SWEEP_PROBES))
def test_a_sweep_file_that_cannot_be_written_exits_2_before_any_training(
    cfg_path, tmp_path, capsys, untrained, probe
):
    # blobs data ignores dataset.path, so only the file names are at fault
    values = SWEEP_PROBES[probe]
    assert cli.main(["sweep", str(cfg_path), "--key", "dataset.path", "--values", *values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    if len(values) > 1:  # the error names both values
        assert all(value in lines[0] for value in values)
    assert not list(tmp_path.glob("metrics*"))


def strict_json(line):
    """line parsed as strict JSON, which has no NaN or infinities."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("verb", ["run", "sweep", "invert"])
def test_every_jsonl_line_is_strict_json(tmp_path, capsys, verb):
    # train_fraction 1 leaves every client without a test sample: no client
    # is scored, and mean_acc is null, not NaN
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 1,
        "train_fraction": 1.0,
        "seeds": [0],
        "inversion": {"steps": 2},
    })
    sweep = ["--key", "rounds", "--values", "1", "2"] if verb == "sweep" else []
    assert cli.main([verb, str(p), *sweep]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.glob("out*.jsonl"))
    assert len(files) == (2 if verb == "sweep" else 1)
    records = [strict_json(line) for f in files for line in f.read_text().splitlines()]
    assert records
    if verb != "invert":
        assert all(r["mean_acc"] is None for r in records)
        assert all(r["per_client_acc"] == [None, None] for r in records)


def test_csv_keeps_nan_for_a_round_with_no_scored_client(tmp_path, capsys):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 1,
        "train_fraction": 1.0,
        "seeds": [0],
    })
    assert cli.main(["run", str(p), "--output", str(tmp_path / "m.csv")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "m.csv").read_text().splitlines()
    assert rows[1].split(",")[2] == "nan"


def test_invert_writes_attack_records(cfg_path, tmp_path, capsys):
    target = tmp_path / "attack.jsonl"
    assert cli.main(["invert", str(cfg_path), "--output", str(target)]) == 0
    out = capsys.readouterr().out
    for kind in ("raw", "prototype", "entangled"):
        assert kind in out
    records = [json.loads(l) for l in target.read_text().splitlines()]
    assert {r["target_kind"] for r in records} == {"raw", "prototype", "entangled"}


def test_invert_scores_a_data_range_whose_square_overflows(cfg_path, tmp_path, capsys):
    mapping = json.loads(cfg_path.read_text())
    mapping["inversion"]["data_range"] = 1e200
    cfg_path.write_text(json.dumps(mapping))
    target = tmp_path / "attack.jsonl"
    assert cli.main(["invert", str(cfg_path), "--output", str(target)]) == 0
    capsys.readouterr()
    records = [json.loads(l) for l in target.read_text().splitlines()]
    assert records and all(r["psnr"] > 3000.0 for r in records)


@pytest.mark.parametrize("verb", ["run", "validate", "invert"])
@pytest.mark.parametrize(
    "categories_per_client, num_clients, per_class",
    [
        # 3 clients x 3 categories = 9 shards cannot cover 10 classes evenly
        (3, 3, 20),
        # 20 clients x 1 category = 2 shards per class, but a class has 1 sample
        (1, 20, 1),
    ],
)
def test_data_dependent_config_errors_exit_2_on_every_verb(
    tmp_path, capsys, verb, categories_per_client, num_clients, per_class
):
    p = tmp_path / "pat.json"
    p.write_text(json.dumps({
        "dataset": {"classes": 10, "per_class": per_class, "dim": 2},
        "partition": {"mode": "pat", "categories_per_client": categories_per_client},
        "num_clients": num_clients,
        "rounds": 1,
        "seeds": [0],
        "output_path": str(tmp_path / "out.jsonl"),
    }))
    assert cli.main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "out.jsonl").exists()


def write_config(tmp_path, mapping):
    """mapping as a config file, writing to tmp_path/out.jsonl unless it
    names another output_path."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"output_path": str(tmp_path / "out.jsonl"), **mapping}))
    return p


def assert_config_error(capsys, verb, path):
    assert cli.main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize("verb", ["validate", "run", "invert"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"seeds": ["x"]},
        {"seeds": 5},
        {"seeds": [-1]},
        {"seeds": [True]},
        {"rounds": "ten"},
        {"rounds": 1.5},
        {"unified_dim": "8"},
        {"train_fraction": "0.5"},
        {"partition": {"alpha": None}},
        {"num_clients": 2.0},
        {"client_batch_size": 1.5},
        {"dataset": {"classes": 2.5}},
        {"architectures": [["a"]], "num_clients": 1},
        {"dataset": {"kind": "csv", "path": 5}},
        {"dataset": {"kind": "csv", "path": "."}},  # a directory
    ],
    ids=repr,
)
def test_ill_typed_configs_exit_2_on_every_verb(tmp_path, capsys, verb, overrides):
    p = write_config(tmp_path, dict({"rounds": 1, "seeds": [0]}, **overrides))
    assert_config_error(capsys, verb, p)
    assert not (tmp_path / "out.jsonl").exists()


BAD_OUTPUT_PATHS = ["", "out\0.jsonl"]


@pytest.mark.parametrize("verb", ["validate", "run", "invert", "sweep"])
@pytest.mark.parametrize("output_path", BAD_OUTPUT_PATHS, ids=["empty", "NUL byte"])
def test_a_bad_output_path_exits_2_before_any_training(
    tmp_path, capsys, untrained, verb, output_path
):
    p = write_config(tmp_path, {"rounds": 1, "seeds": [0], "output_path": output_path})
    sweep = ["--key", "rounds", "--values", "1"] if verb == "sweep" else []
    assert cli.main([verb, str(p), *sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output_path")


@pytest.mark.parametrize(
    "verb, named_by",
    [
        (verb, named_by)
        for verb in ("validate", "run", "invert", "sweep")
        for named_by in ("config", "--output", cli.OUTPUT_DIR_ENV)
        if (verb, named_by) != ("validate", "--output")  # validate has no --output
    ],
)
def test_an_output_path_naming_a_directory_exits_2_before_any_training(
    tmp_path, capsys, monkeypatch, untrained, verb, named_by
):
    """Whatever names it, the config, --output or the re-rooting by
    FEDRE_OUTPUT_DIR, a resolved output path that is an existing directory
    fails every verb with one error line before a seed trains."""

    taken = tmp_path / "taken"
    taken.mkdir()
    output_path = str(tmp_path / "out.jsonl")
    flags = ["--key", "rounds", "--values", "1"] if verb == "sweep" else []
    if named_by == "config":
        output_path = str(taken)
    elif named_by == "--output":
        flags += ["--output", str(taken)]
    else:
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        output_path = "elsewhere/taken"
    p = write_config(tmp_path, {"rounds": 1, "seeds": [0], "output_path": output_path})
    assert cli.main([verb, str(p), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error: output path {str(taken)!r} is a directory"]


@pytest.mark.parametrize("verb", ["validate", "run", "invert", "sweep"])
def test_an_output_path_below_a_regular_file_exits_2_before_any_training(
    tmp_path, capsys, untrained, verb
):
    below = tmp_path / "cfg.json" / "sub" / "x.jsonl"  # cfg.json is the config file
    p = write_config(tmp_path, {"rounds": 1, "seeds": [0], "output_path": str(below)})
    sweep = ["--key", "rounds", "--values", "1"] if verb == "sweep" else []
    assert cli.main([verb, str(p), *sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: output path {str(below)!r} lies below {str(p)!r}, not a directory"
    ]


@pytest.mark.parametrize("verb", ["validate", "run", "invert"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"partition": {"alpha": math.nan}},
        {"partition": {"alpha": 10**400}},
        {"inversion": {"data_range": math.nan}},
        {"inversion": {"init_scale": math.nan}},
        {"client_lr": math.nan},
        {"client_lr": 10**400},
        {"server_lr": math.inf},
        {"lambda_proto": math.nan},
    ],
    ids=lambda o: json.dumps(o)[:40],
)
def test_a_number_no_float_holds_exits_2_before_any_training(
    tmp_path, capsys, untrained, verb, overrides
):
    p = write_config(tmp_path, dict({"rounds": 1, "seeds": [0]}, **overrides))
    with time_limit(10):
        line = assert_config_error(capsys, verb, p)
    assert "must be a finite number" in line
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("verb", ["validate", "run", "invert", "sweep"])
@pytest.mark.parametrize("key", ["num_clients", "rounds", "inversion.steps"])
def test_an_integer_past_sys_maxsize_exits_2_before_any_training(
    tmp_path, capsys, untrained, verb, key
):
    mapping = {"rounds": 1, "seeds": [0]}
    runner.apply_override(mapping, key, 2**63)
    sweep = ["--key", "mechanism", "--values", '"rap"'] if verb == "sweep" else []
    assert cli.main([verb, str(write_config(tmp_path, mapping)), *sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {key} must be at most {sys.maxsize}, not {2**63}"]


# Layers no numpy array can hold: numpy refuses each before allocating.
# Layers that fit an array but not memory are not probed here, as they
# would start the allocation.
UNALLOCATABLE = {
    "width 2**63": {"unified_dim": 2, "architectures": [[2**63], [4]]},
    "width 2**63 - 2": {"unified_dim": 2, "architectures": [[2**63 - 2], [4]]},
    "classifier of 3 * (2**60 - 1)": {
        "rm_op": "fc", "unified_dim": 2**60 - 1, "architectures": [[1], [1]]
    },
}


@pytest.mark.parametrize("verb", ["validate", "run", "invert", "sweep"])
@pytest.mark.parametrize("probe", sorted(UNALLOCATABLE))
def test_a_layer_no_array_can_hold_exits_2_before_any_training(
    tmp_path, capsys, untrained, verb, probe
):
    mapping = {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 1,
        "seeds": [0],
        **UNALLOCATABLE[probe],
    }
    sweep = ["--key", "mechanism", "--values", '"rap"'] if verb == "sweep" else []
    assert cli.main([verb, str(write_config(tmp_path, mapping)), *sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: architectures[0], unified_dim and")


# Each config is bad only in a later seed or sweep value: the verb must build
# every world, and parse every value, before the first seed trains.
LATE_FAULTS = {
    "run, seed 2 gives no client a training sample": ("run", {
        "dataset": {"classes": 2, "per_class": 2, "dim": 2},
        "partition": {"mode": "pra", "alpha": 1.0},
        "num_clients": 2,
        "train_fraction": 0.2,
        "seeds": list(range(10)),
    }, []),
    "invert, seed 2 leaves client 0 empty": ("invert", {
        "dataset": {"classes": 2, "per_class": 4, "dim": 2},
        "partition": {"mode": "pra", "alpha": 1e-30},
        "num_clients": 2,
        "seeds": list(range(8)),
    }, []),
    "sweep, the second client_lr is negative": ("sweep", {}, ["client_lr", "0.1", "-5"]),
    "sweep, the second train_fraction leaves no training sample": (
        "sweep", {}, ["train_fraction", "0.75", "0.01"]
    ),
}


@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
def test_a_fault_in_a_later_seed_or_value_exits_2_before_any_training(
    tmp_path, capsys, untrained, fault
):
    verb, overrides, sweep = LATE_FAULTS[fault]
    mapping = {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 1,
        "seeds": [0],
        "inversion": {"steps": 2},
        **overrides,
    }
    flags = ["--key", sweep[0], "--values", *sweep[1:]] if sweep else []
    assert cli.main([verb, str(write_config(tmp_path, mapping)), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("verb", ["validate", "run", "invert"])
def test_an_alpha_whose_gamma_draws_underflow_ends_on_every_verb(tmp_path, capsys, verb):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "partition": {"mode": "pra", "alpha": 1e-30},
        "num_clients": 2,
        "rounds": 1,
        "seeds": [0, 1],
        "inversion": {"steps": 2},
    })
    with time_limit(30):
        assert cli.main([verb, str(p)]) in (0, 2)
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["validate", "run", "invert"])
def test_longtail_config_runs_on_every_verb(tmp_path, capsys, verb):
    p = write_config(tmp_path, {
        "dataset": {"kind": "blobs", "classes": 10, "per_class": 50, "dim": 2},
        "partition": {"mode": "longtail"},
        "num_clients": 2,
        "unified_dim": 2,
        "rounds": 1,
        "seeds": [0],
        "inversion": {"steps": 2},
    })
    assert cli.main([verb, str(p)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["validate", "run", "invert"])
def test_config_without_training_data_exits_2_on_every_verb(tmp_path, capsys, verb):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 4, "dim": 2},
        "num_clients": 2,
        "rounds": 1,
        "seeds": [0],
        "train_fraction": 0.0,
        "inversion": {"steps": 2},
    })
    assert "training sample" in assert_config_error(capsys, verb, p)
    assert not (tmp_path / "out.jsonl").exists()


def test_validate_checks_every_seed(tmp_path, capsys):
    # seed 2 leaves every client without a training sample, seed 0 does not
    mapping = {
        "dataset": {"classes": 1, "per_class": 6, "dim": 1},
        "partition": {"mode": "pra", "alpha": 0.05},
        "num_clients": 4,
        "unified_dim": 1,
        "architectures": [[1]] * 4,
        "train_fraction": 0.1,
        "rounds": 1,
    }
    assert cli.main(["validate", str(write_config(tmp_path, dict(mapping, seeds=[0])))]) == 0
    capsys.readouterr()
    p = write_config(tmp_path, dict(mapping, seeds=[0, 2]))
    for verb in ("validate", "run"):
        assert "training sample" in assert_config_error(capsys, verb, p)


def test_invert_exits_2_when_the_attacked_client_has_no_training_data(tmp_path, capsys):
    # seed 0 deals all 12 samples to clients other than client 0
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 4, "dim": 2},
        "partition": {"mode": "pra", "alpha": 0.05},
        "num_clients": 6,
        "rounds": 1,
        "seeds": [0],
        "inversion": {"steps": 2},
    })
    assert cli.main(["validate", str(p)]) == 0  # training itself is fine
    capsys.readouterr()
    assert "seed 0" in assert_config_error(capsys, "invert", p)
    assert not (tmp_path / "out.jsonl").exists()


def test_invert_rejects_an_untrained_attacked_client_before_any_round(
    tmp_path, capsys, monkeypatch
):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 4, "dim": 2},
        "partition": {"mode": "pra", "alpha": 0.05},
        "num_clients": 6,
        "rounds": 3,
        "seeds": [0],
        "inversion": {"steps": 2},
    })
    rounds = []
    strategy_round = baselines.strategy_round

    def counting_round(*args, **kwargs):
        rounds.append(args[4])
        return strategy_round(*args, **kwargs)

    monkeypatch.setattr(runner.baselines, "strategy_round", counting_round)
    assert cli.main(["run", str(p)]) == 0  # the counter sees rounds that run
    capsys.readouterr()
    assert rounds == [0, 1, 2]
    rounds.clear()
    assert "seed 0" in assert_config_error(capsys, "invert", p)
    assert rounds == []


def test_invert_marks_a_diverging_seed_failed(tmp_path, capsys):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 2,
        "seeds": [0, 1],
        "client_lr": 1e300,
        "inversion": {"steps": 2},
    })
    assert cli.main(["invert", str(p)]) == 0
    out = capsys.readouterr().out
    assert "failed seeds: [0, 1]" in out
    assert "mean mse nan" in out
    assert "wrote 0 attack records" in out


@pytest.mark.parametrize("verb", ["run", "invert"])
def test_a_diverging_seed_fails_without_numpy_warnings(tmp_path, capsys, verb):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 2,
        "seeds": [0, 1],
        "client_lr": 1e300,
        "inversion": {"steps": 2},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([verb, str(p)]) == 0
    captured = capsys.readouterr()
    assert "failed seeds: [0, 1]" in captured.out
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in captured.err


CSV_FAULTS = {
    "bad header": ("x0,x1,lbl\n0,0,0\n", ":1 header"),
    "wrong field count": ("x0,x1,label\n0,0,0\n1,2\n", ":3 has 2 fields"),
    "non-numeric value": ("x0,x1,label\n0,0,0\n0,abc,1\n", ":3: could not convert"),
    "non-finite value": ("x0,x1,label\n0,nan,0\n", ":2: features must be finite"),
    "fractional label": ("x0,x1,label\n0,0,1.5\n", ":2: invalid literal"),
    "negative label": ("x0,x1,label\n0,0,0\n0,1,-1\n", ":3: label -1 is negative"),
}


@pytest.mark.parametrize("verb", ["validate", "run", "invert"])
@pytest.mark.parametrize("fault", sorted(CSV_FAULTS))
def test_malformed_csv_dataset_exits_2_naming_the_file(tmp_path, capsys, verb, fault):
    text, where = CSV_FAULTS[fault]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(text)
    p = write_config(tmp_path, {
        "dataset": {"kind": "csv", "path": str(csv_path)},
        "num_clients": 1,
        "rounds": 1,
        "seeds": [0],
    })
    line = assert_config_error(capsys, verb, p)
    assert f"{csv_path}{where}" in line
    assert not (tmp_path / "out.jsonl").exists()


def test_invert_fails_the_seeds_whose_attack_diverges(tmp_path, capsys):
    p = write_config(tmp_path, {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "num_clients": 2,
        "rounds": 2,
        "seeds": [0, 1],
        "inversion": {"restarts": 2, "steps": 20, "lr": 1e30},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["invert", str(p)]) == 0
    captured = capsys.readouterr()
    assert "failed seeds: [0, 1]" in captured.out
    assert "wrote 0 attack records" in captured.out
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert captured.err == ""


# JSON values of the wrong type for most fields (and of the right type for some)
ODD_VALUES = [None, True, "x", "8", 1.5, 2.0, -1, [], [True], ["a"], [[1.5]], {}, {"a": 1}]
# floats no config may hold (NaN, infinities) and tiny and huge ones it may
EXTREME_FLOATS = [math.nan, math.inf, -math.inf, 1e-300, 1e300]


def has_nonfinite(node):
    if isinstance(node, dict):
        return any(has_nonfinite(v) for v in node.values())
    return isinstance(node, float) and not math.isfinite(node)


@st.composite
def tiny_configs(draw):
    """One- or two-seed configs over blob or csv data, every strategy,
    mapping, partition mode, batch sizes and epoch counts (out-of-range ones
    included) and sane or diverging learning rates, the attack's included;
    every float field may instead draw a value from EXTREME_FLOATS; some
    have one field, top-level or nested, swapped for a value from
    ODD_VALUES, and some an empty output_path or one with a NUL byte.
    Returns (mapping, csv text or None, whether the csv has a malformed
    row)."""

    def pick(options):
        return draw(st.sampled_from(options))

    def number(*sane):
        """One of the sane values, or about one draw in ten an extreme float."""
        return pick(sane) if draw(st.integers(0, 9)) < 9 else pick(EXTREME_FLOATS)

    num_clients = draw(st.integers(1, 4))
    unified_dim = pick([1, 2])
    mapping = {
        "dataset": {
            "classes": draw(st.integers(1, 4)),
            "per_class": draw(st.integers(1, 6)),
            "dim": draw(st.integers(1, 3)),
            "spread": number(1.0, 0.5),
        },
        "partition": {
            "mode": pick(data.PARTITION_MODES),
            "alpha": number(0.05, 1.0),
            "categories_per_client": draw(st.integers(1, 3)),
            "imbalance_factor": number(1.0, 10.0),
        },
        "num_clients": num_clients,
        "participation_rate": number(0.3, 0.5, 1.0),
        "rounds": draw(st.integers(0, 2)),
        "strategy": pick(baselines.STRATEGIES),
        "mechanism": pick(entangle.MECHANISMS),
        "weight_distribution": pick(entangle.DISTRIBUTIONS),
        "resample": pick(baselines.RESAMPLE_MODES),
        "rm_op": pick(entangle.RM_KINDS),
        "unified_dim": unified_dim,
        "architectures": [
            [unified_dim * draw(st.integers(1, 3))] for _ in range(num_clients)
        ],
        "train_fraction": number(0.0, 0.1, 0.5, 1.0),
        "client_lr": number(0.05, 1e300),
        "server_lr": number(0.05, 1e300),
        "lambda_proto": number(0.0, 0.1),
        "client_batch_size": pick([0, 1, 3, 64]),
        "client_epochs": pick([-1, 0, 1, 2]),
        "server_batch_size": pick([0, 1, 3, 64]),
        "server_epochs": pick([-1, 0, 1, 3]),
        "comm_convention": pick(protocol.CONVENTIONS),
        "seeds": draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2)),
        "inversion": {
            "steps": draw(st.integers(0, 2)),
            "lr": number(0.05, 1e8, 1e30),
            "init_scale": number(1.0, 0.5),
            "num_targets": draw(st.integers(1, 2)),
            "restarts": draw(st.integers(1, 2)),
            "data_range": number(None, 1.0),
        },
    }
    text, malformed = None, False
    if draw(st.booleans()):
        text, malformed = draw(csv_texts())
        mapping["dataset"] = {"kind": "csv", "path": CSV_PLACEHOLDER}
    if draw(st.booleans()):
        key = pick(sorted(mapping))
        node = mapping
        if isinstance(mapping[key], dict) and draw(st.booleans()):
            node, key = mapping[key], pick(sorted(mapping[key]))
        node[key] = pick(ODD_VALUES)
    if draw(st.integers(0, 9)) == 0:
        mapping["output_path"] = pick(BAD_OUTPUT_PATHS)
    return mapping, text, malformed


CSV_PLACEHOLDER = "data.csv"


@st.composite
def csv_texts(draw):
    """(text, malformed): a well-formed dataset csv, or one with a bad
    header, a row of the wrong length, a non-numeric value or a negative
    label."""
    dim = draw(st.integers(1, 3))
    classes = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=20))
    values = st.integers(-300, 300).map(lambda v: f"{v / 100}")
    rows = [[draw(values) for _ in range(dim)] + [str(y)] for y in labels]
    header = [f"x{j}" for j in range(dim)] + ["label"]
    fault = draw(st.sampled_from([None, "header", "fields", "value", "label"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if fault == "header":
        header[-1] = "y"
    elif fault == "fields" and draw(st.booleans()):
        row.append("0")
    elif fault == "fields":
        row.pop(0)
    elif fault == "value":
        row[draw(st.integers(0, dim - 1))] = "abc"
    elif fault == "label":
        row[-1] = "-1"
    text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    return text, fault is not None


@settings(max_examples=150, deadline=None)
@given(tiny_configs())
def test_verbs_exit_0_or_2_and_validate_rejects_what_run_rejects(drawn):
    mapping, text, malformed = drawn
    codes, trained, train = {}, set(), runner.train

    def counted(cfg, world):
        trained.add(verb)
        return train(cfg, world)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "train", counted)
        dataset = mapping["dataset"]
        csv_intact = isinstance(dataset, dict) and dataset.get("path") == CSV_PLACEHOLDER
        if csv_intact:
            (Path(tmp) / CSV_PLACEHOLDER).write_text(text)
            dataset["path"] = str(Path(tmp) / CSV_PLACEHOLDER)
            csv_intact = dataset.get("kind") == "csv"
        path = write_config(Path(tmp), mapping)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with time_limit(30):
                for verb in ("validate", "run", "invert"):
                    codes[verb] = cli.main([verb, str(path)])
    assert set(codes.values()) <= {0, 2}, codes
    assert (codes["validate"] == 2) == (codes["run"] == 2), codes
    assert not {verb for verb in trained if codes[verb] == 2}, (codes, trained)
    bad_output = mapping.get("output_path") in BAD_OUTPUT_PATHS
    if (csv_intact and malformed) or bad_output or has_nonfinite(mapping):
        assert set(codes.values()) == {2}, codes
