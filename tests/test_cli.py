"""End-to-end tests of the command-line verbs."""

import json

import pytest

from fedre import cli


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
    capsys.readouterr()


def test_sweep_writes_one_file_per_value(cfg_path, tmp_path, capsys):
    rc = cli.main(
        ["sweep", str(cfg_path), "--key", "mechanism", "--values", '"var"', '"rap"']
    )
    assert rc == 0
    names = sorted(p.name for p in tmp_path.glob("metrics_*.jsonl"))
    assert names == ["metrics_mechanism-rap.jsonl", "metrics_mechanism-var.jsonl"]
    out = capsys.readouterr().out
    assert "mechanism=var" in out and "mechanism=rap" in out


def test_invert_writes_attack_records(cfg_path, tmp_path, capsys):
    target = tmp_path / "attack.jsonl"
    assert cli.main(["invert", str(cfg_path), "--output", str(target)]) == 0
    out = capsys.readouterr().out
    for kind in ("raw", "prototype", "entangled"):
        assert kind in out
    records = [json.loads(l) for l in target.read_text().splitlines()]
    assert {r["target_kind"] for r in records} == {"raw", "prototype", "entangled"}


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
