"""The scripts under scripts/: each runs at one seed and one round, the README
lists exactly them, and tradeoff.py prints every row and exits as its attack
ordering says."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from fedre import nets, runner

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
NAN = float("nan")


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_there_are_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_script_runs_one_seed_one_round(path):
    # one seed does not guarantee an ordering a script checks, so 1 is allowed
    assert load(path).main(["--seeds", "1", "--rounds", "1"]) in (0, 1)


def test_the_readme_names_exactly_the_scripts():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Scripts\n\n```\n(.*?)```", readme, re.S)
    assert block, "README has no Scripts code block"
    assert set(re.findall(r"scripts/(\S+\.py)", block.group(1))) == {p.name for p in SCRIPTS}


def test_tradeoff_prints_every_policy_and_target_kind(tmp_path, capsys):
    tradeoff = load(ROOT / "scripts" / "tradeoff.py")
    out = tmp_path / "rs.jsonl"
    argv = ["--seeds", "2", "--rounds", "1", "--steps", "5", "--restarts", "1"]
    assert tradeoff.main(argv + ["--output", str(out)]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    for name, _ in tradeoff.POLICIES:
        (row,) = [line for line in lines if line.startswith(name + " ")]
        assert "mean final acc" in row and "upload/round" in row
    assert any(line.startswith("gap (rs - fs): ") for line in lines)
    for kind in runner.TARGET_KINDS:
        (row,) = [line for line in lines if line.split()[:1] == [kind]]
        assert len(row.split()) == 9  # kind, then mean and quartiles of mse and psnr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["seed"], r["round"]) for r in records] == [(0, 0), (1, 0)]


@pytest.mark.parametrize(
    "mse, psnr, code",
    [
        pytest.param((0.01, 0.05, 0.10), (40.0, 30.0, 20.0), 0, id="kept"),
        pytest.param((0.01, 0.05, 0.05), (40.0, 30.0, 30.0), 0, id="ties-kept"),
        pytest.param((0.01, 0.10, 0.05), (40.0, 30.0, 20.0), 1, id="mse-entangled-low"),
        pytest.param((0.05, 0.01, 0.10), (40.0, 30.0, 20.0), 1, id="mse-raw-high"),
        pytest.param((0.01, 0.05, 0.10), (40.0, 20.0, 30.0), 1, id="psnr-entangled-high"),
        pytest.param((0.01, 0.05, 0.10), (20.0, 30.0, 10.0), 1, id="psnr-raw-low"),
        pytest.param((NAN,) * 3, (NAN,) * 3, 1, id="every-seed-failed"),
    ],
)
def test_tradeoff_exits_1_exactly_when_the_attack_ordering_fails(monkeypatch, mse, psnr, code):
    def study(cfg):
        kinds = runner.TARGET_KINDS
        return runner.InversionStudy([], dict(zip(kinds, mse)), dict(zip(kinds, psnr)), [])

    monkeypatch.setattr(runner, "run_inversion_study", study)
    tradeoff = load(ROOT / "scripts" / "tradeoff.py")
    assert tradeoff.main(["--seeds", "1", "--rounds", "1"]) == code


def test_tradeoff_reads_traffic_from_the_first_seed_that_did_not_fail(monkeypatch, capsys):
    train = runner.train

    def seed_0_fails(cfg, world):
        if world.attack_seed.entropy == 0:  # every stream of a world carries its seed
            raise nets.DivergedError("injected")
        return train(cfg, world)

    monkeypatch.setattr(runner, "train", seed_0_fails)
    tradeoff = load(ROOT / "scripts" / "tradeoff.py")
    tradeoff.main(["--seeds", "2", "--rounds", "2", "--steps", "0", "--restarts", "1"])
    lines = capsys.readouterr().out.splitlines()
    (row,) = [line for line in lines if line.startswith("fedre (rs)")]
    assert row.split("upload/round")[1].split() == ["16", "broadcast/round", "180"]


@pytest.mark.parametrize(
    "argv",
    [["--seeds", "0"], ["--rounds", "-1"], ["--steps", "-1"], ["--restarts", "0"]],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_tradeoff_exits_2_on_a_bad_option_before_any_training(monkeypatch, capsys, argv):
    def no_training(cfg):
        raise AssertionError("trained on a config that should have been rejected")

    monkeypatch.setattr(runner, "run_experiment", no_training)
    monkeypatch.setattr(runner, "run_inversion_study", no_training)
    tradeoff = load(ROOT / "scripts" / "tradeoff.py")
    assert tradeoff.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
