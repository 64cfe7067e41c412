"""Smoke runs of every script under scripts/, one seed and one round each."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["toy_comparison", "rs_vs_fs"])
def test_comparison_scripts_run(name, capsys):
    assert load(name).main(["--seeds", "1", "--rounds", "1"]) == 0
    assert "mean final acc" in capsys.readouterr().out


def test_inversion_study_script_reports_every_target_kind(capsys):
    argv = ["--seeds", "1", "--rounds", "1", "--steps", "5", "--restarts", "1"]
    # one seed does not guarantee the privacy ordering, so 1 is allowed
    assert load("inversion_study").main(argv) in (0, 1)
    rows = capsys.readouterr().out.splitlines()[:3]
    assert [row.split()[0] for row in rows] == ["raw", "prototype", "entangled"]
    assert all("mean mse" in row and "mean psnr" in row for row in rows)
