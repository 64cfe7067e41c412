"""Seed 0 of both benchmark workloads reproduces its stored digest.

perfbench/golden.json holds the SHA-256 of each workload's seed-0 records;
a change that moves any accuracy, ledger count or attack score of those
runs by one bit fails here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from fedre import config, presets, runner  # noqa: E402
from perfbench import checks, workloads  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


def test_toy_attack_seed_0_matches_its_golden_digest():
    cfg = presets.toy_inversion_config()
    cfg.seeds = [GOLDEN["toy_attack"]["seed"]]
    study = runner.run_inversion_study(cfg)
    assert checks.digest(study.records()) == GOLDEN["toy_attack"]["sha256"]


def test_wide_all_rep_seed_0_matches_its_golden_digest():
    cfg = config.parse_config(workloads.wide_all_rep_mapping())
    cfg.seeds = [GOLDEN["wide_all_rep"]["seed"]]
    summary = runner.run_experiment(cfg)
    records = runner.summary_records(summary)
    assert checks.digest(records) == GOLDEN["wide_all_rep"]["sha256"]
