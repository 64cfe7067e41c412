"""Tests of the benchmark's own arithmetic, checks and wrappers."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedre import (  # noqa: E402
    baselines,
    config,
    data,
    entangle,
    inversion,
    nets,
    presets,
    protocol,
    runner,
)

from perfbench import checks, tracing  # noqa: E402

FEDRE = {
    "fedre": sys.modules["fedre"],
    "nets": nets,
    "data": data,
    "entangle": entangle,
    "protocol": protocol,
    "baselines": baselines,
    "inversion": inversion,
    "config": config,
    "runner": runner,
    "presets": presets,
}


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # children of the root overlap each other and one runs past its parent;
    # listed out of start order
    start = [0.0, 3.0, 1.0, 8.0]
    end = [10.0, 7.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = tracing.self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 6.0 - 2.0)  # union [1, 7] plus [8, 10]
    assert own[1:].tolist() == [4.0, 4.0, 4.0]


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = tracing.tail(range(100))
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10
    assert tracing.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def small_study_config():
    cfg = presets.toy_inversion_config(num_seeds=1, rounds=2)
    cfg.inversion.steps = 5
    cfg.inversion.restarts = 1
    return cfg


def test_wrappers_cover_every_importing_module():
    originals = {
        "forward_pass": nets.forward_pass,
        "client_local_update": protocol.client_local_update,
        "rm_apply": entangle.rm_apply,
        "rs_init": entangle.RepresentationSet.__init__,
    }
    tracer = tracing.Tracer()
    tracer.install(FEDRE)
    try:
        wrapped = nets.forward_pass
        assert wrapped is not originals["forward_pass"]
        assert wrapped.__wrapped__ is originals["forward_pass"]
        # bound by value in the importing modules, so each is rebound too
        assert entangle.forward_pass is wrapped
        assert inversion.forward_pass is wrapped
        assert baselines.client_local_update is protocol.client_local_update
        assert runner.rm_apply is entangle.rm_apply is inversion.rm_apply
        runner.run_inversion_study(small_study_config())
    finally:
        tracer.uninstall()
    assert nets.forward_pass is entangle.forward_pass is originals["forward_pass"]
    assert inversion.forward_pass is originals["forward_pass"]
    assert baselines.client_local_update is originals["client_local_update"]
    assert runner.rm_apply is originals["rm_apply"]
    assert entangle.RepresentationSet.__init__ is originals["rs_init"]

    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name_id"]]
    parent_names = np.where(spans["parent"] >= 0, names[spans["parent"]], "")
    # forward_pass reached through inversion's own binding
    assert ("inversion.invert", "nets.forward_pass") in set(zip(parent_names, names))
    # client_local_update reached through baselines' binding
    assert ("baselines.strategy_round", "protocol.client_local_update") in set(zip(parent_names, names))
    assert "entangle.RepresentationSet" in set(names)
    assert set(spans["seed"][names == "baselines.strategy_round"]) == {0}
    assert set(spans["round"][names == "baselines.strategy_round"]) == {0, 1}


def fedre_rs_run(rounds=2):
    cfg = presets.toy_comparison_config(strategy="fedre", rounds=rounds, num_seeds=1)
    summary = runner.run_experiment(cfg)
    world = runner.build_world(cfg, 0)
    allowed = checks.expected_ledgers(
        sys.modules["fedre"], cfg, world.strategy, checks.client_stats(world)
    )
    records = [m.to_record(r) for r, m in enumerate(summary.traces[0].records)]
    return cfg, records, allowed


def test_checker_accepts_a_real_run_and_rejects_corrupted_records():
    cfg, records, allowed = fedre_rs_run()
    assert allowed == {(16, 180)}
    assert checks.check_seed_records(records, cfg.rounds, cfg.num_clients, allowed) == []

    def corrupted(key, value):
        bad = [dict(r) for r in records]
        bad[1][key] = value
        return checks.check_seed_records(bad, cfg.rounds, cfg.num_clients, allowed)

    assert corrupted("upload_scalars", records[1]["upload_scalars"] + 1)
    assert corrupted("broadcast_scalars", 0)
    assert corrupted("mean_acc", float("nan"))
    assert corrupted("per_client_acc", [0.5, 1.5])
    assert corrupted("round", 0)
    assert checks.check_seed_records(records[:1], cfg.rounds, cfg.num_clients, allowed)
    assert checks.digest(records) != checks.digest(
        [records[0], dict(records[1], mean_acc=records[1]["mean_acc"] + 1e-12)]
    )


def test_partial_participation_ledgers_follow_the_chosen_clients():
    cfg = presets.toy_comparison_config(strategy="fed_all_rep", num_seeds=1)
    cfg.participation_rate = 0.5
    strategy = baselines.Strategy(kind=baselines.FED_ALL_REP)
    stats = [(30, 3), (50, 4), (0, 0)]
    allowed = checks.expected_ledgers(sys.modules["fedre"], cfg, strategy, stats)
    # one of the two clients with data takes part; each packet is 8 scalars
    assert allowed == {(30 * 8, 90), (50 * 8, 90)}


def test_ledgers_need_fedre_formulas_to_agree_with_the_closed_forms(monkeypatch):
    cfg = presets.toy_comparison_config(strategy="fedre", num_seeds=1)
    strategy = baselines.Strategy(kind=baselines.FEDRE)
    stats = [(30, 3), (50, 4)]
    fedre = sys.modules["fedre"]
    assert checks.expected_ledgers(fedre, cfg, strategy, stats) == {(16, 180)}
    real = baselines.ledger_for
    monkeypatch.setattr(
        baselines, "ledger_for", lambda *a, **k: tuple(x + 1 for x in real(*a, **k))
    )
    assert checks.expected_ledgers(fedre, cfg, strategy, stats) == set()


def test_privacy_order_check():
    def result(kind, mse):
        return inversion.InversionResult(np.zeros(2), kind, mse, 10.0, 5)

    crossed = [result("raw", 0.0), result("prototype", 0.2), result("entangled", 0.1)]
    assert checks.check_privacy_order(crossed, full=False) == []
    assert checks.check_privacy_order(crossed, full=True)
    raw_worst = [result("raw", 0.3), result("prototype", 0.2), result("entangled", 0.4)]
    assert checks.check_privacy_order(raw_worst, full=False)
    # one stalled raw attack lifts the raw mean but not its median
    stalled = crossed + [result("raw", 0.0), result("raw", 0.9)]
    assert checks.check_privacy_order(stalled, full=False) == []


def test_attack_checker_counts_targets_per_kind():
    inv = config.InversionConfig(num_targets=3)

    def results(counts):
        return [
            inversion.InversionResult(np.zeros(2), kind, 0.1, 10.0, 5)
            for kind, n in counts.items()
            for _ in range(n)
        ]

    full = {"raw": 3, "prototype": 3, "entangled": 3}
    assert checks.check_attacks(results(full), inv, (30, 4)) == []
    # a client with two categories has only two prototypes to attack
    assert checks.check_attacks(results(dict(full, prototype=2)), inv, (30, 2)) == []
    assert checks.check_attacks(results(dict(full, prototype=2)), inv, (30, 4))
    assert checks.check_attacks(results(dict(full, entangled=0)), inv, (30, 4))
    bad = results(full)
    bad[0].mse = float("nan")
    assert checks.check_attacks(bad, inv, (30, 4))


def test_toy_band_check():
    assert checks.check_toy_band(62.0 + 5.9) == []
    assert checks.check_toy_band(62.0 - 6.1)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_all_rep", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
