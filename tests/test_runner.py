"""Tests for seeded runs, aggregation, export, sweeps, and the attack study."""

import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedre import baselines, config, runner

from helpers import net_params_equal, rounds_until, save_csv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def tiny_mapping(**overrides):
    base = {
        "dataset": {"classes": 3, "per_class": 8, "dim": 2},
        "partition": {"mode": "pra", "alpha": 1.0},
        "num_clients": 2,
        "rounds": 2,
        "unified_dim": 4,
        "architectures": [[8], [12]],
        "seeds": [0, 1],
        "inversion": {"steps": 15, "num_targets": 1},
    }
    base.update(overrides)
    return base


def tiny_config(**overrides):
    return config.parse_config(tiny_mapping(**overrides))


# ---------------------------------------------------------------- world


def test_build_world_respects_config():
    cfg = tiny_config()
    world = runner.build_world(cfg, seed=0)
    clients = runner.init_clients(cfg, world)
    assert [c.client_id for c in clients] == [0, 1]
    assert clients[0].extractor.output_dim == 8
    assert clients[1].extractor.output_dim == 12
    assert world.server.classifier.input_dim == 4
    assert world.server.classifier.output_dim == 3
    total = sum(len(c.train) + len(c.test) for c in clients)
    assert total == 24  # every blob sample lands on some client
    # heterogeneity: the two extractors are genuinely different shapes
    assert clients[0].extractor.layers[0].weight.shape != (
        clients[1].extractor.layers[0].weight.shape
    )


def test_build_world_same_seed_is_identical():
    cfg = tiny_config()
    a = runner.build_world(cfg, seed=3)
    b = runner.build_world(cfg, seed=3)
    for ca, cb in zip(runner.init_clients(cfg, a), runner.init_clients(cfg, b)):
        assert net_params_equal(ca.extractor, cb.extractor)
        np.testing.assert_array_equal(ca.train.X, cb.train.X)
    assert net_params_equal(a.server.classifier, b.server.classifier)


def test_build_world_different_seed_differs():
    cfg = tiny_config()
    a = runner.build_world(cfg, seed=3)
    b = runner.build_world(cfg, seed=4)
    ca, cb = runner.init_clients(cfg, a), runner.init_clients(cfg, b)
    assert not np.array_equal(ca[0].train.X, cb[0].train.X)
    assert not net_params_equal(ca[0].extractor, cb[0].extractor)


def test_build_world_fc_mapping_sizes():
    cfg = tiny_config(rm_op="fc", architectures=[[7], [9]])
    clients = runner.init_clients(cfg, runner.build_world(cfg, seed=0))
    assert clients[0].rm.net.input_dim == 7
    assert clients[0].rm.net.output_dim == 4


def test_build_world_csv_dataset(tmp_path):
    from fedre import data

    ds = data.make_blobs(3, 10, 2, 1.0, 0)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    cfg = tiny_config(dataset={"kind": "csv", "path": str(path)})
    world = runner.build_world(cfg, seed=0)
    assert sum(len(c.train) + len(c.test) for c in world.clients) == 30
    assert world.server.classifier.output_dim == 3


def test_build_world_rejects_an_unreadable_csv_path(tmp_path):
    cfg = tiny_config(dataset={"kind": "csv", "path": str(tmp_path)})
    with pytest.raises(config.ConfigError, match="cannot read dataset.path"):
        runner.build_world(cfg, seed=0)


def test_fresh_worlds_hold_their_data_and_no_nets():
    cfg = config.parse_config({**workloads.wide_all_rep_mapping(), "seeds": list(range(8))})
    tracemalloc.start()
    try:
        worlds = runner.build_worlds(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 10e6  # 32.7 MB when build_world drew the client nets
    for _, world in worlds:
        assert all(n is None for c in world.clients for n in (c.extractor, c.rm, c.classifier))
    _, world = worlds[0]
    data_bytes = sum(d.X.nbytes + d.y.nbytes for c in world.clients for d in (c.train, c.test))
    assert len(pickle.dumps(world)) < 1.1 * data_bytes  # 4.1 MB with nets, against 0.8 MB


RESUME = "import sys, helpers; helpers.resume(sys.stdin.buffer, sys.stdout.buffer)"


def run_state(clients, server, records, part_rng):
    """Everything a run leaves: its records, every parameter, fs weights
    and RNG state, as comparable values."""
    nets = [n for c in clients for n in (c.extractor, c.rm.net, c.classifier)] + [server.classifier]
    return (
        [repr(m.to_record(r)) for r, m in enumerate(records)],
        [a.tobytes() for n in nets for layer in n.layers for a in (layer.weight, layer.bias)],
        [None if c.weights is None else c.weights.tobytes() for c in clients],
        [g.bit_generator.state for g in [c.rng for c in clients] + [server.rng, part_rng]],
    )


def test_a_pickled_world_or_mid_run_state_resumes_bitwise_in_a_fresh_process():
    cases = [(kind, "fs") for kind in baselines.STRATEGIES] + [(baselines.FEDRE, "rs")]
    jobs, wants = [], []
    for seed, (kind, resample) in enumerate(cases):
        cfg = tiny_config(
            strategy=kind, resample=resample, rm_op="fc", rounds=4, participation_rate=0.5
        )
        world = runner.build_world(cfg, seed)
        wants += [run_state(*runner.train(cfg, world), world.part_rng)] * 2
        fresh = runner.build_world(cfg, seed)
        start = (fresh.strategy, runner.init_clients(cfg, fresh), fresh.server, {}, fresh.part_rng, [])
        jobs += [(cfg, runner.build_world(cfg, seed)), (cfg, rounds_until(cfg, start, 2))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run(
        [sys.executable, "-c", RESUME], input=pickle.dumps(jobs),
        capture_output=True, env=env, check=True, timeout=120,
    )
    got = [run_state(*run) for run in pickle.loads(done.stdout)]
    assert len(got) == len(wants) == 2 * len(cases)
    for g, w in zip(got, wants):
        assert g == w


# ---------------------------------------------------------------- runs


def test_run_experiment_is_reproducible():
    cfg = tiny_config()
    a = runner.run_experiment(cfg)
    b = runner.run_experiment(cfg)
    assert [t.final_mean_acc for t in a.traces] == [t.final_mean_acc for t in b.traces]
    assert a.mean_acc == b.mean_acc
    for ta, tb in zip(a.traces, b.traces):
        assert [m.mean_acc for m in ta.records] == [m.mean_acc for m in tb.records]
        assert [m.upload_scalars for m in ta.records] == [m.upload_scalars for m in tb.records]


def test_a_repeated_seed_runs_again_on_a_world_of_its_own():
    # training advances a world's participation stream, so a shared world
    # would give the second run of seed 1 other rounds than the first
    cfg = tiny_config(seeds=[1, 0, 1], participation_rate=0.5, rounds=3)
    records = runner.summary_records(runner.run_experiment(cfg))
    assert [r["seed"] for r in records] == [1] * 3 + [0] * 3 + [1] * 3
    assert records[:3] == records[6:]


def test_run_experiment_aggregates_over_seeds():
    cfg = tiny_config()
    summary = runner.run_experiment(cfg)
    assert [t.seed for t in summary.traces] == [0, 1]
    assert summary.failed_seeds == []
    vals = [t.final_mean_acc for t in summary.traces]
    assert summary.mean_acc == pytest.approx(np.mean(vals))
    assert summary.std_acc == pytest.approx(np.std(vals))
    assert summary.upload_total == 2 * 2 * 4  # rounds * clients * unified_dim
    for trace in summary.traces:
        assert len(trace.records) == 2


def test_run_experiment_zero_rounds_reports_initial_accuracy():
    cfg = tiny_config(rounds=0)
    summary = runner.run_experiment(cfg)
    assert summary.traces[0].records == []
    assert 0.0 <= summary.mean_acc <= 1.0
    assert summary.upload_total == 0


def test_run_experiment_records_failed_seeds(monkeypatch):
    from fedre.nets import DivergedError

    real = runner.baselines.strategy_round
    calls = {"n": 0}

    def first_call_diverges(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise DivergedError("injected blow-up")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner.baselines, "strategy_round", first_call_diverges)
    summary = runner.run_experiment(tiny_config())
    assert summary.failed_seeds == [0]
    assert summary.traces[0].failed
    assert "DivergedError" in summary.traces[0].error
    assert np.isnan(summary.traces[0].final_mean_acc) and summary.traces[0].records == []
    # the surviving seed still aggregates
    assert not summary.traces[1].failed
    assert summary.mean_acc == pytest.approx(summary.traces[1].final_mean_acc)


def test_run_experiment_all_seeds_failed_is_nan(monkeypatch):
    from fedre.nets import DivergedError

    def always_diverges(*args, **kwargs):
        raise DivergedError("injected blow-up")

    monkeypatch.setattr(runner.baselines, "strategy_round", always_diverges)
    summary = runner.run_experiment(tiny_config())
    assert summary.failed_seeds == [0, 1]
    assert np.isnan(summary.mean_acc)
    assert summary.upload_total == 0


def test_local_strategy_runs_through_runner():
    cfg = tiny_config(strategy="local")
    summary = runner.run_experiment(cfg)
    assert summary.upload_total == 0
    assert summary.broadcast_total == 0


def test_fedproto_strategy_runs_through_runner():
    cfg = tiny_config(strategy="fedproto_style")
    summary = runner.run_experiment(cfg)
    assert summary.failed_seeds == []
    assert summary.upload_total > 0


# ---------------------------------------------------------------- export


def test_export_jsonl_round_trips_records(tmp_path):
    cfg = tiny_config()
    summary = runner.run_experiment(cfg)
    path = runner.export_records(runner.summary_records(summary), "jsonl", tmp_path / "m.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4  # 2 seeds * 2 rounds
    assert list(lines[0]) == [
        "seed",
        "round",
        "mean_acc",
        "per_client_acc",
        "upload_scalars",
        "broadcast_scalars",
    ]
    assert lines[0]["seed"] == 0 and lines[0]["round"] == 0
    assert lines[3]["seed"] == 1 and lines[3]["round"] == 1


def test_export_csv_header_and_rows(tmp_path):
    cfg = tiny_config()
    summary = runner.run_experiment(cfg)
    records = runner.summary_records(summary)
    path = runner.export_records(records, "csv", tmp_path / "m.csv")
    rows = path.read_text().splitlines()
    assert rows[0] == "seed,round,mean_acc,upload,broadcast"
    assert len(rows) == 5
    with pytest.raises(ValueError):
        runner.export_records(records, "yaml", tmp_path / "m.yaml")


def test_export_writes_a_non_finite_float_as_null(tmp_path):
    records = [{"a": float("nan"), "b": np.float64("inf"), "c": -np.inf, "d": 0.5, "e": [None, 1.0]}]
    path = runner.export_records(records, "jsonl", tmp_path / "sub" / "r.jsonl")
    assert path.read_text() == '{"a": null, "b": null, "c": null, "d": 0.5, "e": [null, 1.0]}\n'


# ---------------------------------------------------------------- sweeps


def test_apply_override_handles_nesting():
    mapping = {"dataset": {"classes": 3}}
    runner.apply_override(mapping, "dataset.per_class", 5)
    runner.apply_override(mapping, "rounds", 9)
    assert mapping == {"dataset": {"classes": 3, "per_class": 5}, "rounds": 9}


def test_run_sweep_runs_each_value():
    results = runner.run_sweep(tiny_mapping(seeds=[0], rounds=1), "mechanism", ["var", "rap"])
    assert [v for v, _, _ in results] == ["var", "rap"]
    for value, cfg, summary in results:
        assert cfg.mechanism == value
        assert len(summary.traces) == 1
    # the sweep must not leak state between values
    assert results[0][1].mechanism == "var"


# ---------------------------------------------------------------- attack study


def test_run_inversion_study_scores_all_target_kinds():
    cfg = tiny_config(seeds=[0], rounds=1)
    study = runner.run_inversion_study(cfg)
    kinds = {r.target_kind for r in study.results}
    assert kinds == {"raw", "prototype", "entangled"}
    for r in study.results:
        assert r.iterations == 15
        assert np.isfinite(r.mse)
        assert np.isfinite(r.psnr)
        assert r.mse >= 0
    assert set(study.mean_mse) == set(runner.TARGET_KINDS)
    recs = study.records()
    assert recs[0].keys() == {"target_kind", "mse", "psnr", "iterations"}


def test_run_inversion_study_is_reproducible():
    cfg = tiny_config(seeds=[0], rounds=1)
    a = runner.run_inversion_study(cfg)
    b = runner.run_inversion_study(cfg)
    assert a.mean_mse == b.mean_mse
    assert a.mean_psnr == b.mean_psnr


@pytest.mark.parametrize("lr_key", ["client_lr", "server_lr"])
def test_overflowing_learning_rate_marks_seeds_failed(lr_key):
    from fedre import presets

    cfg = presets.toy_comparison_config(rounds=3, num_seeds=2)
    setattr(cfg, lr_key, 1e300)
    with np.errstate(all="ignore"):
        summary = runner.run_experiment(cfg)
    assert summary.failed_seeds == list(cfg.seeds)
    assert all("DivergedError" in t.error for t in summary.traces)
    assert np.isnan(summary.mean_acc)
