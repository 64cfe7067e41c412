"""The round engine against its per-row reference, and which clients it scores.

baselines.strategy_round uploads each client's packets as one block and
re-scores only the clients it trained. helpers.reference_round is the long
way: one packet object per row, and every client scored every round. Over
every strategy, resample mode, mapping and participation rate, runner.train
must end bitwise equal to the reference: records, ledger, parameters, RNG
streams and fs weights.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import baselines, config, protocol, runner

from helpers import net_params_equal, reference_train


def small_config(strategy, resample, rm_op, rate, rounds=3, num_clients=4):
    return config.parse_config(
        {
            "dataset": {"classes": 4, "per_class": 10, "dim": 2},
            "partition": {"mode": "pra", "alpha": 0.5},
            "num_clients": num_clients,
            "rounds": rounds,
            "strategy": strategy,
            "resample": resample,
            "rm_op": rm_op,
            "unified_dim": 4,
            "architectures": [[8], [12], [8, 4], [4]][:num_clients],
            "participation_rate": rate,
            "server_batch_size": 8,
            "server_epochs": 2,
        }
    )


def scores(records):
    """Every round's per-client scores and mean, None as nan."""
    return np.array(
        [[math.nan if a is None else a for a in m.per_client_acc] + [m.mean_acc] for m in records]
    )


def nets_of(client):
    return [client.extractor, client.classifier] + ([client.rm.net] if client.rm.net is not None else [])


@pytest.mark.parametrize("rate", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("rm_op", ["ap", "mp", "fc"])
@pytest.mark.parametrize("resample", baselines.RESAMPLE_MODES)
@pytest.mark.parametrize("kind", baselines.STRATEGIES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_train_equals_the_per_row_reference(kind, resample, rm_op, rate, seed):
    cfg = small_config(kind, resample, rm_op, rate)
    got_world, want_world = runner.build_world(cfg, seed), runner.build_world(cfg, seed)
    with np.errstate(all="ignore"):
        got = runner.train(cfg, got_world)
        want = reference_train(cfg, want_world)
    (got_clients, got_server, got_ledger, got_records) = got
    (want_clients, want_server, want_ledger, want_records) = want
    assert np.array_equal(scores(got_records), scores(want_records), equal_nan=True)
    for g, w in zip(got_records, want_records):
        assert (g.upload_scalars, g.broadcast_scalars) == (w.upload_scalars, w.broadcast_scalars)
    assert got_ledger.upload_history == want_ledger.upload_history
    assert got_ledger.broadcast_history == want_ledger.broadcast_history
    assert net_params_equal(got_server.classifier, want_server.classifier)
    for g, w in zip(got_clients, want_clients):
        assert all(net_params_equal(a, b) for a, b in zip(nets_of(g), nets_of(w)))
        assert g.rng.bit_generator.state == w.rng.bit_generator.state
    assert got_server.rng.bit_generator.state == want_server.rng.bit_generator.state
    assert got_world.part_rng.bit_generator.state == want_world.part_rng.bit_generator.state
    got_cache, want_cache = got_world.strategy.fs_cache, want_world.strategy.fs_cache
    assert sorted(got_cache) == sorted(want_cache)
    for k in got_cache:
        assert np.array_equal(got_cache[k], want_cache[k])


@pytest.mark.parametrize("kind", baselines.STRATEGIES)
def test_train_scores_every_client_first_then_only_the_trained(monkeypatch, kind):
    cfg = small_config(kind, "rs", "ap", 0.5, rounds=4)
    world = runner.build_world(cfg, 3)
    rounds = []  # (clients in, clients out, clients scored) per round
    real_evaluate, real_round = protocol.evaluate_client, baselines.strategy_round

    def evaluate(client):
        rounds[-1][2].append(client)
        return real_evaluate(client)

    def strategy_round(strategy, clients, *args, **kwargs):
        rounds.append((clients, None, []))
        out = real_round(strategy, clients, *args, **kwargs)
        rounds[-1] = (clients, out[0], rounds[-1][2])
        return out

    monkeypatch.setattr(baselines, "evaluate_client", evaluate)
    monkeypatch.setattr(baselines, "strategy_round", strategy_round)
    _, _, _, records = runner.train(cfg, world)
    assert len(rounds) == cfg.rounds
    assert [c.client_id for c in rounds[0][2]] == list(range(cfg.num_clients))
    pool = sum(1 for c in world.clients if len(c.train))
    for r in range(1, cfg.rounds):
        before, after, scored = rounds[r]
        changed = [b is not a for b, a in zip(before, after)]
        assert len(scored) == sum(changed) == math.ceil(0.5 * pool) < cfg.num_clients
        assert [c.client_id for c in scored] == [a.client_id for a, ch in zip(after, changed) if ch]
        assert all(any(c is a for a in after) for c in scored)
        for i, ch in enumerate(changed):
            if not ch:
                assert records[r].per_client_acc[i] == records[r - 1].per_client_acc[i]


def test_a_direct_round_without_a_previous_score_scores_every_client(monkeypatch):
    cfg = small_config("fed_all_rep", "rs", "ap", 0.5)
    world = runner.build_world(cfg, 0)
    calls = []
    real = protocol.evaluate_client
    monkeypatch.setattr(baselines, "evaluate_client", lambda c: calls.append(c) or real(c))
    ledger = protocol.CommLedger()
    clients, server, ledger, _, _ = baselines.strategy_round(
        world.strategy, world.clients, world.server, ledger, 0, 0.5, world.part_rng
    )
    assert len(calls) == cfg.num_clients
    calls.clear()
    baselines.strategy_round(world.strategy, clients, server, ledger, 1, 0.5, world.part_rng)
    assert len(calls) == cfg.num_clients
    calls.clear()
    with pytest.raises(ValueError):
        baselines.strategy_round(
            world.strategy, clients, server, ledger, 2, 0.5, world.part_rng,
            previous=protocol.RoundMetrics(0.5, [0.5], 0, 0),
        )
    assert calls == []
