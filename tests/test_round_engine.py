"""The round engine against its per-row reference, and which clients it scores.

baselines.strategy_round uploads each client's packets as one block and
re-scores only the clients it trained. helpers.reference_round is the long
way: one packet object per row, every client scored every round, and the fs
weights kept in a dict of its own. Over every strategy, resample mode,
mapping and participation rate, runner.train must end bitwise equal to the
reference: records, parameters, RNG streams and fs weights. A round that
aborts anywhere must leave its inputs as they were.
"""

import contextlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import baselines, config, protocol, runner

from helpers import InjectedFault, calls_at, net_params_equal, reference_train


def small_config(
    strategy, resample, rm_op, rate, rounds=3, num_clients=4, convention=protocol.REPRESENTATION_ONLY
):
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
            "comm_convention": convention,
        }
    )


def scores(records):
    """Every round's per-client scores and mean, None as nan."""
    return np.array(
        [[math.nan if a is None else a for a in m.per_client_acc] + [m.mean_acc] for m in records]
    )


def nets_of(client):
    return [client.extractor, client.classifier] + ([client.rm.net] if client.rm.net is not None else [])


@pytest.mark.parametrize("convention", protocol.CONVENTIONS)
@pytest.mark.parametrize("rate", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("rm_op", ["ap", "mp", "fc"])
@pytest.mark.parametrize("resample", baselines.RESAMPLE_MODES)
@pytest.mark.parametrize("kind", baselines.STRATEGIES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_train_equals_the_per_row_reference(kind, resample, rm_op, rate, convention, seed):
    cfg = small_config(kind, resample, rm_op, rate, convention=convention)
    got_world, want_world = runner.build_world(cfg, seed), runner.build_world(cfg, seed)
    with np.errstate(all="ignore"):
        got = runner.train(cfg, got_world)
        want = reference_train(cfg, want_world)
    (got_clients, got_server, got_records) = got
    (want_clients, want_server, want_records, want_weights) = want
    assert np.array_equal(scores(got_records), scores(want_records), equal_nan=True)
    for g, w in zip(got_records, want_records):
        assert (g.upload_scalars, g.broadcast_scalars) == (w.upload_scalars, w.broadcast_scalars)
    assert net_params_equal(got_server.classifier, want_server.classifier)
    for g, w in zip(got_clients, want_clients):
        assert all(net_params_equal(a, b) for a, b in zip(nets_of(g), nets_of(w)))
        assert g.rng.bit_generator.state == w.rng.bit_generator.state
    assert got_server.rng.bit_generator.state == want_server.rng.bit_generator.state
    assert got_world.part_rng.bit_generator.state == want_world.part_rng.bit_generator.state
    assert sorted(c.client_id for c in got_clients if c.weights is not None) == sorted(want_weights)
    for k, w in want_weights.items():
        assert np.array_equal(got_clients[k].weights, w)


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
    _, _, records = runner.train(cfg, world)
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
    clients = runner.init_clients(cfg, world)
    calls = []
    real = protocol.evaluate_client
    monkeypatch.setattr(baselines, "evaluate_client", lambda c: calls.append(c) or real(c))
    clients, server, protos, _ = baselines.strategy_round(
        world.strategy, clients, world.server, {}, 0, 0.5, world.part_rng, None, None
    )
    assert len(calls) == cfg.num_clients
    calls.clear()
    baselines.strategy_round(
        world.strategy, clients, server, protos, 1, 0.5, world.part_rng, None, None
    )
    assert len(calls) == cfg.num_clients
    calls.clear()
    with pytest.raises(ValueError):
        baselines.strategy_round(
            world.strategy, clients, server, protos, 2, 0.5, world.part_rng,
            protocol.RoundMetrics(0.5, [0.5], 0, 0), None,
        )
    assert calls == []


@pytest.mark.parametrize("convention", protocol.CONVENTIONS)
@pytest.mark.parametrize("kind", [baselines.FEDRE, baselines.FED_ALL_REP])
def test_a_duplicated_row_is_counted_and_reaches_the_server(monkeypatch, kind, convention):
    """The traffic is counted from the blocks sent: one extra row per block
    costs one packet's scalars per participant, and the server trains on it."""
    cfg = small_config(kind, "rs", "ap", 1.0, convention=convention)
    world = runner.build_world(cfg, 5)
    clients = runner.init_clients(cfg, world)
    server_rows = []
    real_update, real_packets = baselines.server_update, baselines.packets_for

    def server_update(server, reps, labels):
        server_rows.append(len(reps))
        return real_update(server, reps, labels)

    def duplicated(strategy, client, weights):
        block = real_packets(strategy, client, weights)
        return replace(
            block,
            reps=np.concatenate([block.reps, block.reps[:1]]),
            labels=np.concatenate([block.labels, block.labels[:1]]),
        )

    def round_metrics():
        return baselines.strategy_round(
            world.strategy, clients, world.server, {}, 0, 1.0,
            np.random.default_rng(0), None, convention,
        )[3]

    monkeypatch.setattr(baselines, "server_update", server_update)
    plain = round_metrics()
    monkeypatch.setattr(baselines, "packets_for", duplicated)
    padded = round_metrics()
    k = sum(1 for c in clients if len(c.train))
    per_row = cfg.unified_dim
    if convention == protocol.REPRESENTATION_PLUS_LABEL:
        per_row += cfg.dataset.classes
    assert padded.upload_scalars == plain.upload_scalars + k * per_row
    assert padded.broadcast_scalars == plain.broadcast_scalars
    assert server_rows == [server_rows[0], server_rows[0] + k]


@pytest.mark.parametrize("convention", protocol.CONVENTIONS)
@pytest.mark.parametrize("resample", baselines.RESAMPLE_MODES)
@pytest.mark.parametrize("kind", baselines.STRATEGIES)
def test_an_upload_holds_only_what_is_counted(monkeypatch, kind, resample, convention):
    """Every block a round builds is its reps and labels, nothing else, and
    the round counts every scalar of them, the labels only under
    representation_plus_label: a fedre client's weights never leave it."""
    cfg = small_config(kind, resample, "ap", 1.0, convention=convention)
    world = runner.build_world(cfg, 6)
    blocks = []
    real_packets = baselines.packets_for

    def recorded(*args):
        blocks.append(real_packets(*args))
        return blocks[-1]

    monkeypatch.setattr(baselines, "packets_for", recorded)
    clients, server, protos, metrics = runner.init_clients(cfg, world), world.server, {}, None
    for rnd in range(2):  # fs uploads with drawn, then with kept, weights
        blocks.clear()
        clients, server, protos, metrics = baselines.strategy_round(
            world.strategy, clients, server, protos, rnd, 1.0, world.part_rng, metrics, convention
        )
        assert len(blocks) == sum(1 for c in clients if len(c.train))
        for block in blocks:
            assert [f.name for f in fields(block)] == ["reps", "labels"]
            assert sorted(vars(block)) == ["labels", "reps"]
        labels = sum(b.labels.size for b in blocks)
        counted = labels if convention == protocol.REPRESENTATION_PLUS_LABEL else 0
        assert metrics.upload_scalars == sum(b.reps.size for b in blocks) + counted


# ------------------------------------------------------- fault injection

# every step the round calls through baselines' namespace
FAULT_SITES = (
    "client_local_update",
    "re_weights",
    "client_make_packet",
    "packets_for",
    "server_update",
    "compute_prototypes",
    "evaluate_client",
)


def state_of(clients, server, protos, part_rng):
    """Copies of everything a round could change among its inputs or
    outputs: parameters, fs weights, prototypes and RNG states."""
    params = [
        a.copy()
        for net in [n for c in clients for n in nets_of(c)] + [server.classifier]
        for layer in net.layers
        for a in (layer.weight, layer.bias)
    ]
    weights = [None if c.weights is None else c.weights.copy() for c in clients]
    streams = [g.bit_generator.state for g in [c.rng for c in clients] + [server.rng, part_rng]]
    return params, weights, {k: v.copy() for k, v in protos.items()}, streams


def assert_same_state(got, want):
    (gp, gw, gpr, gs), (wp, ww, wpr, ws) = got, want
    assert len(gp) == len(wp) and all(np.array_equal(a, b) for a, b in zip(gp, wp))
    assert [w is None for w in gw] == [w is None for w in ww]
    assert all(np.array_equal(a, b) for a, b in zip(gw, ww) if a is not None)
    assert sorted(gpr) == sorted(wpr) and all(np.array_equal(gpr[k], wpr[k]) for k in gpr)
    assert gs == ws


def after_first_round(cfg, seed):
    """The inputs of round 1: (strategy, clients, server, protos, part_rng,
    round 0's metrics)."""
    world = runner.build_world(cfg, seed)
    clients, server, protos, metrics = baselines.strategy_round(
        world.strategy, runner.init_clients(cfg, world), world.server, {}, 0,
        cfg.participation_rate, world.part_rng, None, cfg.comm_convention,
    )
    return world.strategy, clients, server, protos, world.part_rng, metrics


def second_round(cfg, inputs):
    strategy, clients, server, protos, part_rng, previous = inputs
    return baselines.strategy_round(
        strategy, clients, server, protos, 1,
        cfg.participation_rate, part_rng, previous, cfg.comm_convention,
    )


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(baselines.STRATEGIES),
    resample=st.sampled_from(baselines.RESAMPLE_MODES),
    rate=st.sampled_from([0.4, 0.7, 1.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_round_aborted_anywhere_changes_no_input(kind, resample, rate, seed, data):
    """A fault at the k-th call of any step leaves every input as it was,
    and a retry from the same inputs equals an unfaulted round."""
    cfg = small_config(kind, resample, "ap", rate)
    with np.errstate(all="ignore"):
        inputs, twin = after_first_round(cfg, seed), after_first_round(cfg, seed)
        counts = {}
        with contextlib.ExitStack() as stack:
            for site in FAULT_SITES:
                stack.enter_context(calls_at(site, counts))
            want = second_round(cfg, twin)
        site = data.draw(st.sampled_from([s for s in FAULT_SITES if counts.get(s)]))
        at = data.draw(st.integers(1, counts[site]))
        _, clients, server, protos, part_rng, previous = inputs
        before = state_of(clients, server, protos, part_rng)
        record = repr(previous.to_record(0))
        with calls_at(site, {}, fail_at=at), pytest.raises(InjectedFault):
            second_round(cfg, inputs)
        assert_same_state(state_of(clients, server, protos, part_rng), before)
        assert repr(previous.to_record(0)) == record
        got = second_round(cfg, inputs)
    assert repr(got[3].to_record(1)) == repr(want[3].to_record(1))
    assert_same_state(
        state_of(got[0], got[1], got[2], part_rng), state_of(want[0], want[1], want[2], twin[4])
    )
