"""Tests for the comparison strategies and their shared round driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedre import baselines, data, nets, protocol
from fedre.entangle import ReMechanism, RMSpec, compute_prototypes, re_weights, rm_apply

from helpers import (
    InjectedFault,
    calls_at,
    entangled,
    make_client,
    make_server,
    net_params_equal,
    packet,
)


def fresh_world(num_clients=3, seed_base=40, **client_kw):
    clients = [
        make_client(rng_seed=seed_base + i, client_id=i, **client_kw)
        for i in range(num_clients)
    ]
    server = make_server(seed=seed_base + 100)
    return clients, server


# ---------------------------------------------------------------- strategy


def test_every_kind_dispatch_rejects_an_unknown_kind():
    """The config states the kinds; a policy built directly and given a kind
    no config allows raises at each dispatch on it instead of running
    another policy."""
    clients, server = fresh_world()
    client = clients[0]
    rep_set = protocol.client_representation_set(client)
    policy = baselines.Strategy()
    policy.kind = "unknown"
    with pytest.raises(ValueError, match="unknown strategy 'unknown'"):
        baselines.packets_for(policy, client, None)
    with pytest.raises(ValueError, match="unknown strategy 'unknown'"):
        baselines.ledger_for(policy, 1, 4, 3, per_client_stats=[(6, 3)])
    policy = baselines.Strategy()
    policy.resample = "sometimes"
    with pytest.raises(ValueError, match="unknown resample mode 'sometimes'"):
        run_one(policy, clients, server)
    mech = ReMechanism()
    mech.kind = "unknown"
    with pytest.raises(ValueError, match="unknown mechanism 'unknown'"):
        re_weights(client.train.y, mech, np.random.default_rng(0))
    for kind in ("rar", "rap"):
        mech = ReMechanism(kind)
        mech.weight_distribution = "cauchy"
        with pytest.raises(ValueError, match="unknown weight distribution 'cauchy'"):
            re_weights(client.train.y, mech, np.random.default_rng(0))
    rm = RMSpec()
    rm.kind = "conv"
    with pytest.raises(ValueError, match="unknown rm kind 'conv'"):
        rm_apply(rep_set.reps, rm, 4)


# ---------------------------------------------------------------- packets


def test_local_strategy_uploads_nothing():
    client = make_client(rng_seed=0)
    block = baselines.packets_for(baselines.Strategy(kind="local"), client, None)
    assert len(block) == 0
    assert block.reps.shape == (0, 4)
    assert block.labels.shape == (0, 3)


def spy_packets(monkeypatch):
    """Record (client, weights, block) for every packets_for call a round makes."""
    calls = []
    real = baselines.packets_for

    def spy(strategy, client, weights):
        calls.append((client, weights, real(strategy, client, weights)))
        return calls[-1][2]

    monkeypatch.setattr(baselines, "packets_for", spy)
    return calls


def test_fedre_rs_draws_fresh_weights_each_round(monkeypatch):
    """Each rs round draws a participant's weights from its trained stream,
    right after the local update, and keeps none on the client."""
    mech = ReMechanism("rap")
    strategy = baselines.Strategy(kind="fedre", mech=mech, resample="rs")
    clients, server = fresh_world()
    calls = spy_packets(monkeypatch)
    drawn = []
    for rnd in range(2):
        trained = [protocol.client_local_update(c, server.classifier) for c in clients]
        calls.clear()
        clients, server, _, _ = run_one(strategy, clients, server, round_index=rnd)
        for t, (_, w, block), c in zip(trained, calls, clients):
            fork = protocol.fork_rng(t.rng)
            np.testing.assert_array_equal(w, re_weights(t.train.y, mech, fork))
            assert c.rng.bit_generator.state == fork.bit_generator.state
            assert c.weights is None
            want = entangled(protocol.client_representation_set(t), w, t.rm, 4)
            np.testing.assert_array_equal(packet(block).r_tilde, want.r_tilde)
        drawn.append([w for _, w, _ in calls])
    # the same state replays identically, but consecutive draws from one
    # stream differ
    calls.clear()
    run_one(strategy, *fresh_world())
    for w, again in zip(drawn[0], [w for _, w, _ in calls]):
        np.testing.assert_array_equal(w, again)
    for first, second in zip(*drawn):
        assert not np.array_equal(first, second)


def test_fedre_fs_caches_weights_and_stops_consuming_rng(monkeypatch):
    clients, server = fresh_world()
    strategy = baselines.Strategy(kind="fedre", resample="fs")
    calls = spy_packets(monkeypatch)
    first = protocol.client_local_update(clients[0], server.classifier)
    clients, server, _, _ = run_one(strategy, clients, server)
    w = clients[0].weights
    assert w is not None
    assert calls[0][1] is w
    p1 = packet(calls[0][2])
    trained = protocol.client_local_update(clients[0], server.classifier)
    calls.clear()
    clients, _, _, _ = run_one(strategy, clients, server, round_index=1)
    # no draw with frozen weights
    assert clients[0].rng.bit_generator.state == trained.rng.bit_generator.state
    assert calls[0][1] is w
    assert clients[0].weights is w
    # each upload really is the cached weighting of that round's reps
    for state, block in ((first, p1), (trained, packet(calls[0][2]))):
        rep_set = protocol.client_representation_set(state)
        manual = entangled(rep_set, w, state.rm, 4)
        np.testing.assert_array_equal(block.r_tilde, manual.r_tilde)


def test_fedre_fs_weights_follow_even_as_the_extractor_moves():
    clients, server = fresh_world(epochs=2, lr=0.1)
    strategy = baselines.Strategy(kind="fedre", resample="fs")
    client = run_one(strategy, clients, server)[0][0]
    w = client.weights.copy()
    trained = protocol.client_local_update(client, None)
    p = packet(baselines.packets_for(strategy, trained, trained.weights))
    np.testing.assert_array_equal(trained.weights, w)
    rep_set = protocol.client_representation_set(trained)
    manual = entangled(rep_set, w, trained.rm, 4)
    np.testing.assert_array_equal(p.r_tilde, manual.r_tilde)


def test_fed_all_rep_uploads_every_mapped_sample():
    client = make_client(rng_seed=4)
    block = baselines.packets_for(baselines.Strategy(kind="fed_all_rep"), client, None)
    assert len(block) == len(client.train)
    rep_set = protocol.client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, 4)
    np.testing.assert_array_equal(block.reps, mapped)
    np.testing.assert_array_equal(block.labels, rep_set.labels_onehot)


@pytest.mark.parametrize("kind", ["fedgh_style", "fedproto_style"])
def test_prototype_strategies_upload_category_means(kind):
    client = make_client(rng_seed=5)
    block = baselines.packets_for(baselines.Strategy(kind=kind), client, None)
    cats = np.unique(client.train.y)
    assert len(block) == cats.size
    assert block.labels.shape == (cats.size, 3)
    rep_set = protocol.client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, 4)
    for r, y, c in zip(block.reps, block.labels, cats):
        assert y.argmax() == c
        assert y.sum() == 1.0
        np.testing.assert_allclose(
            r, mapped[client.train.y == c].mean(axis=0), atol=1e-12
        )


# ---------------------------------------------------------------- accounting


def test_ledger_for_local_is_silent():
    assert baselines.ledger_for(baselines.Strategy(kind="local"), 5, 8, 3) == (0, 0)


def test_ledger_for_fedre_matches_protocol_accounting():
    up, down = baselines.ledger_for(baselines.Strategy(kind="fedre"), 10, 512, 100)
    assert (up, down) == (5120, 513000)
    up, down = baselines.ledger_for(
        baselines.Strategy(kind="fedre"),
        10,
        512,
        100,
        convention=protocol.REPRESENTATION_PLUS_LABEL,
    )
    assert up == 10 * (512 + 100)


def test_ledger_for_all_rep_scales_with_samples():
    stats = [(30, 3), (20, 2)]
    up, down = baselines.ledger_for(
        baselines.Strategy(kind="fed_all_rep"), 2, 8, 5, per_client_stats=stats
    )
    assert up == 50 * 8
    assert down == 2 * (8 * 5 + 5)


def test_ledger_for_prototype_strategies_scale_with_categories():
    stats = [(30, 3), (20, 2)]
    up, down = baselines.ledger_for(
        baselines.Strategy(kind="fedgh_style"), 2, 8, 5, per_client_stats=stats
    )
    assert up == 5 * 8
    assert down == 2 * (8 * 5 + 5)
    # fedproto's broadcast is the round's averaged prototypes: count a real
    # round whose two clients hold 2 + 1 of the 3 categories, 2 of them in all
    fedproto = baselines.Strategy(kind="fedproto_style")
    with pytest.raises(ValueError, match="depends on the round's prototypes"):
        baselines.ledger_for(fedproto, 2, 8, 5, per_client_stats=stats)

    def keep(client, cats):
        m = np.isin(client.train.y, cats)
        train = data.Dataset(client.train.X[m], client.train.y[m], client.train.num_classes)
        return replace(client, train=train)

    (a, b), server = fresh_world(num_clients=2)
    _, _, protos, metrics = run_one(fedproto, [keep(a, [0, 1]), keep(b, [0])], server)
    d = server.classifier.input_dim
    assert sorted(protos) == [0, 1]
    assert metrics.upload_scalars == (2 + 1) * d
    assert metrics.broadcast_scalars == 2 * 2 * d  # averaged prototypes instead of a classifier


def test_ledger_for_requires_stats_when_size_dependent():
    with pytest.raises(ValueError):
        baselines.ledger_for(baselines.Strategy(kind="fed_all_rep"), 2, 8, 5)
    with pytest.raises(ValueError):
        baselines.ledger_for(
            baselines.Strategy(kind="fedgh_style"), 2, 8, 5, per_client_stats=[(3, 1)]
        )


def test_compute_prototypes_groups_by_category():
    reps = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    labels = nets.one_hot_matrix([0, 0, 1], 2)
    protos = dict(compute_prototypes(reps, labels.argmax(axis=1)))
    assert sorted(protos) == [0, 1]
    np.testing.assert_array_equal(protos[0], [2.0, 0.0])
    np.testing.assert_array_equal(protos[1], [0.0, 5.0])


# ---------------------------------------------------------------- rounds


def run_one(strategy, clients, server, protos=None, round_index=0):
    """One full-participation round; (clients, server, protos, metrics)."""
    return baselines.strategy_round(
        strategy, clients, server, protos or {}, round_index, 1.0,
        np.random.default_rng(0), None, None,
    )


def test_strategy_round_fedre_rs_equals_plain_round():
    """fedre with fresh draws is the paper's round, written out step by step."""
    mech = ReMechanism("rap")
    a_clients, a_server = fresh_world()
    b_clients, b_server = fresh_world()
    d = a_server.classifier.input_dim
    num_classes = a_server.classifier.output_dim
    trained, packets = [], []
    for c in a_clients:
        trained.append(protocol.client_local_update(c, a_server.classifier))
        w = re_weights(trained[-1].train.y, mech, trained[-1].rng)
        packets.append(packet(protocol.client_make_packet(trained[-1], w)))
    server_a = protocol.server_update(
        a_server,
        np.stack([p.r_tilde for p in packets]),
        np.stack([p.y_tilde for p in packets]),
    )
    accs = [protocol.evaluate_client(c) for c in trained]
    ledger_a = protocol.count_round(protocol.CommLedger(), len(trained), d, num_classes)
    strategy = baselines.Strategy(kind="fedre", mech=mech, resample="rs")
    _, server_b, _, metrics_b = run_one(strategy, b_clients, b_server)
    assert protocol.mean_accuracy(accs) == metrics_b.mean_acc
    assert accs == metrics_b.per_client_acc
    assert ledger_a.upload_history == [metrics_b.upload_scalars]
    assert ledger_a.broadcast_history == [metrics_b.broadcast_scalars]
    assert net_params_equal(server_a.classifier, server_b.classifier)


def test_strategy_round_local_never_talks():
    clients, server = fresh_world()
    new_clients, new_server, _, metrics = run_one(
        baselines.Strategy(kind="local"), clients, server
    )
    assert metrics.upload_scalars == 0
    assert metrics.broadcast_scalars == 0
    assert net_params_equal(new_server.classifier, server.classifier)
    # clients still trained on their own data
    assert not net_params_equal(new_clients[0].extractor, clients[0].extractor)


def test_strategy_round_all_rep_uploads_every_sample():
    clients, server = fresh_world()
    _, _, _, metrics = run_one(baselines.Strategy(kind="fed_all_rep"), clients, server)
    total = sum(len(c.train) for c in clients)
    assert metrics.upload_scalars == total * 4


def test_strategy_round_fedproto_keeps_server_frozen_and_builds_prototypes():
    clients, server = fresh_world()
    strategy = baselines.Strategy(kind="fedproto_style", lambda_proto=0.2)
    new_clients, new_server, protos, metrics = run_one(strategy, clients, server)
    assert net_params_equal(new_server.classifier, server.classifier)
    all_cats = set()
    for c in clients:
        all_cats |= set(np.unique(c.train.y).tolist())
    assert set(protos) == all_cats
    assert metrics.broadcast_scalars == 3 * len(protos) * 4
    # the returned prototypes feed the next round without error
    run_one(strategy, new_clients, new_server, protos, round_index=1)


def test_strategy_round_fs_fills_cache_once():
    clients, server = fresh_world()
    strategy = baselines.Strategy(kind="fedre", resample="fs")
    assert all(c.weights is None for c in clients)
    clients, server, _, _ = run_one(strategy, clients, server)
    cached = {c.client_id: c.weights.copy() for c in clients}
    assert sorted(cached) == [0, 1, 2]
    clients, _, _, _ = run_one(strategy, clients, server)
    for c in clients:
        np.testing.assert_array_equal(c.weights, cached[c.client_id])


def test_strategy_round_rolls_back_fs_cache_on_failure():
    """The server aborts after every client drew its fs weights: the input
    clients keep no weights, and nothing needs rolling back."""
    clients, server = fresh_world()
    strategy = baselines.Strategy(kind="fedre", resample="fs")
    states = [c.rng.bit_generator.state for c in clients]
    counts = {}
    with calls_at("server_update", {}, fail_at=1), calls_at("packets_for", counts):
        with pytest.raises(InjectedFault):
            run_one(strategy, clients, server)
    assert counts["packets_for"] == len(clients)
    assert all(c.weights is None for c in clients)
    for c, st in zip(clients, states):
        assert c.rng.bit_generator.state == st
    # the retry matches an undisturbed run exactly
    ref_clients, ref_server = fresh_world()
    want_clients, _, _, want = run_one(strategy, ref_clients, ref_server)
    got_clients, _, _, got = run_one(strategy, clients, server)
    assert got.mean_acc == want.mean_acc
    for g, w in zip(got_clients, want_clients):
        np.testing.assert_array_equal(g.weights, w.weights)


def failing_evaluation(monkeypatch, at_call):
    """Make evaluate_client raise on its at_call-th call, after the server
    has trained and the round's traffic is counted."""

    real = protocol.evaluate_client
    calls = []

    def evaluate(client):
        calls.append(client.client_id)
        if len(calls) == at_call:
            raise nets.DivergedError("injected evaluation fault")
        return real(client)

    monkeypatch.setattr(baselines, "evaluate_client", evaluate)


def check_aborted_round_commits_nothing(monkeypatch, kind, resample, rate):
    """The fault hits the round's last evaluation, once the round has
    trained ceil(rate * 3) of the three clients; a client that sat out keeps
    its previous score and is not evaluated."""
    clients, server = fresh_world()
    strategy = baselines.Strategy(kind=kind, resample=resample)
    part_rng = np.random.default_rng(9)
    clients, server, protos, metrics = baselines.strategy_round(
        strategy, clients, server, {}, 0, rate, part_rng, None, None
    )
    history = (metrics.upload_scalars, metrics.broadcast_scalars)
    streams = [c.rng for c in clients] + [server.rng, part_rng]
    states = [g.bit_generator.state for g in streams]
    cache = {c.client_id: c.weights.copy() for c in clients if c.weights is not None}
    assert bool(cache) == (kind == "fedre" and resample == "fs")
    trained = math.ceil(rate * len(clients))
    failing_evaluation(monkeypatch, at_call=trained)
    with pytest.raises(nets.DivergedError):
        baselines.strategy_round(
            strategy, clients, server, protos, 1, rate, part_rng, metrics, None
        )
    assert (metrics.upload_scalars, metrics.broadcast_scalars) == history
    assert [g.bit_generator.state for g in streams] == states
    assert sorted(c.client_id for c in clients if c.weights is not None) == sorted(cache)
    for k, v in cache.items():
        np.testing.assert_array_equal(clients[k].weights, v)


@pytest.mark.parametrize("kind", baselines.STRATEGIES)
@pytest.mark.parametrize("resample", baselines.RESAMPLE_MODES)
def test_strategy_round_aborted_in_evaluation_commits_nothing(monkeypatch, kind, resample):
    check_aborted_round_commits_nothing(monkeypatch, kind, resample, rate=0.7)


@pytest.mark.parametrize("kind", baselines.STRATEGIES)
@pytest.mark.parametrize("resample", baselines.RESAMPLE_MODES)
def test_strategy_round_aborted_with_clients_sat_out_commits_nothing(monkeypatch, kind, resample):
    check_aborted_round_commits_nothing(monkeypatch, kind, resample, rate=0.4)


def test_strategy_round_skips_trainless_clients():
    clients, server = fresh_world()
    clients[2] = replace(clients[2], train=clients[2].train.subset([]))
    _, _, _, metrics = run_one(baselines.Strategy(kind="fedre"), clients, server)
    assert metrics.upload_scalars == 2 * 4
    assert len(metrics.per_client_acc) == 3


def test_strategy_round_deterministic():
    for kind in ("fedgh_style", "fedproto_style", "fed_all_rep"):
        runs = []
        for _ in range(2):
            clients, server = fresh_world()
            _, _, _, metrics = run_one(baselines.Strategy(kind=kind), clients, server)
            runs.append(metrics)
        assert runs[0].mean_acc == runs[1].mean_acc
