"""Tests for the round protocol: sync, local training, packets, server
updates, accounting, and the atomicity of the paper's round."""

from dataclasses import replace

import numpy as np
import pytest

from fedre import baselines, nets, protocol
from fedre.entangle import AP, FC, ReMechanism, RMSpec, rm_apply

from helpers import (
    InjectedFault,
    batch_mean_ce,
    calls_at,
    local_ce_loss,
    make_client,
    make_server,
    net_params_equal,
)


# ---------------------------------------------------------------- accounting


def test_count_round_representation_only_reference_values():
    ledger = protocol.CommLedger(protocol.REPRESENTATION_ONLY)
    protocol.count_round(ledger, 10, 512, 100)
    assert ledger.upload_history[-1] == 5120
    assert ledger.broadcast_history[-1] == 513000
    protocol.count_round(ledger, 10, 512, 10)
    assert ledger.upload_history[-1] == 5120
    assert ledger.broadcast_history[-1] == 51300
    assert sum(ledger.upload_history) == 10240
    assert sum(ledger.broadcast_history) == 564300


def test_count_round_with_labels_counts_soft_label_payload():
    ledger = protocol.CommLedger(protocol.REPRESENTATION_PLUS_LABEL)
    protocol.count_round(ledger, 1, 1, 1)
    assert ledger.upload_history[-1] == 2
    assert ledger.broadcast_history[-1] == 2
    protocol.count_round(ledger, 10, 512, 100)
    assert ledger.upload_history[-1] == 10 * (512 + 100)


def test_ledger_rejects_unknown_convention_and_negative_counts():
    with pytest.raises(ValueError):
        protocol.CommLedger("nope")
    ledger = protocol.CommLedger()
    with pytest.raises(ValueError):
        ledger.add_round(-1, 0)


# ---------------------------------------------------------------- sync


def test_client_local_update_trains_a_copy_of_the_broadcast():
    client = make_client(rng_seed=0)
    server = make_server()
    sent = nets.clone(server.classifier)
    for epochs in (0, 1):
        trained = protocol.client_local_update(replace(client, epochs=epochs), server.classifier)
        assert trained.classifier is not server.classifier
        assert net_params_equal(server.classifier, sent)  # the broadcast is unchanged
        assert net_params_equal(trained.classifier, sent) == (epochs == 0)
    # the copy is independent of the broadcast original
    trained.classifier.layers[0].weight[0, 0] += 1.0
    assert net_params_equal(server.classifier, sent)


def test_client_local_update_rejects_a_broadcast_of_other_dimensions():
    client = make_client(rng_seed=0, unified_dim=4)
    for wrong in (
        protocol.make_classifier(5, 3, np.random.default_rng(0)),
        protocol.make_classifier(4, 2, np.random.default_rng(0)),
    ):
        with pytest.raises(nets.ShapeError):
            protocol.client_local_update(client, wrong)


def test_client_representation_set_matches_extractor_output():
    client = make_client(rng_seed=1)
    rep = protocol.client_representation_set(client)
    direct, _ = nets.forward_pass(client.extractor, client.train.X)
    np.testing.assert_array_equal(rep.reps, direct)
    np.testing.assert_array_equal(rep.labels, client.train.y)


# ---------------------------------------------------------------- gradients


def composed_loss(extractor, rm, classifier, Xb, targets, reg=None):
    """Forward-only loss oracle for the composed model."""
    reps, _ = nets.forward_pass(extractor, Xb)
    mapped, _ = rm_apply(reps, rm, classifier.input_dim)
    logits, _ = nets.forward_pass(classifier, mapped)
    loss = batch_mean_ce(logits, targets)
    if reg is not None:
        lam, rows, mask = reg
        diffs = (mapped - rows) * mask[:, None]
        loss += lam * float((diffs**2).sum()) / Xb.shape[0]
    return loss


def stepped_gradients(extractor, rm, classifier, Xb, targets, reg=None):
    """(loss, extractor, classifier and fc gradients or None) of one
    local_gradients step on clones at lr 1: each gradient read as the
    parameters before the step minus those after it."""
    nets_before = [extractor, classifier] + ([rm.net] if rm.kind == FC else [])
    stepped = [nets.clone(net) for net in nets_before]
    rm_stepped = RMSpec(FC, stepped[2]) if rm.kind == FC else rm
    loss = protocol.local_gradients(
        stepped[0], rm_stepped, stepped[1], Xb, targets, reg, np.array(1.0)
    )
    grads = [
        nets.GradientSet(
            [a.weight - b.weight for a, b in zip(net.layers, after.layers)],
            [a.bias - b.bias for a, b in zip(net.layers, after.layers)],
        )
        for net, after in zip(nets_before, stepped)
    ]
    return loss, grads[0], grads[1], grads[2] if rm.kind == FC else None


def fd_check_net(loss_of_net, net, analytic, eps=1e-5, floor=1e-6):
    worst = 0.0
    for li in range(len(net.layers)):
        for arrs, grads in (
            (lambda l: l.weight, analytic.weight_grads),
            (lambda l: l.bias, analytic.bias_grads),
        ):
            arr = arrs(net.layers[li])
            for idx in np.ndindex(*arr.shape):
                hi = nets.clone(net)
                arrs(hi.layers[li])[idx] += eps
                lo = nets.clone(net)
                arrs(lo.layers[li])[idx] -= eps
                num = (loss_of_net(hi) - loss_of_net(lo)) / (2 * eps)
                ana = grads[li][idx]
                denom = max(abs(ana), abs(num), floor)
                worst = max(worst, abs(ana - num) / denom)
    return worst


@pytest.mark.parametrize("rm_kind", ["ap", "mp", "fc"])
def test_local_gradients_match_finite_differences(rm_kind):
    rng = np.random.default_rng(100)
    extractor = protocol.make_extractor(2, [6], rng)
    if rm_kind == "fc":
        rm = RMSpec(FC, nets.init_dense([6, 3], [nets.IDENTITY], rng))
    else:
        rm = RMSpec(rm_kind)
    classifier = protocol.make_classifier(3, 3, rng)
    Xb = rng.normal(size=(4, 2))
    targets = nets.one_hot_matrix(rng.integers(3, size=4), 3)
    loss, ext_grads, cls_grads, fc_grads = stepped_gradients(
        extractor, rm, classifier, Xb, targets
    )
    assert loss == pytest.approx(
        composed_loss(extractor, rm, classifier, Xb, targets), abs=1e-12
    )
    worst = fd_check_net(
        lambda net: composed_loss(net, rm, classifier, Xb, targets), extractor, ext_grads
    )
    worst = max(
        worst,
        fd_check_net(
            lambda net: composed_loss(extractor, rm, net, Xb, targets),
            classifier,
            cls_grads,
        ),
    )
    if rm_kind == "fc":
        worst = max(
            worst,
            fd_check_net(
                lambda net: composed_loss(extractor, RMSpec(FC, net), classifier, Xb, targets),
                rm.net,
                fc_grads,
            ),
        )
    else:
        assert fc_grads is None
    assert worst < 1e-4


def test_local_gradients_prototype_pull_matches_finite_differences():
    rng = np.random.default_rng(101)
    extractor = protocol.make_extractor(2, [6], rng)
    rm = RMSpec(AP)
    classifier = protocol.make_classifier(3, 3, rng)
    Xb = rng.normal(size=(4, 2))
    targets = nets.one_hot_matrix(np.array([0, 1, 2, 0]), 3)
    rows = rng.normal(size=(4, 3))
    mask = np.array([1.0, 0.0, 1.0, 1.0])  # one row has no prototype
    reg = (0.3, rows, mask)
    loss, ext_grads, cls_grads, _ = stepped_gradients(
        extractor, rm, classifier, Xb, targets, reg
    )
    assert loss == pytest.approx(
        composed_loss(extractor, rm, classifier, Xb, targets, reg), abs=1e-12
    )
    worst = fd_check_net(
        lambda net: composed_loss(net, rm, classifier, Xb, targets, reg),
        extractor,
        ext_grads,
    )
    # the pull term does not reach the classifier parameters
    worst = max(
        worst,
        fd_check_net(
            lambda net: composed_loss(extractor, rm, net, Xb, targets, reg),
            classifier,
            cls_grads,
        ),
    )
    assert worst < 1e-4


# ---------------------------------------------------------------- local update


def test_client_local_update_adopts_broadcast_when_lr_zero():
    client = make_client(rng_seed=2, lr=0.0)
    server = make_server()
    updated = protocol.client_local_update(client, server.classifier)
    assert net_params_equal(updated.classifier, server.classifier)
    assert net_params_equal(updated.extractor, client.extractor)


def test_client_local_update_keeps_own_classifier_without_broadcast():
    client = make_client(rng_seed=2, lr=0.0)
    updated = protocol.client_local_update(client, None)
    assert net_params_equal(updated.classifier, client.classifier)


def test_client_local_update_does_not_mutate_input_params():
    client = make_client(rng_seed=3)
    before_w = client.extractor.layers[0].weight.copy()
    protocol.client_local_update(client, None)
    np.testing.assert_array_equal(client.extractor.layers[0].weight, before_w)


def test_client_local_update_reduces_loss():
    client = make_client(rng_seed=4, epochs=5, lr=0.1, spread=0.5)
    before = local_ce_loss(client)
    updated = protocol.client_local_update(client, None)
    assert local_ce_loss(updated) < before


def test_client_local_update_trains_fc_mapping():
    client = make_client(rng_seed=5, rm_kind="fc", hidden=(6,), epochs=3, lr=0.1)
    updated = protocol.client_local_update(client, None)
    assert not net_params_equal(updated.rm.net, client.rm.net)


def test_client_local_update_raises_on_divergence():
    client = make_client(rng_seed=6, lr=1e6, epochs=10)
    with np.errstate(all="ignore"), pytest.raises(nets.DivergedError):
        protocol.client_local_update(client, None)


def test_client_local_update_requires_training_data():
    client = make_client(rng_seed=7)
    empty = client.train.subset([])
    with pytest.raises(ValueError):
        protocol.client_local_update(replace(client, train=empty), None)


# ---------------------------------------------------------------- packets


def test_client_make_packet_is_deterministic_per_rng_state():
    a = make_client(rng_seed=8)
    b = make_client(rng_seed=8)
    mech = ReMechanism("rap")
    pa, wa = protocol.client_make_packet(a, mech, 4)
    pb, wb = protocol.client_make_packet(b, mech, 4)
    np.testing.assert_array_equal(pa.r_tilde, pb.r_tilde)
    np.testing.assert_array_equal(pa.y_tilde, pb.y_tilde)
    np.testing.assert_array_equal(wa, wb)


def test_client_make_packet_with_explicit_weights_skips_the_rng():
    client = make_client(rng_seed=9)
    state_before = client.rng.bit_generator.state
    n = len(client.train)
    w = np.full(n, 1.0 / n)
    _, used = protocol.client_make_packet(client, ReMechanism("rap"), 4, weights=w)
    assert client.rng.bit_generator.state == state_before
    assert used is w


def test_packet_shapes():
    client = make_client(rng_seed=10, unified_dim=4, num_classes=3)
    p, w = protocol.client_make_packet(client, ReMechanism("var"), 4)
    assert w.shape == (len(client.train),)
    assert p.r_tilde.shape == (4,)
    assert p.y_tilde.shape == (3,)


# ---------------------------------------------------------------- server


def server_packet_loss(server, R, Y):
    logits, _ = nets.forward_pass(server.classifier, R)
    return batch_mean_ce(logits, Y)


def test_server_update_reduces_packet_loss():
    rng = np.random.default_rng(200)
    server = make_server(unified_dim=4, num_classes=3, lr=0.5, epochs=20)
    draws = [(rng.normal(size=4), int(rng.integers(3))) for _ in range(12)]
    R = np.stack([r for r, _ in draws])
    Y = nets.one_hot_matrix([c for _, c in draws], 3)
    before = server_packet_loss(server, R, Y)
    after_state = protocol.server_update(server, R, Y)
    assert server_packet_loss(after_state, R, Y) < before


def test_server_update_zero_lr_keeps_classifier():
    server = make_server(lr=0.0)
    after = protocol.server_update(server, np.ones((1, 4)), nets.one_hot_matrix([0], 3))
    assert net_params_equal(after.classifier, server.classifier)


def test_server_update_rejects_empty_and_mismatched_packets():
    server = make_server()
    with pytest.raises(ValueError):
        protocol.server_update(server, np.zeros((0, 4)), np.zeros((0, 3)))
    with pytest.raises(nets.ShapeError):
        protocol.server_update(server, np.ones((1, 5)), nets.one_hot_matrix([0], 3))
    with pytest.raises(nets.ShapeError):
        protocol.server_update(server, np.ones((2, 4)), nets.one_hot_matrix([0], 3))
    with pytest.raises(nets.ShapeError):
        protocol.server_update(server, np.ones(4), nets.one_hot_matrix([0], 3))


# ---------------------------------------------------------------- evaluation


def hand_built_client(test_X, test_y):
    """Identity pipeline: logits equal the input features."""
    from fedre import data

    eye = nets.DenseNet(
        layers=[nets.Layer(np.eye(2), np.zeros(2), nets.RELU)]
    )
    head = nets.DenseNet(
        layers=[nets.Layer(np.eye(2), np.zeros(2), nets.IDENTITY)]
    )
    ds = data.Dataset(test_X, test_y, 2)
    return protocol.ClientState(
        client_id=0,
        extractor=eye,
        rm=RMSpec(AP),
        classifier=head,
        train=ds,
        test=ds,
        rng=np.random.default_rng(0),
        lr=0.05,
        batch_size=16,
        epochs=1,
    )


def test_evaluate_client_argmax_accuracy():
    X = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 0.5]])
    client = hand_built_client(X, np.array([0, 1, 0]))
    assert protocol.evaluate_client(client) == 1.0
    client = hand_built_client(X, np.array([1, 1, 0]))
    assert protocol.evaluate_client(client) == pytest.approx(2.0 / 3.0)


def test_evaluate_client_breaks_ties_toward_the_lowest_class():
    # identity pipeline: rows 0 and 2 tie both logits, row 1 scores class 1
    X = np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]])
    assert protocol.evaluate_client(hand_built_client(X, np.array([0, 1, 0]))) == 1.0
    assert protocol.evaluate_client(hand_built_client(X, np.array([1, 1, 1]))) == pytest.approx(
        1.0 / 3.0
    )


def test_representations_that_overflow_finite_parameters_raise_diverged():
    """Finite parameters whose activations overflow: the loss and parameter
    checks cannot see it, the representation check names it."""
    client = hand_built_client(np.array([[1e10, 1e10]]), np.array([0]))
    huge = nets.DenseNet(layers=[nets.Layer(np.full((2, 2), 1e300), np.zeros(2), nets.RELU)])
    client = replace(client, extractor=huge)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nets.DivergedError, match="^representations turned non-finite"):
            protocol.client_representation_set(client)
        with pytest.raises(nets.DivergedError, match="^test representations turned non-finite"):
            protocol.evaluate_client(client)


def test_evaluate_client_none_on_empty_test():
    client = make_client(rng_seed=11)
    empty = client.test.subset([])
    assert protocol.evaluate_client(replace(client, test=empty)) is None


def test_mean_accuracy_filters_missing_scores():
    assert protocol.mean_accuracy([0.5, None, 1.0]) == pytest.approx(0.75)
    assert np.isnan(protocol.mean_accuracy([None, None]))


# ---------------------------------------------------------------- participation


def test_participation_full_rate_returns_everyone_without_rng():
    clients = [make_client(rng_seed=i, client_id=i) for i in range(3)]
    assert protocol.participation_sample(clients, 1.0, None) == clients


def test_participation_partial_rate_subsets_in_order():
    clients = list(range(10))
    rng = np.random.default_rng(0)
    chosen = protocol.participation_sample(clients, 0.3, rng)
    assert len(chosen) == 3  # ceil(0.3 * 10)
    assert chosen == sorted(chosen)
    assert set(chosen) <= set(clients)


def test_participation_rejects_an_empty_pool():
    # the rate's range is config.participation_rate's bound, checked there
    with pytest.raises(ValueError, match="no clients to sample from"):
        protocol.participation_sample([], 0.5, np.random.default_rng(0))


# ---------------------------------------------------------------- rng forks


def draws(rng):
    """A mix of draws: 64-bit floats and integers, a permutation, and a
    32-bit float, which leaves half a 64-bit word buffered in some sources."""
    return [rng.standard_normal(5), rng.integers(0, 1000, 7), rng.permutation(9),
            rng.random(3, dtype=np.float32), rng.random(4)]


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64],
    ids=lambda bg: bg.__name__,
)
def test_fork_rng_draws_what_its_source_would_and_leaves_it_unchanged(bit_generator):
    rng = np.random.Generator(bit_generator(7))
    rng.random(1, dtype=np.float32)  # fork mid-stream, with a half word buffered
    state = rng.bit_generator.state
    fork = protocol.fork_rng(rng)
    assert type(fork.bit_generator) is bit_generator
    forked = draws(fork)
    np.testing.assert_equal(rng.bit_generator.state, state)
    for got, want in zip(forked, draws(rng)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(fork.bit_generator.state, rng.bit_generator.state)


# ---------------------------------------------------------------- full round


def fedre_round(clients, server, mech, participation_rate=1.0, part_rng=None):
    """The paper's round: fedre with fresh weight draws every round.
    Returns (clients, server, metrics)."""
    clients, server, _, metrics = baselines.strategy_round(
        baselines.Strategy(kind="fedre", mech=mech),
        clients,
        server,
        {},
        0,
        participation_rate,
        np.random.default_rng(0) if part_rng is None else part_rng,
        None,
        protocol.REPRESENTATION_ONLY,
    )
    return clients, server, metrics


def fresh_world(num_clients=3, seed_base=20):
    clients = [
        make_client(rng_seed=seed_base + i, client_id=i) for i in range(num_clients)
    ]
    server = make_server(seed=seed_base + 100)
    return clients, server


def test_run_round_is_deterministic():
    mech = ReMechanism("rap")
    results = []
    for _ in range(2):
        clients, server = fresh_world()
        clients, server, metrics = fedre_round(clients, server, mech)
        results.append((metrics, server))
    m0, m1 = results[0][0], results[1][0]
    assert m0.mean_acc == m1.mean_acc
    assert m0.per_client_acc == m1.per_client_acc
    assert net_params_equal(results[0][1].classifier, results[1][1].classifier)


def test_run_round_accounts_participants():
    clients, server = fresh_world()
    _, _, metrics = fedre_round(clients, server, ReMechanism("var"))
    d, C = 4, 3
    assert metrics.upload_scalars == 3 * d
    assert metrics.broadcast_scalars == 3 * (d * C + C)
    ledger = protocol.count_round(protocol.CommLedger(), 3, d, C)
    assert sum(ledger.upload_history) == metrics.upload_scalars
    assert 0.0 <= metrics.mean_acc <= 1.0
    record = metrics.to_record(0)
    assert set(record) == {
        "round",
        "mean_acc",
        "per_client_acc",
        "upload_scalars",
        "broadcast_scalars",
    }


def test_run_round_does_not_mutate_inputs():
    clients, server = fresh_world()
    before = [c.extractor.layers[0].weight.copy() for c in clients]
    server_before = server.classifier.layers[0].weight.copy()
    streams = [c.rng for c in clients] + [server.rng]
    states = [g.bit_generator.state for g in streams]
    new_clients, new_server, _ = fedre_round(clients, server, ReMechanism("rap"))
    for c, w in zip(clients, before):
        np.testing.assert_array_equal(c.extractor.layers[0].weight, w)
    np.testing.assert_array_equal(server.classifier.layers[0].weight, server_before)
    # the input streams stay put; the new states draw from forks of them
    assert [g.bit_generator.state for g in streams] == states
    assert all(n.rng is not c.rng for n, c in zip(new_clients + [new_server], clients + [server]))


def test_run_round_skips_trainless_clients_but_still_scores_them():
    clients, server = fresh_world()
    clients[1] = replace(clients[1], train=clients[1].train.subset([]))
    _, _, metrics = fedre_round(clients, server, ReMechanism("var"))
    assert metrics.upload_scalars == 2 * 4  # only two uploaders
    assert len(metrics.per_client_acc) == 3  # everyone evaluated


def test_run_round_rolls_back_rng_on_failure():
    clients, server = fresh_world()
    states = [c.rng.bit_generator.state for c in clients]
    with calls_at("server_update", {}, fail_at=1), pytest.raises(InjectedFault):
        fedre_round(clients, server, ReMechanism("rap"))
    for c, st in zip(clients, states):
        assert c.rng.bit_generator.state == st
    # a rerun with a good server proceeds exactly as if the failure never happened
    reference_clients, reference_server = fresh_world()
    _, _, want = fedre_round(reference_clients, reference_server, ReMechanism("rap"))
    _, _, got = fedre_round(clients, server, ReMechanism("rap"))
    assert got.mean_acc == want.mean_acc


def test_run_round_participation_uses_given_rng():
    clients, server = fresh_world(num_clients=4)
    part_rng = np.random.default_rng(5)
    twin = np.random.default_rng(5)
    _, _, metrics = fedre_round(
        clients,
        server,
        ReMechanism("var"),
        participation_rate=0.5,
        part_rng=part_rng,
    )
    assert metrics.upload_scalars == 2 * 4  # ceil(0.5 * 4) = 2 uploaders
    # the round commits its draw of the participants to part_rng
    protocol.participation_sample(clients, 0.5, twin)
    assert part_rng.bit_generator.state == twin.bit_generator.state
