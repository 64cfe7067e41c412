"""The client and server update loops against a per-step reference.

client_local_update and server_update step private copies of the parameters
in place through the nets kernels and check the parameters once, at the end.
The reference loops below are the per-step form they replaced, built only
from the public forward_pass, backprop and sgd_step and the reference
cross-entropy and softmax in helpers: every step
builds a new net and checks it. Over small random worlds both must end with
bitwise equal parameters and the same RNG state, or both must fail with
DivergedError. The updates draw from a fork of the input's stream and
return it as the new state's, so the input's own stream must not move.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import data, nets, protocol
from fedre.entangle import FC, RM_KINDS, EntangledPacket, RMSpec, rm_apply, rm_backward

from helpers import batch_mean_ce, net_params_equal, softmax

# ------------------------------------------------------------ the reference


def reference_local_gradients(extractor, rm, classifier, Xb, targets, proto_reg):
    n = Xb.shape[0]
    reps, ext_cache = nets.forward_pass(extractor, Xb)
    protocol._require_finite(reps, "representations")
    mapped, rm_cache = rm_apply(reps, rm, classifier.input_dim)
    protocol._require_finite(mapped, "mapped representations")
    logits, cls_cache = nets.forward_pass(classifier, mapped)
    loss = batch_mean_ce(logits, targets)
    grad_logits = (softmax(logits) - targets) / n
    cls_grads, grad_mapped = nets.backprop(classifier, cls_cache, grad_logits)
    if proto_reg is not None:
        lam, proto_rows, mask = proto_reg
        diffs = (mapped - proto_rows) * mask[:, None]
        loss += lam * float((diffs**2).sum()) / n
        grad_mapped = grad_mapped + (2.0 * lam / n) * diffs
    if rm.kind == FC:
        fc_grads, grad_reps = nets.backprop(rm.net, rm_cache, grad_mapped)
    else:
        fc_grads, grad_reps = None, rm_backward(grad_mapped, rm, rm_cache)
    ext_grads, _ = nets.backprop(extractor, ext_cache, grad_reps)
    return loss, ext_grads, cls_grads, fc_grads


def reference_client_update(client, global_classifier, proto_reg=None):
    c = client
    if global_classifier is not None:
        c = replace(client, classifier=nets.clone(global_classifier))
    extractor, classifier, rm = c.extractor, c.classifier, c.rm
    n = len(c.train)
    for _ in range(c.epochs):
        order = c.rng.permutation(n)
        for start in range(0, n, c.batch_size):
            idx = order[start : start + c.batch_size]
            yb = c.train.y[idx]
            targets = nets.one_hot_matrix(yb, classifier.output_dim)
            reg = None
            if proto_reg is not None:
                lam, protos = proto_reg
                rows = np.zeros((idx.size, classifier.input_dim))
                mask = np.zeros(idx.size)
                for i, label in enumerate(yb):
                    if int(label) in protos:
                        rows[i] = protos[int(label)]
                        mask[i] = 1.0
                reg = (lam, rows, mask)
            loss, ext_grads, cls_grads, fc_grads = reference_local_gradients(
                extractor, rm, classifier, c.train.X[idx], targets, reg
            )
            if not math.isfinite(loss):
                raise nets.DivergedError("local loss is non-finite")
            extractor = nets.sgd_step(extractor, ext_grads, c.lr)
            classifier = nets.sgd_step(classifier, cls_grads, c.lr)
            if fc_grads is not None:
                rm = RMSpec(FC, nets.sgd_step(rm.net, fc_grads, c.lr))
    return extractor, classifier, rm


def reference_server_update(server, packets):
    """The server loop on a list of per-row packets."""
    R = np.stack([p.r_tilde for p in packets])
    Y = np.stack([p.y_tilde for p in packets])
    classifier = server.classifier
    n = len(packets)
    for _ in range(server.epochs):
        order = server.rng.permutation(n)
        for start in range(0, n, server.batch_size):
            idx = order[start : start + server.batch_size]
            out, cache = nets.forward_pass(classifier, R[idx])
            loss = batch_mean_ce(out, Y[idx])
            if not math.isfinite(loss):
                raise nets.DivergedError("server loss is non-finite")
            grad_out = (softmax(out) - Y[idx]) / idx.size
            grads, _ = nets.backprop(classifier, cache, grad_out)
            classifier = nets.sgd_step(classifier, grads, server.lr)
    return classifier


def outcome(fn, *args, **kwargs):
    """fn's result, or DivergedError if it diverged."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args, **kwargs)
        except nets.DivergedError:
            return nets.DivergedError


# ---------------------------------------------------------------- worlds

LRS = st.sampled_from([0.0, 0.05, 0.5, 5.0, 1e150])


@st.composite
def client_worlds(draw, always_pull=False):
    """A small client with a random mapping, batch size and epoch count,
    plus an optional broadcast classifier and prototype pull.

    always_pull makes every draw one whose prototype pull moves the
    parameters: lam > 0, a finite non-zero lr, at least one epoch and a
    prototype for every label."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(RM_KINDS))
    unified = draw(st.integers(1, 3))
    raw = draw(st.integers(1, 5)) if kind == FC else unified * draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    num_classes = draw(st.integers(2, 4))
    sizes = [dim] + draw(st.lists(st.integers(1, 5), max_size=1)) + [raw]
    extractor = nets.init_dense(sizes, [nets.RELU] * (len(sizes) - 1), rng)
    rm = RMSpec(FC, nets.init_dense([raw, unified], [nets.IDENTITY], rng)) if kind == FC else RMSpec(kind)
    n = draw(st.integers(1, 12))
    train = data.Dataset(rng.normal(size=(n, dim)), rng.integers(num_classes, size=n), num_classes)
    client = protocol.ClientState(
        client_id=0,
        extractor=extractor,
        rm=rm,
        classifier=protocol.make_classifier(unified, num_classes, rng),
        train=train,
        test=train.subset([]),
        rng=np.random.default_rng(draw(st.integers(0, 2**16))),
        lr=draw(st.sampled_from([0.01, 0.05]) if always_pull else LRS),
        batch_size=draw(st.integers(1, n + 2)),
        epochs=draw(st.integers(1 if always_pull else 0, 3)),
    )
    broadcast = protocol.make_classifier(unified, num_classes, rng) if draw(st.booleans()) else None
    proto_reg = None
    if always_pull:
        lam = draw(st.sampled_from([0.1, 1.0]))
        proto_reg = (lam, {c: rng.normal(size=unified) for c in range(num_classes)})
    elif draw(st.booleans()):
        cats = draw(st.sets(st.integers(0, num_classes - 1)))
        proto_reg = (draw(st.sampled_from([0.0, 0.1, 1.0])), {c: rng.normal(size=unified) for c in cats})
    return client, broadcast, proto_reg


@st.composite
def server_worlds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unified = draw(st.integers(1, 4))
    num_classes = draw(st.integers(2, 4))
    k = draw(st.integers(1, 12))
    packets = []
    for _ in range(k):
        y = rng.random(num_classes)
        packets.append(EntangledPacket(rng.normal(size=unified), y / y.sum()))
    server = protocol.ServerState(
        classifier=protocol.make_classifier(unified, num_classes, rng),
        rng=np.random.default_rng(draw(st.integers(0, 2**16))),
        lr=draw(LRS),
        batch_size=draw(st.integers(1, k + 2)),
        epochs=draw(st.integers(0, 4)),
    )
    return server, packets


def twin_rngs(state_holder):
    """Two generators in the state of state_holder.rng."""
    a, b = np.random.default_rng(), np.random.default_rng()
    a.bit_generator.state = b.bit_generator.state = state_holder.rng.bit_generator.state
    return a, b


# ------------------------------------------------------------- properties


def check_client_update(world):
    client, broadcast, proto_reg = world
    rng_a, rng_b = twin_rngs(client)
    before = rng_a.bit_generator.state
    got = outcome(protocol.client_local_update, replace(client, rng=rng_a), broadcast, proto_reg)
    want = outcome(reference_client_update, replace(client, rng=rng_b), broadcast, proto_reg)
    assert rng_a.bit_generator.state == before
    if want is nets.DivergedError:
        assert got is nets.DivergedError
        return
    assert got is not nets.DivergedError
    extractor, classifier, rm = want
    assert net_params_equal(got.extractor, extractor)
    assert net_params_equal(got.classifier, classifier)
    if rm.kind == FC:
        assert net_params_equal(got.rm.net, rm.net)
    assert got.rng is not rng_a
    assert got.rng.bit_generator.state == rng_b.bit_generator.state
    # the input state's parameters are untouched
    assert got.extractor.layers[0].weight is not client.extractor.layers[0].weight


@settings(max_examples=80, deadline=None)
@given(client_worlds())
def test_client_local_update_equals_the_per_step_loop(world):
    check_client_update(world)


@settings(max_examples=30, deadline=None)
@given(client_worlds(always_pull=True))
def test_client_local_update_pulls_toward_every_prototype(world):
    """Every draw here has a pull that moves the parameters, so a pull
    dropped for any category shows as a parameter mismatch."""
    check_client_update(world)


def check_server_update(world):
    server, packets = world
    before = nets.clone(server.classifier)
    rng_a, rng_b = twin_rngs(server)
    state = rng_a.bit_generator.state
    R = np.stack([p.r_tilde for p in packets])
    Y = np.stack([p.y_tilde for p in packets])
    got = outcome(protocol.server_update, replace(server, rng=rng_a), R, Y)
    want = outcome(reference_server_update, replace(server, rng=rng_b), packets)
    assert net_params_equal(server.classifier, before)
    assert rng_a.bit_generator.state == state
    if want is nets.DivergedError:
        assert got is nets.DivergedError
        return
    assert got is not nets.DivergedError
    assert net_params_equal(got.classifier, want)
    assert got.rng.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(server_worlds())
def test_server_update_equals_the_per_step_loop(world):
    check_server_update(world)


def test_server_update_equals_the_per_step_loop_at_the_toy_shape():
    """The toy preset's server: 2 packets of dimension 8 over 10 classes,
    lr 0.5, batch 100 and 100 epochs, 100 steps from one batched draw of
    the epoch orders (server_worlds draws at most 4 epochs)."""
    rng = np.random.default_rng(15)
    packets = [EntangledPacket(rng.normal(size=8), y / y.sum()) for y in rng.random((2, 10))]
    server = protocol.ServerState(
        classifier=protocol.make_classifier(8, 10, rng),
        rng=np.random.default_rng(16),
        lr=0.5,
        batch_size=100,
        epochs=100,
    )
    check_server_update((server, packets))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_epoch_orders_are_one_permutation_per_epoch(n, epochs, seed):
    """One batched draw gives the orders, and leaves the stream in the
    state, of one rng.permutation(n) per epoch."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    orders = protocol._epoch_orders(a, n, epochs)
    assert orders.shape == (epochs, n)
    for order in orders:
        assert np.array_equal(order, b.permutation(n))
    assert a.bit_generator.state == b.bit_generator.state


def test_parameters_overflowing_on_the_last_step_raise_diverged_error():
    # one step, so only the end-of-update check can see the overflow
    rng = np.random.default_rng(3)
    server = protocol.ServerState(
        classifier=protocol.make_classifier(2, 2, rng), rng=rng, lr=1e308, batch_size=1, epochs=1
    )
    R, Y = np.full((1, 2), 100.0), np.array([[1.0, 0.0]])
    assert outcome(protocol.server_update, server, R, Y) is nets.DivergedError
    train = data.Dataset(np.full((1, 2), 100.0), np.array([1]), 2)
    client = protocol.ClientState(
        client_id=0,
        extractor=nets.init_dense([2, 4], [nets.IDENTITY], rng),
        rm=RMSpec("ap"),
        classifier=protocol.make_classifier(2, 2, rng),
        train=train,
        test=train,
        rng=rng,
        lr=1e308,
        batch_size=1,
        epochs=1,
    )
    assert outcome(protocol.client_local_update, client, None) is nets.DivergedError
