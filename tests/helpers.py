"""Shared test utilities: oracles and small world builders."""

import numpy as np

from fedre import data, nets, protocol
from fedre.entangle import RMSpec


def numeric_gradients(net, x, target, eps=1e-5):
    """Central finite differences of soft_cross_entropy(net(x), target)."""

    def loss_at(candidate):
        out, _ = nets.forward_pass(candidate, np.asarray(x, float)[None, :])
        return nets.soft_cross_entropy(out[0], target)

    weight_grads, bias_grads = [], []
    for li in range(len(net.layers)):
        layer = net.layers[li]
        gw = np.zeros_like(layer.weight)
        for idx in np.ndindex(*layer.weight.shape):
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                candidate = nets.clone(net)
                candidate.layers[li].weight[idx] += sign * eps
                if store == "hi":
                    hi = loss_at(candidate)
                else:
                    lo = loss_at(candidate)
            gw[idx] = (hi - lo) / (2 * eps)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(*layer.bias.shape):
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                candidate = nets.clone(net)
                candidate.layers[li].bias[idx] += sign * eps
                if store == "hi":
                    hi = loss_at(candidate)
                else:
                    lo = loss_at(candidate)
            gb[idx] = (hi - lo) / (2 * eps)
        weight_grads.append(gw)
        bias_grads.append(gb)
    return nets.GradientSet(weight_grads, bias_grads)


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for ga, gn in zip(
        analytic.weight_grads + analytic.bias_grads,
        numeric.weight_grads + numeric.bias_grads,
    ):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), floor)
        worst = max(worst, float((np.abs(ga - gn) / denom).max()))
    return worst


def random_net(rng, sizes, final_identity=True):
    acts = [nets.RELU] * (len(sizes) - 1)
    if final_identity:
        acts[-1] = nets.IDENTITY
    return nets.init_dense(sizes, acts, rng)


def random_simplex(rng, n):
    u = rng.random(n) + 1e-9
    return u / u.sum()


def make_client(
    rng_seed=0,
    num_classes=3,
    per_class=8,
    dim=2,
    hidden=(12,),
    unified_dim=4,
    rm_kind="ap",
    lr=0.05,
    batch_size=8,
    epochs=1,
    client_id=0,
    spread=1.0,
):
    """A self-contained little client over fresh blobs."""
    ss = np.random.SeedSequence(rng_seed)
    data_ss, init_ss, stream_ss, split_ss = ss.spawn(4)
    ds = data.make_blobs(num_classes, per_class, dim, spread, data_ss)
    train, test = data.train_test_split(ds, 0.75, split_ss)
    init_rng = np.random.default_rng(init_ss)
    extractor = protocol.make_extractor(dim, list(hidden), init_rng)
    if rm_kind == "fc":
        rm = RMSpec("fc", nets.init_dense([hidden[-1], unified_dim], [nets.IDENTITY], init_rng))
    else:
        rm = RMSpec(rm_kind)
    classifier = protocol.make_classifier(unified_dim, num_classes, init_rng)
    return protocol.ClientState(
        client_id=client_id,
        extractor=extractor,
        rm=rm,
        classifier=classifier,
        train=train,
        test=test,
        rng=np.random.default_rng(stream_ss),
        lr=lr,
        batch_size=batch_size,
        epochs=epochs,
    )


def make_server(unified_dim=4, num_classes=3, seed=7, lr=0.1, batch_size=10, epochs=5):
    init_ss, stream_ss = np.random.SeedSequence(seed).spawn(2)
    return protocol.ServerState(
        classifier=protocol.make_classifier(
            unified_dim, num_classes, np.random.default_rng(init_ss)
        ),
        rng=np.random.default_rng(stream_ss),
        lr=lr,
        batch_size=batch_size,
        epochs=epochs,
    )


def local_ce_loss(client):
    """Mean cross-entropy of the client's composed model on its train set."""
    from fedre.entangle import rm_apply

    reps, _ = nets.forward_pass(client.extractor, client.train.X)
    mapped, _ = rm_apply(reps, client.rm, client.classifier.input_dim)
    logits, _ = nets.forward_pass(client.classifier, mapped)
    targets = nets.one_hot_matrix(client.train.y, client.classifier.output_dim)
    return nets.batch_mean_ce(logits, targets)


def net_params_equal(a, b):
    return all(
        np.array_equal(la.weight, lb.weight)
        and np.array_equal(la.bias, lb.bias)
        and la.activation == lb.activation
        for la, lb in zip(a.layers, b.layers)
    )


def per_target_attack(inv, world, client):
    """The client attack one target at a time: the oracle for the seed stack.

    Each target's invert_multi call draws that target's starts from the
    attack rng right after the draws that chose the target: the picks, the
    category permutation, or the target's re_weights.
    """
    from fedre.entangle import compute_prototypes, re_weights, rm_apply
    from fedre.inversion import InversionResult, dataset_range, invert_multi, score

    results = []
    rng = np.random.default_rng(world.attack_seed)
    rep_set = protocol.client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, world.unified_dim)
    peak = inv.data_range if inv.data_range is not None else dataset_range(client.train.X)

    def attack(target, kind, originals):
        protocol._require_finite(target, f"{kind} target")
        rec = invert_multi(
            client.extractor,
            client.rm,
            target,
            inv.steps,
            inv.lr,
            rng,
            init_scale=inv.init_scale,
            restarts=inv.restarts,
        )
        mse, psnr = score(rec, originals, peak)
        results.append(InversionResult(rec, kind, mse, psnr, inv.steps))

    n = len(client.train)
    picks = rng.choice(n, size=min(inv.num_targets, n), replace=False)
    for i in picks:
        attack(mapped[i], "raw", client.train.X[i])
    protos_list = compute_prototypes(rep_set, client.rm, world.unified_dim)
    cats = rng.permutation(len(protos_list))[: inv.num_targets]
    for ci in cats:
        c, proto = protos_list[ci]
        attack(proto, "prototype", client.train.X[client.train.y == c])
    for _ in range(inv.num_targets):
        w = re_weights(rep_set, world.strategy.mech, rng)
        packet = np.asarray(w @ mapped, dtype=float)
        attack(packet, "entangled", client.train.X)
    return results
