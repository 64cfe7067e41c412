"""Shared test utilities: oracles, small world builders and a time limit."""

import contextlib
import csv
import math
import pickle
import signal
from pathlib import Path
from unittest import mock

import numpy as np

from fedre import baselines, data, nets, protocol, runner
from fedre.entangle import EntangledPacket, RMSpec

# ------------------------------------------------------- reference math


def softmax(logits):
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def batch_mean_ce(logits, targets):
    """Mean soft cross-entropy -sum(t * log softmax(z)) over logit rows,
    max-shifted and clamped at zero per row."""
    z, t = np.asarray(logits, dtype=float), np.asarray(targets, dtype=float)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return float(np.maximum(lse - (t * z).sum(axis=1), 0.0).mean())


# The plain formulas of the nets and entangle kernels, the oracles that the
# kernels must equal byte for byte: same shapes, same caches, same bits.


def reference_forward(net, X):
    """nets._forward as one expression per layer: (outputs, BatchCache,
    pre-activations z per layer). The cache holds every layer's input and
    the output; z is kept beside it for the textbook relu mask."""
    acts, pre = [X], []
    for l in net.layers:
        z = acts[-1] @ l.weight.T + l.bias
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if l.activation == nets.RELU else z)
    return acts[-1], nets.BatchCache(acts), pre


def reference_backward(net, cache, pre, delta, param_grads=True, input_grad=True):
    """nets._backward with the relu mask z > 0 read from the
    pre-activations pre and bias gradients from ndarray.sum."""
    n = len(net.layers)
    weight_grads, bias_grads = [None] * n, [None] * n
    for i in reversed(range(n)):
        l = net.layers[i]
        if l.activation == nets.RELU:
            delta = delta * (pre[i] > 0)
        if param_grads:
            weight_grads[i] = delta.swapaxes(-1, -2) @ cache.activations[i]
            bias_grads[i] = delta.sum(axis=-2)
        if i or input_grad:
            delta = delta @ l.weight
    grads = nets.GradientSet(weight_grads, bias_grads) if param_grads else None
    return grads, delta if input_grad else None


def reference_ce(z, t):
    """nets._ce with fresh temporaries: (mean loss, gradient wrt z)."""
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    losses = m[:, 0] + np.log(s[:, 0]) - (t * z).sum(axis=1)
    n = z.shape[0]
    return float(np.maximum(losses, 0.0).sum() / n), (e / s - t) / n


def reference_rm_apply(R, rm, unified_dim):
    """entangle.rm_apply on an (..., n, raw) batch of valid shape:
    (mapped, the fc forward's (cache, pre-activations) or the mp winners or
    None)."""
    if rm.kind == "fc":
        out, cache, pre = reference_forward(rm.net, R)
        return out, (cache, pre)
    blocks = R.reshape(R.shape[:-1] + (unified_dim, R.shape[-1] // unified_dim))
    if rm.kind == "ap":
        return blocks.sum(axis=-1) / blocks.shape[-1], None
    winners = blocks.argmax(axis=-1)
    return np.take_along_axis(blocks, winners[..., None], axis=-1)[..., 0], winners


def reference_rm_backward(g, rm, m, aux):
    """entangle.rm_backward given reference_rm_apply's aux and the block
    size m: (gradient wrt the raw rows, fc GradientSet or None)."""
    if rm.kind == "fc":
        fc_grads, grad_in = reference_backward(rm.net, *aux, g)
        return grad_in, fc_grads
    if rm.kind == "ap":
        grad_blocks = np.repeat(g[..., None] / m, m, axis=-1)
    else:
        grad_blocks = np.zeros(g.shape + (m,))
        np.put_along_axis(grad_blocks, aux[..., None], g[..., None], axis=-1)
    return grad_blocks.reshape(g.shape[:-1] + (g.shape[-1] * m,)), None


def check_label_encoding(p, atol=1e-9):
    """ValueError unless p is a finite probability vector."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("label encoding must be finite")
    if p.min(initial=0.0) < -atol or p.max(initial=0.0) > 1.0 + atol:
        raise ValueError("label encoding entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > atol:
        raise ValueError("label encoding must sum to 1")


def mixup_pair(r_i, y_i, r_j, y_j, lam):
    """Two-sample convex interpolation of mapped representations and labels."""
    return EntangledPacket(lam * r_i + (1.0 - lam) * r_j, lam * y_i + (1.0 - lam) * y_j)


def save_csv(ds, path):
    """Write a dataset as the x0,...,x{dim-1},label rows load_csv reads."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(ds.dim)] + ["label"])
        for row, label in zip(ds.X, ds.y):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])


def numeric_gradients(net, x, target, eps=1e-5):
    """Central finite differences of the cross-entropy of net(x) against
    target."""

    def loss_at(candidate):
        out, _ = nets.forward_pass(candidate, np.asarray(x, float)[None, :])
        return batch_mean_ce(out, np.asarray(target, float)[None, :])

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


class FixedDraws:
    """A generator stand-in whose uniform draws are the given values,
    broadcast to the requested size: re_weights' rar and rap under the
    uniform distribution draw nothing else."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return np.broadcast_to(self.values, (size,)).copy()


def reference_rar_weights_from_draws(u):
    """Normalize raw nonnegative draws into sample weights."""
    u = np.asarray(u, dtype=float)
    if u.sum() <= 0:
        raise ValueError("draws must have positive sum")
    return u / u.sum()


def reference_rap_weights_from_draws(labels, categories, draws):
    """Spread one normalized draw per category evenly over its samples.

    Sample i of category c gets u_c / (n_c * sum_j u_j), so the per-category
    weight mass is u_c / sum_j u_j. categories is sorted, as np.unique
    returns it.
    """
    labels = np.asarray(labels, dtype=int)
    draws = np.asarray(draws, dtype=float)
    if draws.shape[0] != len(categories):
        raise nets.ShapeError("one draw per category required")
    if draws.sum() <= 0:
        raise ValueError("draws must have positive sum")
    counts = np.bincount(labels)
    total = draws.sum()
    return draws[np.searchsorted(categories, labels)] / (counts[labels] * total)


class InjectedFault(RuntimeError):
    pass


def calls_at(site, log, fail_at=None):
    """baselines.<site>, counting its calls into log; with fail_at, the
    fail_at-th call raises InjectedFault instead."""
    real = getattr(baselines, site)

    def wrapped(*args, **kwargs):
        log[site] = log.get(site, 0) + 1
        if log[site] == fail_at:
            raise InjectedFault(f"{site} call {fail_at}")
        return real(*args, **kwargs)

    return mock.patch.object(baselines, site, wrapped)


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
    return batch_mean_ce(logits, targets)


def net_params_equal(a, b):
    return all(
        np.array_equal(la.weight, lb.weight)
        and np.array_equal(la.bias, lb.bias)
        and la.activation == lb.activation
        for la, lb in zip(a.layers, b.layers)
    )


def one_row_objective_and_grad(extractor, rm, x, target):
    """Attack objective and input gradient at one start x (d,) against one
    target (u,), through 2-d one-row calls and the forward_pass binding
    the attack uses. An overflowed representation gives objective nan."""
    from fedre import inversion
    from fedre.entangle import rm_apply, rm_backward

    out, ext_cache = inversion.forward_pass(extractor, x[None, :])
    if not np.isfinite(out).all():
        return math.nan, None
    mapped, rm_cache = rm_apply(out, rm, target.shape[0])
    resid = mapped[0] - target
    obj = float(resid @ resid)
    grad_reps = rm_backward((2.0 * resid)[None, :], rm, rm_cache)
    _, grad_x = nets.backprop(extractor, ext_cache, grad_reps)
    return obj, grad_x[0]


def one_row_descent(extractor, rm, target, steps, lr, x):
    """One start descending alone: (best iterate, its objective), the first
    visited point of lowest objective, or (None, inf) once its objective or
    next iterate turns non-finite."""
    best_x, best_obj = None, math.inf
    for step in range(steps + 1):
        obj, grad = one_row_objective_and_grad(extractor, rm, x, target)
        if not math.isfinite(obj):
            return None, math.inf
        if obj < best_obj:
            best_x, best_obj = x, obj
        if step < steps:
            x = x - lr * grad
            if not np.isfinite(x).all():
                return None, math.inf
    return best_x, best_obj


def one_row_attack(extractor, rm, targets, steps, lr, inits):
    """The attack one target and one start at a time: the oracle for the
    stacked one. Each target's starts are the next len(inits) // len(targets)
    rows of inits; the lowest objective wins, the earliest on a tie."""
    from fedre.inversion import InversionFailure

    starts = len(inits) // len(targets)
    recs = []
    for t, target in enumerate(targets):
        runs = [
            one_row_descent(extractor, rm, target, steps, lr, x[0])
            for x in inits[t * starts : (t + 1) * starts]
        ]
        best_x, best_obj = min(runs, key=lambda run: run[1])
        if best_x is None:
            raise InversionFailure("every start diverged")
        recs.append(best_x)
    return np.array(recs)


def one_row_client_attack(inv, world, client):
    """The client attack one target at a time, each start descending alone:
    the oracle for the seed stack.

    Each target's starts are drawn from the attack rng one by one, right
    after the draws that chose the target: the picks, the category
    permutation, or the target's re_weights.
    """
    from fedre.entangle import compute_prototypes, re_weights, rm_apply
    from fedre.inversion import InversionResult, dataset_range, score

    results = []
    rng = np.random.default_rng(world.attack_seed)
    rep_set = protocol.client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, client.classifier.input_dim)
    peak = inv.data_range if inv.data_range is not None else dataset_range(client.train.X)

    def attack(target, kind, originals):
        protocol._require_finite(target, f"{kind} target")
        d = client.extractor.input_dim
        inits = [inv.init_scale * rng.standard_normal(d) for _ in range(inv.restarts)]
        [rec] = one_row_attack(
            client.extractor, client.rm, target[None, :], inv.steps, inv.lr,
            np.array(inits)[:, None, :],
        )
        mse, psnr = score(rec, originals, peak)
        results.append(InversionResult(rec, kind, mse, psnr, inv.steps))

    n = len(client.train)
    picks = rng.choice(n, size=min(inv.num_targets, n), replace=False)
    for i in picks:
        attack(mapped[i], "raw", client.train.X[i])
    protos_list = compute_prototypes(rep_set, client.rm, client.classifier.input_dim)
    cats = rng.permutation(len(protos_list))[: inv.num_targets]
    for ci in cats:
        c, proto = protos_list[ci]
        attack(proto, "prototype", client.train.X[client.train.y == c])
    for _ in range(inv.num_targets):
        w = re_weights(rep_set, world.strategy.mech, rng)
        packet = np.asarray(w @ mapped, dtype=float)
        attack(packet, "entangled", client.train.X)
    return results


# ------------------------------------------------------- reference round


def reference_packets(strategy, client, unified_dim, fs_weights):
    """The client's upload as a list of per-row packets, one object each.

    fs_weights is the reference's own {client_id: frozen weights} for fedre
    fs; a client's first packet draws its weights and stores them there.
    """
    from fedre import baselines
    from fedre.entangle import compute_prototypes, entangle, re_weights, rm_apply

    if strategy.kind == baselines.LOCAL:
        return []
    rep_set = protocol.client_representation_set(client)
    if strategy.kind == baselines.FEDRE:
        w = fs_weights.get(client.client_id)
        if w is None:
            w = re_weights(rep_set, strategy.mech, client.rng)
            if strategy.resample == baselines.FIXED:
                fs_weights[client.client_id] = w
        return [entangle(rep_set, w, client.rm, unified_dim)]
    if strategy.kind == baselines.FED_ALL_REP:
        mapped, _ = rm_apply(rep_set.reps, client.rm, unified_dim)
        return [
            EntangledPacket(mapped[i].copy(), rep_set.labels_onehot[i].copy())
            for i in range(len(rep_set))
        ]
    num_classes = client.classifier.output_dim
    return [
        EntangledPacket(p, nets.one_hot_matrix([c], num_classes)[0])
        for c, p in compute_prototypes(rep_set, client.rm, unified_dim)
    ]


def reference_round(strategy, clients, server, convention, rate, part_rng, protos, fs_weights):
    """One round the long way: per-row packet objects, stacked for the
    server or grouped one by one into prototypes, and every client scored.
    Advances part_rng and fills fs_weights in place. Returns (clients,
    server, RoundMetrics, protos); no atomicity."""
    from fedre import baselines

    d = server.classifier.input_dim
    pool = [c for c in clients if len(c.train) > 0]
    participants = protocol.participation_sample(pool, rate, part_rng)
    broadcast = strategy.kind in (baselines.FED_ALL_REP, baselines.FEDGH_STYLE, baselines.FEDRE)
    proto_reg = (strategy.lambda_proto, protos) if strategy.kind == baselines.FEDPROTO_STYLE else None
    updated, packets, stats = {}, [], []
    for c in participants:
        trained = protocol.client_local_update(
            c, server.classifier if broadcast else None, proto_reg=proto_reg
        )
        packets += reference_packets(strategy, trained, d, fs_weights)
        updated[trained.client_id] = trained
        stats.append((len(trained.train), int(np.unique(trained.train.y).size)))
    if broadcast:
        server = protocol.server_update(
            server,
            np.stack([p.r_tilde for p in packets]),
            np.stack([p.y_tilde for p in packets]),
        )
    elif strategy.kind == baselines.FEDPROTO_STYLE:
        grouped = {}
        for p in packets:
            grouped.setdefault(int(p.y_tilde.argmax()), []).append(p.r_tilde)
        protos = {c: np.mean(rows, axis=0) for c, rows in sorted(grouped.items())}
    upload, down = baselines.ledger_for(
        strategy,
        len(participants),
        d,
        server.classifier.output_dim,
        per_client_stats=stats,
        convention=convention,
        num_global_prototypes=len(protos) if strategy.kind == baselines.FEDPROTO_STYLE else None,
    )
    clients = [updated.get(c.client_id, c) for c in clients]
    accs = [protocol.evaluate_client(c) for c in clients]
    metrics = protocol.RoundMetrics(protocol.mean_accuracy(accs), accs, upload, down)
    return clients, server, metrics, protos


def reference_train(cfg, world):
    """runner.train on reference_round: (clients, server, records, fs
    weights by client id)."""
    clients = runner.init_clients(cfg, world)
    server, records, protos, fs_weights = world.server, [], {}, {}
    for rnd in range(cfg.rounds):
        clients, server, metrics, protos = reference_round(
            world.strategy, clients, server, cfg.comm_convention,
            cfg.participation_rate, world.part_rng, protos, fs_weights,
        )
        records.append(metrics)
    return clients, server, records, fs_weights


# ------------------------------------------------------- reference data

# The data references share none of data's helpers: they draw from the same
# RNG stream, in the same calls, but compute with code of their own.


def reference_circle_means(num_classes, dim, radius):
    """Class means on a circle in the first two coordinates, a class at a time."""
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        angle = 2.0 * np.pi * c / num_classes
        means[c, 0] = radius * np.cos(angle)
        if dim > 1:
            means[c, 1] = radius * np.sin(angle)
    return means


def reference_dirichlet(alpha, size, rng):
    """Dirichlet(alpha) shares: size Gamma(alpha, 1) draws from one rng.gamma
    call, each over their total; when every draw underflows to 0, all of the
    mass on one client, drawn by rng.integers. The callers' alphas (at most
    10) never reach the scaling data applies to huge draws."""
    g = rng.gamma(alpha, 1.0, size)
    total = g.sum()
    if total == 0:
        shares = np.zeros(size)
        shares[rng.integers(size)] = 1.0
        return shares
    return np.array([x / total for x in g])


def reference_largest_remainder(shares, total):
    """Largest-remainder apportionment of total items in plain loops: floor
    every quota, then hand one more item to the largest remaining fraction,
    the earliest on a tie, until total items are dealt."""
    s = np.asarray(shares, dtype=float).sum()
    quotas = [float(x) / s * total for x in shares]
    counts = [math.floor(q) for q in quotas]
    fractions = [q - k for q, k in zip(quotas, counts)]
    for _ in range(total - sum(counts)):
        best = max(range(len(counts)), key=lambda i: (fractions[i], -i))
        counts[best] += 1
        fractions[best] = -math.inf
    return np.array(counts, dtype=int)


def reference_make_blobs(num_classes, per_class, dim, spread, seed):
    """make_blobs with one noise draw per class, written into each class's rows."""
    rng = np.random.default_rng(seed)
    means = reference_circle_means(num_classes, dim, 3.0 * spread)
    X = np.empty((num_classes * per_class, dim))
    y = np.empty(num_classes * per_class, dtype=int)
    for c in range(num_classes):
        rows = slice(c * per_class, (c + 1) * per_class)
        X[rows] = means[c] + spread * rng.standard_normal((per_class, dim))
        y[rows] = c
    return data.Dataset(X, y, num_classes)


def reference_partition_pra(ds, num_clients, alpha, rng):
    """Dirichlet shares per category, dealt from each class's permutation
    with a running cursor into per-client lists of indices."""
    per_client = [[] for _ in range(num_clients)]
    for c in range(ds.num_classes):
        idx = ds.class_indices(c)
        if idx.size == 0:
            continue
        shares = reference_dirichlet(alpha, num_clients, rng)
        counts = reference_largest_remainder(shares, idx.size)
        shuffled = rng.permutation(idx)
        start = 0
        for k in range(num_clients):
            per_client[k].extend(shuffled[start : start + counts[k]])
            start += counts[k]
    return [ds.subset(np.sort(np.asarray(ix, dtype=int))) for ix in per_client]


def reference_partition_pat(ds, num_clients, categories_per_client, rng):
    """Shard dealing with a running cursor into per-client lists of indices."""
    C = ds.num_classes
    cpc = categories_per_client
    if cpc > C:
        raise ValueError(f"categories_per_client {cpc} exceeds {C} categories")
    total_slots = num_clients * cpc
    if total_slots % C != 0:
        raise ValueError(f"cannot deal {C} categories evenly")
    shards_per_cat = total_slots // C
    counts = ds.class_counts()
    if any(counts[c] < shards_per_cat for c in range(C)):
        raise ValueError("some category has fewer samples than its shards")
    cat_perm = rng.permutation(C)
    client_perm = rng.permutation(num_clients)
    holders = [[] for _ in range(C)]
    for k in range(num_clients):
        for j in range(cpc):
            cat = cat_perm[(k * cpc + j) % C]
            holders[cat].append(client_perm[k])
    per_client = [[] for _ in range(num_clients)]
    for c in range(C):
        idx = rng.permutation(ds.class_indices(c))
        sizes = reference_largest_remainder(reference_dirichlet(1.0, shards_per_cat, rng), idx.size)
        while (sizes == 0).any():
            sizes[int(np.argmax(sizes == 0))] += 1
            sizes[int(np.argmax(sizes))] -= 1
        start = 0
        for s, k in enumerate(holders[c]):
            per_client[k].extend(idx[start : start + sizes[s]])
            start += sizes[s]
    return [ds.subset(np.sort(np.asarray(ix, dtype=int))) for ix in per_client]


def reference_apply_longtail(ds, imbalance_factor, seed):
    """Long-tail subsample collected sample by sample into one list."""
    C = ds.num_classes
    if C == 1 or imbalance_factor == 1:
        return ds.subset(np.arange(len(ds)))
    rng = np.random.default_rng(seed)
    n_max = int(ds.class_counts().max())
    keep = []
    for c in range(C):
        idx = ds.class_indices(c)
        if idx.size == 0:
            continue
        target = max(1, int(round(n_max * imbalance_factor ** (-c / (C - 1)))))
        target = min(target, idx.size)
        keep.extend(rng.permutation(idx)[:target])
    return ds.subset(np.sort(np.asarray(keep, dtype=int)))


def reference_train_test_split(ds, train_fraction, seed):
    """Stratified split collected sample by sample into two lists."""
    n = len(ds)
    rng = np.random.default_rng(seed)
    total_train = int(round(train_fraction * n))
    counts = ds.class_counts()
    if n == 0 or total_train == 0:
        return ds.subset([]), ds.subset(np.arange(n))
    train_counts = reference_largest_remainder(counts / n, total_train)
    train_idx, test_idx = [], []
    for c in range(ds.num_classes):
        idx = rng.permutation(ds.class_indices(c))
        train_idx.extend(idx[: train_counts[c]])
        test_idx.extend(idx[train_counts[c] :])
    return (
        ds.subset(np.sort(np.asarray(train_idx, dtype=int))),
        ds.subset(np.sort(np.asarray(test_idx, dtype=int))),
    )


# ------------------------------------------------------- resume


def rounds_until(cfg, state, until):
    """runner.train's round loop, from state (strategy, clients, server,
    protos, part_rng, records) up to round `until`; returns the new state."""
    strategy, clients, server, protos, part_rng, records = state
    for rnd in range(len(records), until):
        clients, server, protos, metrics = baselines.strategy_round(
            strategy, clients, server, protos, rnd, cfg.participation_rate,
            part_rng, records[-1] if records else None, cfg.comm_convention,
        )
        records = records + [metrics]
    return strategy, clients, server, protos, part_rng, records


def resume(stdin, stdout):
    """Read a pickled [(cfg, start)], run each start to cfg.rounds and write
    a pickled [(clients, server, records, part_rng)]. A start is a fresh
    world, run by runner.train, or a rounds_until state."""
    out = []
    for cfg, start in pickle.load(stdin):
        if isinstance(start, runner.World):
            clients, server, records = runner.train(cfg, start)
            out.append((clients, server, records, start.part_rng))
        else:
            _, clients, server, _, part_rng, records = rounds_until(cfg, start, cfg.rounds)
            out.append((clients, server, records, part_rng))
    pickle.dump(out, stdout)


# ------------------------------------------------------- time limit


class TookTooLong(Exception):
    """A time_limit ran out."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TookTooLong inside the block once seconds of wall-clock time
    have passed, so that a hang fails its test instead of stalling the
    suite. Uses SIGALRM on the calling (main) thread."""

    def expire(signum, frame):
        raise TookTooLong(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
