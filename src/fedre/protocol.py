"""The client and server steps of a FedRE round, and their accounting.

Client steps: adopt the broadcast classifier, fine-tune locally (extractor,
classifier, and learned mapping together), and collapse the mapped training
representations into one entangled packet, a one-row PacketBlock, by
weights strategy_round draws and the client keeps. Server step: train the
shared classifier with soft-label cross-entropy on the uploaded packets,
given as one (n, d) matrix and its (n, num_classes) labels. A client step
computes its loss to check that it is finite; a server step does so only
when a bound on the update's inputs cannot prove every loss finite
(server_update). Every step returns new states and changes none of its
inputs: the training steps draw from a fork of the input's RNG stream
(fork_rng) and return the fork as the new state's stream. Both training
loops hold one epoch's rows: each epoch gathers them into buffers the update
allocates once, and the steps read them through batch views made once.
baselines.strategy_round runs the steps as one round; it calls
evaluate_client only on the clients that round trained.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nets
from .entangle import (
    FC,
    RMSpec,
    RepresentationSet,
    entangle,
    rm_apply,
    rm_backward,
)
from .nets import DivergedError, ShapeError

REPRESENTATION_ONLY = "representation_only"
REPRESENTATION_PLUS_LABEL = "representation_plus_label"
CONVENTIONS = (REPRESENTATION_ONLY, REPRESENTATION_PLUS_LABEL)
_FORK_SEED = np.random.SeedSequence(0)  # fork_rng seeds from this, then overwrites it
_LOSS_CEILING = 1e300  # far below float overflow (1.8e308): room for rounding


@dataclass(eq=False)
class ClientState:
    client_id: int
    extractor: nets.DenseNet
    rm: RMSpec
    classifier: nets.DenseNet
    train: object  # data.Dataset
    test: object
    rng: np.random.Generator
    lr: float
    batch_size: int
    epochs: int
    weights: np.ndarray | None = None  # fedre fs: entangling weights, drawn once, never uploaded


@dataclass(eq=False)
class ServerState:
    classifier: nets.DenseNet
    rng: np.random.Generator
    lr: float
    batch_size: int
    epochs: int


@dataclass
class CommLedger:
    """Per-round upload/broadcast scalar counts."""

    convention: str = REPRESENTATION_ONLY
    upload_history: list = field(default_factory=list)
    broadcast_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown comm convention {self.convention!r}")

    def add_round(self, upload, broadcast):
        if upload < 0 or broadcast < 0:
            raise ValueError("scalar counts must be nonnegative")
        self.upload_history.append(int(upload))
        self.broadcast_history.append(int(broadcast))


@dataclass
class RoundMetrics:
    mean_acc: float
    per_client_acc: list
    upload_scalars: int
    broadcast_scalars: int

    def to_record(self, round_index):
        return {
            "round": int(round_index),
            "mean_acc": self.mean_acc,
            "per_client_acc": self.per_client_acc,
            "upload_scalars": self.upload_scalars,
            "broadcast_scalars": self.broadcast_scalars,
        }


def count_round(ledger, num_clients, unified_dim, num_classes):
    """Account one fedre round: a packet up and a classifier down per client.

    The counts come from baselines.ledger_for's closed form, under the
    ledger's convention: the reference a round's counted traffic is checked
    against, not the engine's formula.
    """
    from . import baselines  # imported here: baselines imports this module

    if num_clients < 0:
        raise ValueError("num_clients must be nonnegative")
    fedre = baselines.Strategy(baselines.FEDRE)
    ledger.add_round(
        *baselines.ledger_for(
            fedre, num_clients, unified_dim, num_classes, convention=ledger.convention
        )
    )
    return ledger


def fork_rng(rng):
    """A new generator in rng's state: drawing from it leaves rng as it is."""
    fork = np.random.Generator(type(rng.bit_generator)(_FORK_SEED))
    fork.bit_generator.state = rng.bit_generator.state
    return fork


def _epoch_orders(rng, n, epochs):
    """Every epoch's shuffle of range(n), shape (epochs, n), from one draw:
    the orders, and the state rng is left in, of one rng.permutation(n)
    per epoch."""
    return rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)


def _require_finite(values, what):
    """Non-finite activations mean the parameters behind them diverged."""
    if not np.isfinite(values).all():
        raise DivergedError(f"{what} turned non-finite; training diverged")


def make_extractor(input_dim, hidden_sizes, rng):
    sizes = [input_dim] + list(hidden_sizes)
    return nets.init_dense(sizes, [nets.RELU] * (len(sizes) - 1), rng)


def make_classifier(unified_dim, num_classes, rng):
    return nets.init_dense([unified_dim, num_classes], [nets.IDENTITY], rng)


def client_representation_set(client):
    """Raw representations of the client's training samples, current extractor."""
    reps, _ = nets.forward_pass(client.extractor, client.train.X)
    _require_finite(reps, "representations")
    onehot = nets.one_hot_matrix(client.train.y, client.classifier.output_dim)
    return RepresentationSet(reps, onehot)


def local_gradients(extractor, rm, classifier, Xb, targets, proto_reg, lr):
    """One SGD step of the composed net on one minibatch; returns its loss.

    The client loop's per-step function: it runs on the nets kernels and
    checks only that the representations it computes and the loss are finite
    (Xb comes from a validated Dataset), the loss before any backward.
    proto_reg, when not None, is (lam, prototype_rows, mask): a pull of the
    mapped representations toward per-category prototypes, added to the
    cross-entropy. Rows without a prototype carry a zero mask. Every net
    (an fc mapping's too) is stepped in place by lr, a 0-d array, inside its
    backward, one layer's gradient at a time; no gradient is kept.
    """
    n = Xb.shape[0]
    reps, ext_cache = nets._forward(extractor, Xb)
    _require_finite(reps, "representations")
    mapped, rm_cache = rm_apply(reps, rm, classifier.input_dim)
    _require_finite(mapped, "mapped representations")
    logits, cls_cache = nets._forward(classifier, mapped)
    loss, grad_logits = nets._ce(logits, targets)
    if proto_reg is not None:
        lam, proto_rows, mask = proto_reg
        diffs = (mapped - proto_rows) * mask[:, None]
        loss += lam * float((diffs**2).sum()) / n
    if not math.isfinite(loss):
        raise DivergedError("local loss is non-finite")
    grad_mapped = nets._backward(classifier, cls_cache, grad_logits, lr=lr)[1]
    if proto_reg is not None:
        grad_mapped += (2.0 * lam / n) * diffs
    grad_reps = rm_backward(grad_mapped, rm, rm_cache, lr=lr)
    nets._backward(extractor, ext_cache, grad_reps, input_grad=False, lr=lr)
    return loss


def client_local_update(client, global_classifier, proto_reg=None):
    """Sync the broadcast classifier (if any), then run local SGD epochs.

    proto_reg is (lam, {category: prototype}) for prototype-regularized
    training. Returns a new ClientState and leaves the input and the
    broadcast unchanged: the batches are shuffled by a fork of the input's
    stream, which becomes the new state's stream, and training steps a
    clone of the broadcast classifier (else of the client's own). The
    one-hot targets and prototype rows are built once per update; every
    epoch's order comes from one draw (_epoch_orders). Each epoch gathers
    its rows into buffers the update allocates once, so the update holds
    one epoch's rows, and the steps read them through batch views made
    once per update. Every step is one local_gradients call that checks
    its loss, then steps private clones of the nets in place inside the
    backward, one layer's gradient at a time; their parameters are checked
    once, at the end.
    """
    synced = client.classifier if global_classifier is None else global_classifier
    if (synced.input_dim, synced.output_dim) != (
        client.classifier.input_dim, client.classifier.output_dim
    ):
        raise ShapeError("broadcast classifier dimensions do not match")
    if len(client.train) == 0:
        raise ValueError(f"client {client.client_id} has no training samples")
    extractor, classifier = nets.clone(client.extractor), nets.clone(synced)
    rm = RMSpec(FC, nets.clone(client.rm.net)) if client.rm.kind == FC else client.rm
    rng = fork_rng(client.rng)
    n = len(client.train)
    y = client.train.y
    onehot = nets.one_hot_matrix(y, classifier.output_dim)
    if proto_reg is not None:
        lam, protos = proto_reg
        rows = np.zeros((n, classifier.input_dim))
        mask = np.zeros(n)
        for label, proto in protos.items():
            rows[y == label] = proto
            mask[y == label] = 1.0
    bs, lr = client.batch_size, np.array(client.lr, dtype=float)  # see nets._ZERO
    X, T = np.empty(client.train.X.shape), np.empty(onehot.shape)  # one epoch's rows
    gathers = [(client.train.X, X), (onehot, T)]
    if proto_reg is not None:
        P, M = np.empty(rows.shape), np.empty(n)
        gathers += [(rows, P), (mask, M)]
    batches = []  # every step's views into the buffers, made once
    for start in range(0, n, bs):
        batch = slice(start, start + bs)
        reg = None if proto_reg is None else (lam, P[batch], M[batch])
        batches.append((X[batch], T[batch], reg))
    for order in _epoch_orders(rng, n, client.epochs):
        for source, buffer in gathers:
            # gathered in place; "clip" (order is in range) spares take a buffer
            source.take(order, axis=0, out=buffer, mode="clip")
        for Xb, Tb, reg in batches:
            local_gradients(extractor, rm, classifier, Xb, Tb, reg, lr)
    trained = [extractor, classifier] + ([rm.net] if rm.kind == FC else [])
    nets._check_trained(*trained)
    return replace(client, extractor=extractor, classifier=classifier, rm=rm, rng=rng)


def client_make_packet(client, weights):
    """Collapse the client's training set into one entangled packet.

    weights is the caller's normalized vector over the training samples.
    Returns the one-row PacketBlock; the weights are not part of it.
    """
    if len(client.train) == 0:
        raise ValueError(f"client {client.client_id} has no training samples")
    rep_set = client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, client.classifier.input_dim)
    return entangle(mapped, rep_set.labels_onehot, weights)


def _losses_bounded(server, reps, labels):
    """True when no step of server_update on these inputs can compute a
    non-finite loss. False on any NaN or inf, and for a classifier other
    than make_classifier's one identity layer (W, b).

    The bound is a priori and in Python floats, so nothing warns. Softmax
    probabilities lie in [0, 1], so with x = max|reps| and t = max|labels| a
    step moves each entry of W by at most lr (1 + t) x and of b by at most
    lr (1 + t). Over S steps every logit stays within
    Z = (max|b| + S lr (1 + t)) + d (max|W| + S lr (1 + t) x) x, and a row
    loss log(sum(exp(z - max z))) + max z - labels.z within
    log(C) + (1 + tau) Z, tau the largest row sum of |labels|. A batch sums
    at most min(n, batch_size) rows; below _LOSS_CEILING that sum is finite
    whatever the rounding.
    """
    layers = server.classifier.layers
    if len(layers) != 1 or layers[0].activation != nets.IDENTITY:
        return False
    n, d = reps.shape
    num_classes = labels.shape[1]
    t = float(np.abs(labels).max())
    if not t * num_classes < _LOSS_CEILING:  # keeps the row sums below finite
        return False
    tau = float(np.add.reduce(np.abs(labels), axis=1).max())
    x = float(np.abs(reps).max())
    steps = server.epochs * -(-n // server.batch_size)
    move = steps * abs(float(server.lr)) * (1.0 + t)  # b's; W's is move * x
    w, b = (float(np.abs(a).max()) for a in (layers[0].weight, layers[0].bias))
    z = (b + move) + d * (w + move * x) * x
    rows = min(n, server.batch_size)
    return rows * (math.log(num_classes) + (1.0 + tau) * z) < _LOSS_CEILING


def server_update(server, reps, labels):
    """Train the shared classifier on the uploaded packets.

    reps (n, d) and labels (n, num_classes) hold one packet per row, the
    participants' upload blocks concatenated. The steps update a private
    clone of the classifier in place; its parameters are checked once, at
    the end. The batches are shuffled by a fork of the server's stream,
    which becomes the new state's stream, so the input is left unchanged.
    Each epoch gathers its rows into one buffer the update allocates once,
    so the update holds one epoch's rows, read through batch views made
    once per update.

    A step computes its loss only to check, before the backward, that it is
    finite (DivergedError). When _losses_bounded proves every loss of the
    update finite, that check can never fire, so the steps skip the loss
    and run directly on the classifier's one layer: the operations of
    nets._forward, _ce, _backward and _step, in their order. The parameters
    and the stream end bitwise as in the checked steps, and DivergedError
    is raised exactly when they raise it.
    """
    reps = np.asarray(reps, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n = len(reps)
    if n == 0:
        raise ValueError("server_update needs at least one packet")
    d, num_classes = server.classifier.input_dim, server.classifier.output_dim
    if reps.shape != (n, d) or labels.shape != (n, num_classes):
        raise ShapeError("packet dimensions do not match the classifier")
    _require_finite(reps, "uploaded packets")
    classifier = nets.clone(server.classifier)
    rng = fork_rng(server.rng)
    bs, lr = server.batch_size, np.array(server.lr, dtype=float)  # see nets._ZERO
    orders = _epoch_orders(rng, n, server.epochs)
    bounded = _losses_bounded(server, reps, labels)
    layer = classifier.layers[0]  # the only one when bounded
    W, b = layer.weight, layer.bias  # stepped in place, so read once
    R, Y = np.empty((n, d)), np.empty((n, num_classes))  # one epoch's rows
    batches = [(R[start : start + bs], Y[start : start + bs]) for start in range(0, n, bs)]
    for order in orders:
        # gathered in place; "clip" (order is in range) spares take a buffer
        reps.take(order, axis=0, out=R, mode="clip")
        labels.take(order, axis=0, out=Y, mode="clip")
        for Rb, Yb in batches:
            if bounded:  # nets._forward, _ce without the loss, _backward
                z = Rb @ W.T
                z += b
                _, g = nets._ce(z, Yb, with_loss=False)
                nets._step(layer, g.T @ Rb, np.add.reduce(g, axis=-2), lr)
            else:
                out, cache = nets._forward(classifier, Rb)
                loss, grad_out = nets._ce(out, Yb)
                if not math.isfinite(loss):
                    raise DivergedError("server loss is non-finite")
                nets._backward(classifier, cache, grad_out, input_grad=False, lr=lr)
    nets._check_trained(classifier)
    return replace(server, classifier=classifier, rng=rng)


def evaluate_client(client):
    """Argmax accuracy on the client's test set (None when it is empty)."""
    if len(client.test) == 0:
        return None
    reps, _ = nets.forward_pass(client.extractor, client.test.X)
    _require_finite(reps, "test representations")
    mapped, _ = rm_apply(reps, client.rm, client.classifier.input_dim)
    _require_finite(mapped, "mapped test representations")
    logits, _ = nets.forward_pass(client.classifier, mapped)
    pred = logits.argmax(axis=1)  # ties resolve to the lowest class index
    return float((pred == client.test.y).mean())


def mean_accuracy(per_client):
    scored = [a for a in per_client if a is not None]
    return float(np.mean(scored)) if scored else float("nan")


def participation_sample(clients, rate, rng):
    """Uniform without-replacement draw of ceil(rate * K) clients, at least one.

    The ceiling is of the rate as written: rate * K is rounded to 9 decimals
    first, so a product that rounds just above an integer (0.07 * 100 is
    7.000000000000001) does not draw one client too many.
    """
    if not clients:
        raise ValueError("no clients to sample from")
    if rate == 1.0:
        return list(clients)
    k = max(1, math.ceil(round(rate * len(clients), 9)))
    chosen = rng.choice(len(clients), size=k, replace=False)
    return [clients[i] for i in sorted(chosen)]
