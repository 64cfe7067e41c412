"""The client and server steps of a FedRE round, and their accounting.

Client steps: adopt the broadcast classifier, fine-tune locally (extractor,
classifier, and learned mapping together), and collapse the mapped training
representations into one entangled packet. Server step: train the shared
classifier with soft-label cross-entropy on the uploaded packets, given as
one (n, d) matrix and its (n, num_classes) labels. Every step returns new
states and changes none of its inputs: the training steps draw from a fork
of the input's RNG stream (fork_rng) and return the fork as the new state's
stream. baselines.strategy_round runs the steps as one round; it calls
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
    re_weights,
    rm_apply,
    rm_backward,
)
from .nets import DivergedError, ShapeError

REPRESENTATION_ONLY = "representation_only"
REPRESENTATION_PLUS_LABEL = "representation_plus_label"
CONVENTIONS = (REPRESENTATION_ONLY, REPRESENTATION_PLUS_LABEL)
_FORK_SEED = np.random.SeedSequence(0)  # fork_rng seeds from this, then overwrites it


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
    weights: np.ndarray | None = None  # frozen entangling weights (fedre fs)


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

    The counts come from baselines.ledger_for, the one accounting formula,
    under the ledger's convention.
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
    epoch's order comes from one draw (_epoch_orders), and each epoch
    gathers its rows once and takes its batches as slices. Every step is
    one local_gradients call that checks its loss, then steps private
    clones of the nets in place inside the backward, one layer's gradient
    at a time; their parameters are checked once, at the end.
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
    for order in _epoch_orders(rng, n, client.epochs):
        X, T = client.train.X.take(order, axis=0), onehot.take(order, axis=0)
        if proto_reg is not None:
            P, M = rows.take(order, axis=0), mask.take(order)
        for start in range(0, n, bs):
            batch = slice(start, start + bs)
            reg = None if proto_reg is None else (lam, P[batch], M[batch])
            local_gradients(extractor, rm, classifier, X[batch], T[batch], reg, lr)
    trained = [extractor, classifier] + ([rm.net] if rm.kind == FC else [])
    nets._check_trained(*trained)
    return replace(client, extractor=extractor, classifier=classifier, rm=rm, rng=rng)


def client_make_packet(client, mech, unified_dim, weights=None):
    """Collapse the client's training set into one entangled packet.

    Weights are drawn fresh from the client's RNG stream unless an explicit
    vector is supplied (fixed-sampling replay); the draw advances that
    stream, so strategy_round hands in only a state it has just trained.
    Returns (packet, weights).
    """
    if len(client.train) == 0:
        raise ValueError(f"client {client.client_id} has no training samples")
    rep_set = client_representation_set(client)
    w = re_weights(rep_set, mech, client.rng) if weights is None else weights
    return entangle(rep_set, w, client.rm, unified_dim), w


def server_update(server, reps, labels):
    """Train the shared classifier on the uploaded packets.

    reps (n, d) and labels (n, num_classes) hold one packet per row, the
    participants' upload blocks concatenated. Each step checks its loss,
    then steps a private clone of the classifier in place inside the
    backward (nets._backward); its parameters are checked once, at the end.
    The batches are shuffled by a fork of the server's stream, which becomes
    the new state's stream, so the input is left unchanged. As in the client
    update, each epoch gathers its rows once and slices its batches.
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
    for order in _epoch_orders(rng, n, server.epochs):
        R, Y = reps.take(order, axis=0), labels.take(order, axis=0)
        for start in range(0, n, bs):
            out, cache = nets._forward(classifier, R[start : start + bs])
            loss, grad_out = nets._ce(out, Y[start : start + bs])
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
    """Uniform without-replacement draw of ceil(rate * K) clients."""
    if not clients:
        raise ValueError("no clients to sample from")
    if rate == 1.0:
        return list(clients)
    k = math.ceil(rate * len(clients))
    chosen = rng.choice(len(clients), size=k, replace=False)
    return [clients[i] for i in sorted(chosen)]
