"""The round engine and the upload strategies it runs.

One round: clients train and upload packets, the server trains on them (or
averages them), the trained clients are scored, and the round's metrics
count the traffic from what is sent. A round changes none of its inputs:
it returns every state it changes. A client uploads one PacketBlock of k
packets, one per row, reps and labels and nothing else (a fedre client's
entangled packet is a one-row block; its weights stay on the client), and
the server gets the participants' blocks concatenated. A client that sat
the round out is unchanged and keeps its previous score.
Five upload policies share that round:

  local          no uploads (k = 0), no broadcast; clients train alone
  fed_all_rep    one packet per training sample (upper communication bound)
  fedgh_style    one one-hot prototype packet per present category
  fedproto_style prototypes averaged server-side, no classifier training;
                 the averaged prototypes regularize local training
  fedre          one entangled packet per client; weights re-sampled each
                 round (rs) or frozen from the first packet onward (fs),
                 kept on the client as ClientState.weights
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .entangle import PacketBlock, ReMechanism, compute_prototypes, re_weights, rm_apply
from .nets import one_hot_matrix
from .protocol import (
    REPRESENTATION_PLUS_LABEL,
    RoundMetrics,
    client_local_update,
    client_make_packet,
    client_representation_set,
    evaluate_client,
    fork_rng,
    mean_accuracy,
    participation_sample,
    server_update,
)

LOCAL = "local"
FED_ALL_REP = "fed_all_rep"
FEDGH_STYLE = "fedgh_style"
FEDPROTO_STYLE = "fedproto_style"
FEDRE = "fedre"
STRATEGIES = (LOCAL, FED_ALL_REP, FEDGH_STYLE, FEDPROTO_STYLE, FEDRE)

RESAMPLED = "rs"
FIXED = "fs"
RESAMPLE_MODES = (RESAMPLED, FIXED)

# strategies whose server trains and broadcasts the shared classifier
_CLASSIFIER_STRATEGIES = (FED_ALL_REP, FEDGH_STYLE, FEDRE)


@dataclass
class Strategy:
    """An upload policy's configuration; rounds read it and never change it."""

    kind: str = FEDRE
    mech: ReMechanism = field(default_factory=ReMechanism)
    resample: str = RESAMPLED
    lambda_proto: float = 0.1


def packets_for(strategy, client, weights):
    """The PacketBlock this client uploads under the given strategy.

    weights is a fedre client's entangling vector; no strategy draws here.
    """
    d, num_classes = client.classifier.input_dim, client.classifier.output_dim
    if strategy.kind == LOCAL:
        return PacketBlock(np.zeros((0, d)), np.zeros((0, num_classes)))
    if strategy.kind == FEDRE:
        return client_make_packet(client, weights)
    rep_set = client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, d)
    if strategy.kind == FED_ALL_REP:
        return PacketBlock(mapped, rep_set.labels_onehot)
    if strategy.kind in (FEDGH_STYLE, FEDPROTO_STYLE):  # one prototype per present category
        protos = compute_prototypes(mapped, client.train.y)
        return PacketBlock(
            np.stack([p for _, p in protos]),
            one_hot_matrix([c for c, _ in protos], num_classes),
        )
    raise ValueError(f"unknown strategy {strategy.kind!r}")


def ledger_for(
    strategy, num_clients, unified_dim, num_classes, per_client_stats=None, convention=None
):
    """(upload, broadcast) scalar counts for one round of a strategy, in
    closed form: the reference strategy_round's counts are checked against.

    per_client_stats is [(n_samples, n_categories)] for the participating
    clients; it is required for the strategies whose upload volume depends
    on local set sizes. fedproto_style's broadcast is the round's averaged
    prototypes, so it has no closed form here.
    """
    if strategy.kind == LOCAL:
        return 0, 0
    if strategy.kind == FEDPROTO_STYLE:
        raise ValueError("fedproto_style's broadcast depends on the round's prototypes")
    plus_label = convention == REPRESENTATION_PLUS_LABEL
    per_packet = unified_dim + (num_classes if plus_label else 0)
    classifier_scalars = unified_dim * num_classes + num_classes
    if strategy.kind == FEDRE:
        return num_clients * per_packet, num_clients * classifier_scalars
    if per_client_stats is None or len(per_client_stats) != num_clients:
        raise ValueError(
            f"{strategy.kind} accounting needs per-client stats for all "
            f"{num_clients} participants"
        )
    if strategy.kind == FED_ALL_REP:
        upload = sum(n for n, _ in per_client_stats) * per_packet
        return upload, num_clients * classifier_scalars
    if strategy.kind == FEDGH_STYLE:
        upload = sum(cats for _, cats in per_client_stats) * per_packet
        return upload, num_clients * classifier_scalars
    raise ValueError(f"unknown strategy {strategy.kind!r}")


def strategy_round(
    strategy,
    clients,
    server,
    global_protos,
    round_index,
    participation_rate,
    part_rng,
    previous,
    convention,
):
    """One round under any strategy.

    previous is the RoundMetrics of the round that produced clients: a
    client this round does not train keeps its score from there. Without
    it, every client is scored. Returns (clients, server, global_protos,
    RoundMetrics). The traffic is counted from what is sent: every scalar
    of the participants' blocks (their labels only under convention
    representation_plus_label), and per participant, the trained
    classifier's parameters or fedproto's averaged prototypes. A fedre
    participant without weights (each rs round, an fs client's first)
    draws them from its trained stream, here and nowhere else.

    The round changes none of its inputs, so an aborted round commits
    nothing. Trained clients and the server come back with their own forked
    RNG streams, and a fedre fs client with its frozen weights. The
    participants are drawn from a fork of part_rng, and the round's last
    statement, once nothing can abort, writes the fork's state back.
    """
    if not clients:
        raise ValueError("strategy_round needs at least one client")
    if previous is not None and len(previous.per_client_acc) != len(clients):
        raise ValueError("previous round scored a different number of clients")
    protos = dict(global_protos)
    sampler = fork_rng(part_rng)
    pool = [c for c in clients if len(c.train) > 0]
    participants = participation_sample(pool, participation_rate, sampler)
    broadcast = strategy.kind in _CLASSIFIER_STRATEGIES
    proto_reg = (strategy.lambda_proto, protos) if strategy.kind == FEDPROTO_STYLE else None
    updated = {}
    blocks = []
    for c in participants:
        trained = client_local_update(
            c, server.classifier if broadcast else None, proto_reg=proto_reg
        )
        weights = trained.weights
        if strategy.kind == FEDRE and weights is None:
            weights = re_weights(trained.train.y, strategy.mech, trained.rng)
            if strategy.resample == FIXED:
                trained = replace(trained, weights=weights)
            elif strategy.resample != RESAMPLED:
                raise ValueError(f"unknown resample mode {strategy.resample!r}")
        blocks.append(packets_for(strategy, trained, weights))
        updated[trained.client_id] = trained
    new_server = server
    if strategy.kind != LOCAL:
        reps = np.concatenate([b.reps for b in blocks])
        labels = np.concatenate([b.labels for b in blocks])
        if broadcast:
            new_server = server_update(server, reps, labels)
        else:
            protos = dict(compute_prototypes(reps, labels.argmax(axis=1)))
    plus_label = convention == REPRESENTATION_PLUS_LABEL
    upload = sum(b.reps.size + (b.labels.size if plus_label else 0) for b in blocks)
    if broadcast:
        sent = sum(layer.weight.size + layer.bias.size for layer in new_server.classifier.layers)
    else:  # fedproto's averaged prototypes; local has none
        sent = sum(p.size for p in protos.values())
    down = len(participants) * sent
    new_clients = [updated.get(c.client_id, c) for c in clients]
    accs = [
        evaluate_client(c)
        if previous is None or c.client_id in updated
        else previous.per_client_acc[i]
        for i, c in enumerate(new_clients)
    ]
    metrics = RoundMetrics(mean_accuracy(accs), accs, upload, down)
    part_rng.bit_generator.state = sampler.bit_generator.state
    return new_clients, new_server, protos, metrics
