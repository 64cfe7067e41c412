"""Seeded experiment runs, aggregation, and metric export.

Every random choice in a run flows from one master seed through a fixed
SeedSequence spawn order (dataset, partition, per-client splits, server,
participation, attack, per-client init+stream), so replaying a config and
seed reproduces traces bit for bit. Each entry point builds every seed's
world (build_worlds), so a config error raises before any seed trains, then
runs the seeds one after another in one loop (_run_seeds); a seed that
aborts is marked failed without touching the others. A world holds data,
streams and each client's init seed; its client nets are drawn, in one
place (init_clients), when its seed starts training. A seed runs under
np.errstate(all="ignore"): a diverging seed reports its failure through
failed_seeds and SeedTrace.error, not through numpy warnings.
"""

import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, data, nets, protocol
from .config import ConfigError, parse_config
from .entangle import FC, ReMechanism, RMSpec, compute_prototypes, re_weights, rm_apply
from .inversion import (
    InversionResult,
    dataset_range,
    draw_starts,
    invert_multi,
    score,
)
from .protocol import ClientState, ServerState


@dataclass(eq=False)
class World:
    clients: list
    server: ServerState
    strategy: baselines.Strategy
    part_rng: np.random.Generator
    attack_seed: object
    init_seeds: list  # each client's SeedSequence for its nets (init_clients)


@dataclass
class SeedTrace:
    seed: int
    records: list  # RoundMetrics per round
    final_mean_acc: float
    error: str | None = None  # "Type: message" when the seed failed

    failed = property(lambda self: self.error is not None)


@dataclass
class RunSummary:
    traces: list  # SeedTrace per seed
    mean_acc: float
    std_acc: float
    failed_seeds: list

    def _total(self, scalars):
        """The first seed that did not fail: its scalars summed over rounds."""
        ok = next((t for t in self.traces if not t.failed), None)
        return sum(getattr(m, scalars) for m in ok.records) if ok else 0

    upload_total = property(lambda self: self._total("upload_scalars"))
    broadcast_total = property(lambda self: self._total("broadcast_scalars"))


def _spawn_streams(seed, num_clients):
    root = np.random.SeedSequence(seed)
    names = ("dataset", "partition", "splits", "server", "participation", "attack", "clients")
    children = dict(zip(names, root.spawn(len(names))))
    children["splits"] = children["splits"].spawn(num_clients)
    children["clients"] = [ss.spawn(2) for ss in children["clients"].spawn(num_clients)]
    return children


_MAX_WEIGHTS = sys.maxsize // 8  # the most float64s one numpy array can hold


def build_world(cfg, seed):
    """One seed's data, streams, server and strategy, with None where each
    client's nets go: init_clients draws them from world.init_seeds.

    Raises ConfigError when the dataset cannot be read or partitioned as
    configured, when a layer of a client's nets would not fit in one array,
    or when no client gets a training sample.
    """
    streams = _spawn_streams(seed, cfg.num_clients)
    d = cfg.dataset
    try:
        if d.kind == "csv":
            ds = data.load_csv(d.path)
        else:
            ds = data.make_blobs(d.classes, d.per_class, d.dim, d.spread, streams["dataset"])
    except OSError as e:
        raise ConfigError(f"cannot read dataset.path: {e}") from e
    except ValueError as e:
        raise ConfigError(f"bad dataset: {e}") from e
    try:
        parts = data.partition(ds, cfg.partition, cfg.num_clients, streams["partition"])
    except ValueError as e:
        # the config asks for what its data cannot supply, e.g. a pat deal
        raise ConfigError(f"dataset and partition do not fit: {e}") from e
    for k, hidden in enumerate(cfg.architectures):
        sizes = [ds.dim, *hidden] + ([cfg.unified_dim] if cfg.rm_op == FC else [])
        layers = [*zip(sizes, sizes[1:]), (cfg.unified_dim, ds.num_classes)]  # and the classifier
        weights = max(a * b for a, b in layers)
        if weights > _MAX_WEIGHTS:
            raise ConfigError(
                f"architectures[{k}], unified_dim and {ds.num_classes} classes give client {k} "
                f"a layer of {weights} weights; one array holds at most {_MAX_WEIGHTS}"
            )
    clients = []
    for k in range(cfg.num_clients):
        train, test = data.train_test_split(
            parts[k], cfg.train_fraction, streams["splits"][k]
        )
        clients.append(ClientState(
            client_id=k, extractor=None, rm=None, classifier=None, train=train, test=test,
            rng=np.random.default_rng(streams["clients"][k][1]),
            lr=cfg.client_lr, batch_size=cfg.client_batch_size, epochs=cfg.client_epochs,
        ))
    if not any(len(c.train) for c in clients):
        raise ConfigError(
            f"no client holds a training sample at train_fraction {cfg.train_fraction}"
        )
    server_init, server_stream = streams["server"].spawn(2)
    server = ServerState(
        classifier=protocol.make_classifier(
            cfg.unified_dim, ds.num_classes, np.random.default_rng(server_init)
        ),
        rng=np.random.default_rng(server_stream),
        lr=cfg.server_lr,
        batch_size=cfg.server_batch_size,
        epochs=cfg.server_epochs,
    )
    strategy = baselines.Strategy(
        kind=cfg.strategy,
        mech=ReMechanism(cfg.mechanism, cfg.weight_distribution),
        resample=cfg.resample,
        lambda_proto=cfg.lambda_proto,
    )
    return World(
        clients=clients,
        server=server,
        strategy=strategy,
        part_rng=np.random.default_rng(streams["participation"]),
        attack_seed=streams["attack"],
        init_seeds=[init_ss for init_ss, _ in streams["clients"]],
    )


def init_clients(cfg, world):
    """world's clients with their nets drawn, world left as it was.

    The one place client nets are drawn: each client's extractor, then its
    fc mapping (under fc), then its classifier, from a generator on its
    init seed. So every call draws the same nets.
    """
    num_classes = world.server.classifier.output_dim
    clients = []
    for client, init_ss, hidden in zip(world.clients, world.init_seeds, cfg.architectures):
        rng = np.random.default_rng(init_ss)
        extractor = protocol.make_extractor(client.train.dim, hidden, rng)
        fc_net = None
        if cfg.rm_op == FC:
            fc_net = nets.init_dense([hidden[-1], cfg.unified_dim], [nets.IDENTITY], rng)
        classifier = protocol.make_classifier(cfg.unified_dim, num_classes, rng)
        clients.append(
            replace(client, extractor=extractor, rm=RMSpec(cfg.rm_op, fc_net), classifier=classifier)
        )
    return clients


def train(cfg, world):
    """Draw a fresh world's client nets (init_clients), then run cfg's rounds.

    Returns (clients, server, records), with the clients and server as the
    last round left them and one RoundMetrics per round, which also carries
    the round's traffic. Each round gets the previous one's outputs and
    metrics, so it re-scores only the clients it trained. world's clients
    and server are left as they were; only world.part_rng advances.
    """
    clients, server = init_clients(cfg, world), world.server
    records = []
    protos = {}
    for rnd in range(cfg.rounds):
        clients, server, protos, metrics = baselines.strategy_round(
            world.strategy, clients, server, protos, rnd, cfg.participation_rate,
            world.part_rng, records[-1] if records else None, cfg.comm_convention,
        )
        records.append(metrics)
    return clients, server, records


def build_worlds(cfg):
    """[(seed, world)] for each of cfg's seeds, in order. Every world is
    built, and so every ConfigError raised, before any seed trains."""
    return [(seed, build_world(cfg, seed)) for seed in cfg.seeds]


def _run_seeds(worlds, fn):
    """The one loop over seeds: fn(world) for each (seed, world) in turn.

    Returns [(seed, result, error)]. A seed whose fn raises RuntimeError is
    failed: result None, error "Type: message"; the other seeds go on.
    """
    out = []
    for seed, world in worlds:
        try:
            with np.errstate(all="ignore"):
                out.append((seed, fn(world), None))
        except RuntimeError as e:
            out.append((seed, None, f"{type(e).__name__}: {e}"))
    return out


def run_experiment(cfg):
    """Run every seed; failed seeds are recorded, not fatal."""
    return _experiment(cfg, build_worlds(cfg))


def _experiment(cfg, worlds):
    def one_seed(world):
        clients, _, records = train(cfg, world)
        if records:
            return records, records[-1].mean_acc
        return records, protocol.mean_accuracy([protocol.evaluate_client(c) for c in clients])

    traces = [
        SeedTrace(seed, *result) if error is None
        else SeedTrace(seed, [], float("nan"), error)
        for seed, result, error in _run_seeds(worlds, one_seed)
    ]
    ok = [t.final_mean_acc for t in traces if not t.failed]
    return RunSummary(
        traces=traces,
        mean_acc=float(np.mean(ok)) if ok else float("nan"),
        std_acc=float(np.std(ok)) if ok else float("nan"),
        failed_seeds=[t.seed for t in traces if t.failed],
    )


def summary_records(summary):
    """One dict per (seed, round), in run order, seed first."""
    return [
        {"seed": int(trace.seed), **metrics.to_record(rnd)}
        for trace in summary.traces
        for rnd, metrics in enumerate(trace.records)
    ]


def export_records(records, fmt, path):
    """Write records as jsonl, each NaN or infinite float as null so that every
    line is strict JSON, or, per-round records only, as csv; returns the path."""
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown export format {fmt!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "jsonl":
            fh.writelines(json.dumps({
                k: None if isinstance(v, float) and not np.isfinite(v) else v
                for k, v in record.items()
            }) + "\n" for record in records)
        else:
            writer = csv.writer(fh)
            writer.writerow(["seed", "round", "mean_acc", "upload", "broadcast"])
            writer.writerows([
                r["seed"], r["round"], f"{r['mean_acc']:.6g}", r["upload_scalars"],
                r["broadcast_scalars"],
            ] for r in records)
    return path


def apply_override(mapping, dotted_key, value):
    """Set a possibly nested key in a raw config dict."""
    parts = dotted_key.split(".")
    node = mapping
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {p!r} in {dotted_key!r}")
    node[parts[-1]] = value
    return mapping


def run_sweep(base_mapping, dotted_key, values):
    """Re-run the experiment once per override value. Every value's config
    is parsed and its worlds built before the first value runs.

    Returns [(value, ExperimentConfig, RunSummary)].
    """
    built = []
    for value in values:
        mapping = json.loads(json.dumps(base_mapping))
        apply_override(mapping, dotted_key, value)
        cfg = parse_config(mapping)
        built.append((value, cfg, build_worlds(cfg)))
    return [(value, cfg, _experiment(cfg, worlds)) for value, cfg, worlds in built]


TARGET_KINDS = ("raw", "prototype", "entangled")


@dataclass
class InversionStudy:
    results: list  # InversionResult
    mean_mse: dict  # nan for a kind with no attacks
    mean_psnr: dict
    failed_seeds: list

    def records(self):
        keys = ("target_kind", "mse", "psnr", "iterations")
        return [{k: getattr(r, k) for k in keys} for r in self.results]


def _attack_client(inv, world, client):
    """Attack the client's raw, prototype and entangled targets.

    Every draw comes first, in a fixed order: the raw picks, then each raw
    target's starts; the permutation, then each prototype's starts; each
    entangled target's re_weights, then its starts. All starts then descend
    as one stack in one invert_multi call, which returns what each start
    descending alone returns. A diverging start is dropped; a target whose
    starts all diverge raises InversionFailure.
    """
    rng = np.random.default_rng(world.attack_seed)
    rep_set = protocol.client_representation_set(client)
    mapped, _ = rm_apply(rep_set.reps, client.rm, client.classifier.input_dim)
    X, y = client.train.X, client.train.y
    targets, inits = [], []

    def add(kind, target, originals):
        protocol._require_finite(target, f"{kind} target")
        targets.append((kind, target, originals))
        inits.append(draw_starts(client.extractor, rng, inv.restarts, inv.init_scale))

    for i in rng.choice(len(X), size=min(inv.num_targets, len(X)), replace=False):
        add("raw", mapped[i], X[i])
    protos = compute_prototypes(mapped, y)
    for ci in rng.permutation(len(protos))[: inv.num_targets]:
        c, proto = protos[ci]
        add("prototype", proto, X[y == c])
    for _ in range(inv.num_targets):
        w = re_weights(y, world.strategy.mech, rng)
        add("entangled", np.asarray(w @ mapped, dtype=float), X)
    stack = np.stack([t for _, t, _ in targets])
    recs = invert_multi(
        client.extractor, client.rm, stack, inv.steps, inv.lr, np.concatenate(inits)
    )
    peak = inv.data_range if inv.data_range is not None else dataset_range(X)
    return [
        InversionResult(rec, kind, *score(rec, originals, peak), inv.steps)
        for rec, (kind, _, originals) in zip(recs, targets)
    ]


def run_inversion_study(cfg):
    """Train briefly, then attack raw, prototype, and entangled targets.

    For every seed the attacked client is client 0. Raw targets score
    against their single source sample, prototypes against their category's
    samples, entangled packets against the whole local training set. Raises
    ConfigError, before any seed trains, when a seed leaves client 0 without
    training samples. A seed whose training or attack aborts is recorded in
    failed_seeds and contributes no results. The attack descends every
    target of a seed as one stack (see _attack_client).
    """
    worlds = build_worlds(cfg)
    for seed, world in worlds:
        if len(world.clients[0].train) == 0:
            raise ConfigError(
                f"seed {seed}: client 0, the attacked client, has no training samples"
            )

    def attack(world):
        clients, _, _ = train(cfg, world)
        return _attack_client(cfg.inversion, world, clients[0])

    runs = _run_seeds(worlds, attack)
    results = [r for _, found, error in runs if error is None for r in found]
    failed_seeds = [seed for seed, _, error in runs if error is not None]

    def mean_of(attr, kind):
        values = [getattr(r, attr) for r in results if r.target_kind == kind]
        return float(np.mean(values)) if values else float("nan")

    mean_mse = {kind: mean_of("mse", kind) for kind in TARGET_KINDS}
    mean_psnr = {kind: mean_of("psnr", kind) for kind in TARGET_KINDS}
    return InversionStudy(results, mean_mse, mean_psnr, failed_seeds)
