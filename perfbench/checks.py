"""Output checks for the benchmark's runs.

Every check returns a list of problems; an empty list means the output
passed. Per-seed problems count that seed as failed; run-level problems
make the whole run incorrect.
"""

import hashlib
import itertools
import json
import math

import numpy as np

RECORD_KEYS = ("round", "mean_acc", "per_client_acc", "upload_scalars", "broadcast_scalars")
TARGET_KINDS = ("raw", "prototype", "entangled")

# Acceptance check 1's target and band for fedre with fresh draws on the toy
# world, in percent, over presets.toy_comparison_config's default seeds.
TOY_FEDRE_RS_TARGET = 62.00
TOY_BAND = 6.0


def digest(records):
    """SHA-256 of a list of JSON-able records, key order normalised."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def client_stats(world):
    """(train size, categories present) of each client of a built world."""
    return [(len(c.train), int(np.unique(c.train.y).size)) for c in world.clients]


def expected_ledgers(fedre, cfg, strategy, stats):
    """Every (upload, broadcast) pair one round may record.

    The participants are ceil(rate * K) of the K clients that hold training
    data, so under partial participation every subset of that size is
    allowed. A pair must follow both the closed forms written out here and
    fedre's own, baselines.ledger_for and, for fedre, protocol.count_round;
    where those disagree nothing is allowed.
    """
    pool = [s for s in stats if s[0] > 0]
    rate = cfg.participation_rate
    k = len(pool) if rate == 1.0 else math.ceil(rate * len(pool))
    d = cfg.unified_dim
    num_classes = cfg.dataset.classes
    conv = cfg.comm_convention
    per_packet = d + (num_classes if conv == fedre.protocol.REPRESENTATION_PLUS_LABEL else 0)
    classifier = d * num_classes + num_classes
    packets = {
        fedre.baselines.FEDRE: lambda chosen: k,
        fedre.baselines.FED_ALL_REP: lambda chosen: sum(n for n, _ in chosen),
        fedre.baselines.FEDGH_STYLE: lambda chosen: sum(cats for _, cats in chosen),
    }
    if strategy.kind not in packets:
        raise ValueError(f"no closed form here for strategy {strategy.kind!r}")
    subsets = list(itertools.combinations(pool, k))
    closed = {(packets[strategy.kind](chosen) * per_packet, k * classifier) for chosen in subsets}
    program = {
        fedre.baselines.ledger_for(
            strategy, k, d, num_classes, per_client_stats=list(chosen), convention=conv
        )
        for chosen in subsets
    }
    if strategy.kind == fedre.baselines.FEDRE:
        ledger = fedre.protocol.count_round(fedre.protocol.CommLedger(conv), k, d, num_classes)
        program &= {(ledger.upload_history[-1], ledger.broadcast_history[-1])}
    return closed & program


def check_seed_records(records, rounds, num_clients, allowed_ledgers):
    """Problems in one seed's per-round records."""
    problems = []
    if len(records) != rounds:
        problems.append(f"{len(records)} round records, expected {rounds}")
    for i, rec in enumerate(records):
        if tuple(sorted(rec)) != tuple(sorted(RECORD_KEYS)):
            problems.append(f"round {i}: keys {sorted(rec)}")
            continue
        if rec["round"] != i:
            problems.append(f"round {i}: labelled round {rec['round']}")
        accs = rec["per_client_acc"]
        scored = [a for a in accs if a is not None]
        if len(accs) != num_clients or not all(
            math.isfinite(a) and 0.0 <= a <= 1.0 for a in scored
        ):
            problems.append(f"round {i}: per-client accuracies {accs}")
        elif not scored or rec["mean_acc"] != float(np.mean(scored)):
            problems.append(f"round {i}: mean accuracy {rec['mean_acc']} disagrees")
        if (rec["upload_scalars"], rec["broadcast_scalars"]) not in allowed_ledgers:
            problems.append(
                f"round {i}: ledger ({rec['upload_scalars']}, "
                f"{rec['broadcast_scalars']}) not in the closed forms"
            )
    return problems


def check_attacks(results, inversion_cfg, attacked_stats):
    """Problems in one seed's attack results.

    attacked_stats is the attacked client's (train size, categories present):
    the study attacks at most that many raw samples and prototypes.
    """
    problems = []
    size, cats = attacked_stats
    k = inversion_cfg.num_targets
    expected = {"raw": min(k, size), "prototype": min(k, cats), "entangled": k}
    for kind in TARGET_KINDS:
        n = sum(r.target_kind == kind for r in results)
        if n != expected[kind]:
            problems.append(f"{n} {kind} attacks, expected {expected[kind]}")
    for r in results:
        if r.target_kind not in TARGET_KINDS:
            problems.append(f"attack target kind {r.target_kind!r}")
        if not (math.isfinite(r.mse) and r.mse >= 0.0 and math.isfinite(r.psnr)):
            problems.append(f"{r.target_kind} attack scored mse {r.mse} psnr {r.psnr}")
        if not np.isfinite(r.reconstructed).all():
            problems.append(f"{r.target_kind} reconstruction is not finite")
    return problems


def _by_kind(results, stat):
    out = {}
    for kind in TARGET_KINDS:
        mse = [r.mse for r in results if r.target_kind == kind]
        out[kind] = float(stat(mse)) if mse else float("nan")
    return out


def mean_mse(results):
    return _by_kind(results, np.mean)


def check_privacy_order(results, full):
    """Acceptance check 7's ordering of attack MSE by target kind.

    full=True checks entangled >= prototype >= raw on the mean MSE, as the
    acceptance check does. Over a handful of seeds that ordering is not a
    property of the program: prototype and entangled means cross, and one
    raw attack stuck in a poor basin can lift the raw mean above both. So
    full=False checks only that raw targets have the lowest median MSE.
    """
    if full:
        mm = mean_mse(results)
        ok = mm["entangled"] >= mm["prototype"] >= mm["raw"]
        return [] if ok else [f"mean attack MSE not entangled >= prototype >= raw: {mm}"]
    med = _by_kind(results, np.median)
    ok = med["raw"] <= med["prototype"] and med["raw"] <= med["entangled"]
    return [] if ok else [f"median attack MSE of raw targets not lowest: {med}"]


def check_toy_band(mean_acc_pct):
    """Acceptance check 1's band for fedre's final accuracy on the toy world."""
    if abs(mean_acc_pct - TOY_FEDRE_RS_TARGET) <= TOY_BAND:
        return []
    return [f"toy fedre accuracy {mean_acc_pct:.2f}% outside {TOY_FEDRE_RS_TARGET} +- {TOY_BAND}"]


def check_finite(metrics):
    return [f"metric {k} = {v}" for k, (v, _) in metrics.items() if not math.isfinite(v)]
