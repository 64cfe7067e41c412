"""Seed 0 of both benchmark workloads reproduces its stored digest.

perfbench/golden.json holds the SHA-256 of each workload's seed-0 records;
a change that moves any accuracy, ledger count or attack score of those
runs by one bit fails here. The option matrix below pins every other
choice the config offers the same way, on a small world.
"""

import dataclasses
import hashlib
import json
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from fedre import config, data, presets, runner  # noqa: E402
from perfbench import checks, workloads  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


def test_toy_attack_seed_0_matches_its_golden_digest():
    cfg = presets.toy_inversion_config()
    cfg.seeds = [GOLDEN["toy_attack"]["seed"]]
    study = runner.run_inversion_study(cfg)
    assert checks.digest(study.records()) == GOLDEN["toy_attack"]["sha256"]


def test_wide_all_rep_seed_0_matches_its_golden_digest():
    cfg = config.parse_config(workloads.wide_all_rep_mapping())
    cfg.seeds = [GOLDEN["wide_all_rep"]["seed"]]
    summary = runner.run_experiment(cfg)
    records = runner.summary_records(summary)
    assert checks.digest(records) == GOLDEN["wide_all_rep"]["sha256"]


# ------------------------------------------------------------ option matrix

# One small world, trained 2 rounds on seed 0, once per non-default value of
# every Literal field of the config, once at partial participation and once
# with an attack on client 0. Each digest hashes the round records and every
# final parameter (and the attack's records and reconstructions), so a change
# that moves any option's outcome by one bit fails here. The records alone
# are not enough: several options reach the same accuracies and traffic.
MATRIX_BASE = {
    "dataset": {"classes": 4, "per_class": 10, "dim": 2},
    "partition": {"alpha": 0.5},
    "num_clients": 4,
    "rounds": 2,
    "unified_dim": 4,
    "architectures": [[8], [12], [8, 4], [4]],
    "server_batch_size": 8,
    "server_epochs": 2,
    "seeds": [0],
    "inversion": {"steps": 20, "num_targets": 2, "restarts": 2},
}

MATRIX = {
    "comm_convention=representation_plus_label": "416cc33af4f9f0f03751fd30638e11952bfdab19a343f078069d291d106670e6",
    "dataset.kind=csv": "2c2a842791aea9438aa3e40e18801eb4867017a47c36e9ddf29ea082d8628687",
    "invert": "ca063a76721e3f3ddd527114d96736bbb3c2e4e9a1fba2b3c92a33c15a7c56b3",
    "mechanism=rar": "ce20cd9968502a015369f72f41229d20354cc83dc850fe54c1055dd324f68efe",
    "mechanism=rsp": "e9154866af68b361b1e51d35933772677f9976bb1198d6addfe1b77cabfaaf8b",
    "mechanism=rsr": "6bd51a2d4c7876d8c84917f939734ecbe88ff5c51affc21e699d65b5cd6c4161",
    "mechanism=vap": "6b2a8fa570ca4cf45a78378f51484e7a0e168bb359edbe8e808ce07a0aa08917",
    "mechanism=var": "40ab4f48520eb568d11e509835f00884d84c5c205cb5d2688dd0a9acee306f87",
    "partition.mode=longtail": "993348cea1d1f554a93cecb1e15c3e214603ec446031b923736273f6131043ef",
    "partition.mode=pat": "3f8f117002c5eda9a0b909e36974fbb02824f30eda7b61935f22e984f6ea7b64",
    "participation_rate=0.3": "7f209d5899e537feae57e8154e30fd5564285b19db8937edae74ca46bedeacd6",
    "resample=fs": "1f4ff59fa56778f60a154899c443092b492b22ef7f0128de8f054f9f1de35bce",
    "rm_op=fc": "f33b35a489a8a8c90e825721bdd61152c5b0e6c227d736be10f2cd638106cdf0",
    "rm_op=mp": "b6d5e84545b0142db5c3bb76dfa7e4b26420e3ac612885856ea690afdfc4937e",
    "strategy=fed_all_rep": "1177810de1d3f9263681d61eb0ccbf4f4466f20a41ea82c75de49a8aadc4f9d8",
    "strategy=fedgh_style": "b5d1970de1505dc66a262068ce537595a17c8b9247336393aed9dd942b173f41",
    "strategy=fedproto_style": "907992e123dd27379c47f45a232bd435eff472f2f680b18dbb30e8172f828d80",
    "strategy=local": "acd2600dbf195511e3df86a6e2bc42e62ebeb2a0f98ee6e61fa48615f254ef3a",
    "weight_distribution=gaussian": "298e330400643a54a0a80b6ccc861687823fcf3689e381b474903c4adbcb81d7",
    "weight_distribution=laplace": "8e4709d3b1b6fdf262615a31f2b560d7e88cfd12b33540e375a50934d7f7c9a1",
}


def literal_cases(cls=config.ExperimentConfig, prefix=""):
    """"path=value" for every non-default choice of every Literal field."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from literal_cases(f.type, f"{prefix}{f.name}.")
        elif typing.get_origin(f.type) is typing.Literal:
            yield from (f"{prefix}{f.name}={v}" for v in typing.get_args(f.type) if v != f.default)


def matrix_config(case, tmp_path):
    mapping = json.loads(json.dumps(MATRIX_BASE))
    if "=" in case:
        path, value = case.split("=")
        *groups, key = path.split(".")
        node = mapping
        for g in groups:
            node = node.setdefault(g, {})
        node[key] = float(value) if key == "participation_rate" else value
    if case == "dataset.kind=csv":
        ds = data.make_blobs(4, 10, 2, 1.0, 0)
        rows = ["x0,x1,label"] + [f"{a!r},{b!r},{c}" for (a, b), c in zip(ds.X.tolist(), ds.y)]
        (tmp_path / "blobs.csv").write_text("\n".join(rows) + "\n")
        mapping["dataset"]["path"] = str(tmp_path / "blobs.csv")
    return config.parse_config(mapping)


def outcome_digest(cfg, attack):
    """SHA-256 of seed 0's round records and final parameters (and, with
    attack, of the attack's records and reconstructions)."""
    [(_, world)] = runner.build_worlds(cfg)
    with np.errstate(all="ignore"):  # as runner._run_seeds runs a seed
        clients, server, records = runner.train(cfg, world)
        results = runner._attack_client(cfg.inversion, world, clients[0]) if attack else []
    rows = [m.to_record(r) for r, m in enumerate(records)]
    keys = ("target_kind", "mse", "psnr", "iterations")
    rows += [{k: getattr(r, k) for k in keys} for r in results]
    arrays = [r.reconstructed for r in results]
    nets = [n for c in clients for n in (c.extractor, c.rm.net, c.classifier)] + [server.classifier]
    for net in filter(None, nets):
        arrays += [a for layer in net.layers for a in (layer.weight, layer.bias)]
    arrays += [c.weights for c in clients if c.weights is not None]
    h = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8"))
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def test_every_literal_choice_has_a_matrix_digest():
    assert set(MATRIX) == set(literal_cases()) | {"participation_rate=0.3", "invert"}


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_option_matrix_matches_its_digest(case, tmp_path):
    cfg = matrix_config(case, tmp_path)
    assert outcome_digest(cfg, attack=case == "invert") == MATRIX[case]
