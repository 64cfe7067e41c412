"""The benchmark's workloads: fedre configs built here, run through fedre's
public entry calls, each as a closed loop of one call at a time.

Why these two:

- toy_attack: the reconstruction study of acceptance check 7. Forty rounds
  of the paper's method (fedre, rap weights, ap mapping, fresh draws) on the
  toy world, then tens of thousands of single-row gradient steps per seed.
  Per-call Python overhead sets its speed, and it is the only workload that
  runs attack code.
- wide_all_rep: fed_all_rep on a world about ten times the toy, where array
  work dominates: wide extractors, a learned fc mapping and one packet per
  training sample, so the server sees hundreds of packets per round and the
  ledger sits at its upper bound. No attack code runs.

The toy comparison run of acceptance check 1 (fedre alone on the toy world)
is not a workload of its own: on a 2-core host whose speed drifts by a fifth
over minutes, two workloads with long runs are steadier than three with
short ones, and every layer it exercises runs in toy_attack's training.
toy_attack runs still make it once, untimed, on its default seeds, for the
accuracy band check (see band_check).

Deliberately not exercised: the mp mapping and every weight mechanism other
than rap. The presets use ap and rap, the wide world uses fc; the other
paths share the same round machinery and add no distinct hot spot.
"""

from dataclasses import dataclass
from typing import Callable

TRAIN = "train"
ATTACK = "attack"

# --seed n runs seeds n*SEED_STRIDE + 0, 1, ...; seed 0 runs the presets' own.
SEED_STRIDE = 1000


def wide_all_rep_mapping():
    return {
        "dataset": {"kind": "blobs", "classes": 10, "per_class": 300, "dim": 32, "spread": 1.0},
        "partition": {"mode": "pra", "alpha": 1.0},
        "num_clients": 6,
        "rounds": 20,
        "strategy": "fed_all_rep",
        "mechanism": "rap",
        "rm_op": "fc",
        "unified_dim": 64,
        "architectures": [[128], [256], [512], [128, 256], [256, 512], [512, 128]],
        "participation_rate": 0.5,
        "client_lr": 0.05,
        "client_batch_size": 64,
        "client_epochs": 1,
        "server_lr": 0.05,
        "server_batch_size": 64,
        "server_epochs": 2,
        "train_fraction": 0.75,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # TRAIN runs run_experiment, ATTACK runs run_inversion_study
    config: Callable  # fedre namespace -> ExperimentConfig
    num_seeds: int  # seeds in one run's list; setup builds a world for each
    band_check: bool = False  # make acceptance check 1's band check untimed

    def seeds(self, seed):
        """The run's seeds, in call order; each call runs one of them."""
        return [seed * SEED_STRIDE + s for s in range(self.num_seeds)]

    def entry(self, fedre, cfg):
        if self.kind == TRAIN:
            return fedre.runner.run_experiment(cfg)
        return fedre.runner.run_inversion_study(cfg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy_attack",
            kind=ATTACK,
            config=lambda fedre: fedre.presets.toy_inversion_config(),
            num_seeds=20,
            band_check=True,
        ),
        Workload(
            name="wide_all_rep",
            kind=TRAIN,
            config=lambda fedre: fedre.config.parse_config(wide_all_rep_mapping()),
            num_seeds=8,
        ),
    )
}
