"""Canonical desk-scale experiment presets.

The toy comparison: 500 two-dimensional samples in ten ring classes split
across two clients with different extractor widths, 300 train / 200 test
after the per-client 3:2 split. Class overlap on the ring makes the task
genuinely hard (roughly a third of the mass sits past the midpoint to a
neighbor), which is what separates the upload policies.

The server trains its classifier hard (many epochs at a high rate) on the
few vectors it receives each round. That pressure is deliberate: hammering
a handful of one-hot prototypes inflates the margins of a linear classifier
until it is overconfident exactly where the rings overlap, while the soft
entangled labels bound the loss away from zero and keep it calibrated, and
a fresh weight draw every round feeds the server new mixtures to average
over. Frozen draws lose that averaging, which is the re-sampling gap.
"""

from .config import parse_config


def toy_comparison_config(strategy="fedre", rounds=60, num_seeds=10, resample="rs"):
    """Two-client blob comparison shared by the scripts and the test suite."""
    return parse_config(
        {
            "dataset": {
                "kind": "blobs",
                "classes": 10,
                "per_class": 50,
                "dim": 2,
                "spread": 1.0,
            },
            "partition": {"mode": "pra", "alpha": 1.0},
            "num_clients": 2,
            "rounds": rounds,
            "strategy": strategy,
            "mechanism": "rap",
            "resample": resample,
            "rm_op": "ap",
            "unified_dim": 8,
            "architectures": [[16, 16], [32, 24]],
            "client_lr": 0.05,
            "client_batch_size": 16,
            "client_epochs": 1,
            "server_lr": 0.5,
            "server_batch_size": 100,
            "server_epochs": 100,
            "train_fraction": 0.6,
            "seeds": list(range(num_seeds)),
            "output_path": f"runs/toy_{strategy}{'_' + resample if strategy == 'fedre' else ''}.jsonl",
        }
    )


def toy_inversion_config(num_seeds=20, rounds=40):
    """Toy world trained long enough that the attack has real structure.

    Forty rounds give the attacked extractor sharp class regions, so a
    converged attack on a raw target lands on the source sample. Eight
    restarts per target keep plain descent out of stray local basins;
    without them a stalled run dominates the per-kind means.
    """
    cfg = toy_comparison_config(strategy="fedre", rounds=rounds, num_seeds=num_seeds)
    cfg.inversion.steps = 800
    cfg.inversion.lr = 0.05
    cfg.inversion.num_targets = 3
    cfg.inversion.restarts = 8
    cfg.output_path = "runs/inversion.jsonl"
    return cfg
