"""Compare upload strategies on the two-client toy problem.

Runs every strategy over the same seeds and prints one line per strategy
with the mean final accuracy, plus the per-round scalar traffic. Expect the
per-sample uploader on top, the entangled packets close behind, and the
one-hot prototype server trailing.
"""

import argparse
import sys

from fedre import baselines, presets, runner


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds, 0..n-1")
    ap.add_argument("--output", default=None, help="jsonl path for the fedre run")
    args = ap.parse_args(argv)

    jobs = [
        ("fed_all_rep", dict(strategy=baselines.FED_ALL_REP)),
        ("fedre (rs)", dict(strategy=baselines.FEDRE, resample="rs")),
        ("fedgh_style", dict(strategy=baselines.FEDGH_STYLE)),
        ("fedproto_style", dict(strategy=baselines.FEDPROTO_STYLE)),
        ("local", dict(strategy=baselines.LOCAL)),
    ]
    for name, kwargs in jobs:
        cfg = presets.toy_comparison_config(
            rounds=args.rounds, num_seeds=args.seeds, **kwargs
        )
        summary = runner.run_experiment(cfg)
        records = summary.traces[0].records
        up = records[0].upload_scalars if records else 0
        down = records[0].broadcast_scalars if records else 0
        print(
            f"{name:15s} mean final acc {100 * summary.mean_acc:6.2f}%"
            f" +- {100 * summary.std_acc:5.2f}"
            f"   upload/round {up:5d}  broadcast/round {down:6d}"
        )
        if name == "fedre (rs)" and args.output:
            runner.export_summary(summary, "jsonl", args.output)
            print(f"  wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
