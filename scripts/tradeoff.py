"""The toy trade-off: accuracy, traffic and attack error in one table.

One row per upload policy on presets.toy_comparison_config, fedre with
fresh (rs) and frozen (fs) weight draws: mean final accuracy and scalars
sent per round, then the rs - fs gap. Then the attack of
presets.toy_inversion_config on raw, prototype and entangled uploads: mean
and quartiles of MSE and PSNR. Exits 1 unless entangled packets are the
hardest to invert by mean (highest MSE, lowest PSNR) and raw ones the easiest.
Every config is built and checked before any training: a bad option exits 2
with one error line, as the fedre CLI does.
"""

import argparse
import sys

import numpy as np

from fedre import baselines, presets, runner
from fedre.config import ConfigError

POLICIES = [
    ("fed_all_rep", dict(strategy=baselines.FED_ALL_REP)),
    ("fedre (rs)", dict(strategy=baselines.FEDRE, resample="rs")),
    ("fedre (fs)", dict(strategy=baselines.FEDRE, resample="fs")),
    ("fedgh_style", dict(strategy=baselines.FEDGH_STYLE)),
    ("fedproto_style", dict(strategy=baselines.FEDPROTO_STYLE)),
    ("local", dict(strategy=baselines.LOCAL)),
]


def quartiles(study, kind, attr):
    values = [getattr(r, attr) for r in study.results if r.target_kind == kind]
    return np.percentile(values, [25, 50, 75]) if values else [float("nan")] * 3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, help="run seeds 0..SEEDS-1 (default: each preset's)")
    ap.add_argument("--rounds", type=int, help="rounds (default: each preset's)")
    ap.add_argument("--steps", type=int, help="attack steps per start")
    ap.add_argument("--restarts", type=int, help="attack starts per target")
    ap.add_argument("--output", help="jsonl path for the fedre (rs) run")
    args = ap.parse_args(argv)
    scale = dict(num_seeds=args.seeds, rounds=args.rounds)
    scale = {k: v for k, v in scale.items() if v is not None}  # unset: the preset's own
    try:
        configs = [(name, presets.toy_comparison_config(**scale, **kw)) for name, kw in POLICIES]
        study_cfg = presets.toy_inversion_config(**scale)
        for knob in ("steps", "restarts"):
            if getattr(args, knob) is not None:
                setattr(study_cfg.inversion, knob, getattr(args, knob))
        study_cfg.validate()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    acc = {}
    for name, cfg in configs:
        summary = runner.run_experiment(cfg)
        acc[name] = 100 * summary.mean_acc
        rounds = cfg.rounds or 1
        print(
            f"{name:15s} mean final acc {acc[name]:6.2f}% +- {100 * summary.std_acc:5.2f}"
            f"   upload/round {summary.upload_total / rounds:5.0f}"
            f"  broadcast/round {summary.broadcast_total / rounds:6.0f}"
        )
        if name == "fedre (rs)" and args.output:
            runner.export_summary(summary, "jsonl", args.output)
            print(f"  wrote {args.output}")
    print(f"gap (rs - fs): {acc['fedre (rs)'] - acc['fedre (fs)']:.2f} points")

    study = runner.run_inversion_study(study_cfg)
    mse, psnr = study.mean_mse, study.mean_psnr
    print(f"{'attack on':10s} {'mse: mean':>10s} {'q1':>9s} {'median':>9s} {'q3':>9s}"
          f"   {'psnr dB: mean':>13s} {'q1':>7s} {'median':>7s} {'q3':>7s}")
    for kind in runner.TARGET_KINDS:
        mq = " ".join(f"{v:9.3g}" for v in quartiles(study, kind, "mse"))
        pq = " ".join(f"{v:7.2f}" for v in quartiles(study, kind, "psnr"))
        print(f"{kind:10s} {mse[kind]:10.4f} {mq}   {psnr[kind]:13.2f} {pq}")
    mse_up = mse["entangled"] >= mse["prototype"] >= mse["raw"]
    psnr_down = psnr["entangled"] <= psnr["prototype"] <= psnr["raw"]
    print(f"mse ordering entangled >= prototype >= raw: {mse_up}")
    print(f"psnr ordering entangled <= prototype <= raw: {psnr_down}")
    return 0 if (mse_up and psnr_down) else 1


if __name__ == "__main__":
    sys.exit(main())
