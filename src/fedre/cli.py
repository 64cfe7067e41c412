"""Command-line front end.

Verbs:
  run       execute a config's seeds and export per-round metrics
  sweep     re-run a config once per value of one (dotted) config key
  invert    train briefly, then score the reconstruction attack
  validate  parse a config, build every seed's world, and echo the
            effective settings

FEDRE_OUTPUT_DIR, when set, re-roots every output file into that directory.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .runner import TARGET_KINDS, build_worlds, export_records, run_experiment
from .runner import run_inversion_study, run_sweep, summary_records

OUTPUT_DIR_ENV = "FEDRE_OUTPUT_DIR"


def resolve_output_path(path):
    """The output file's path, re-rooted into FEDRE_OUTPUT_DIR when that is
    set. Every verb resolves it before any training: ConfigError if it holds
    a NUL byte, names a directory or lies below something that is not one."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    path = Path(path)
    out = Path(override) / path.name if override else path
    if "\0" in str(out):
        raise ConfigError(f"output path {str(out)!r} holds a NUL byte")
    if out.is_dir():
        raise ConfigError(f"output path {str(out)!r} is a directory")
    ancestor = next(p for p in out.parents if p.exists())
    if not ancestor.is_dir():
        raise ConfigError(
            f"output path {str(out)!r} lies below {str(ancestor)!r}, not a directory"
        )
    return out


def _export(summary, path):
    """Write per-round metrics to path: csv for a .csv path, else jsonl."""
    fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    export_records(summary_records(summary), fmt, path)
    return fmt


def _print_summary(summary):
    print(
        f"final mean accuracy {100 * summary.mean_acc:.2f}%"
        f" +- {100 * summary.std_acc:.2f} over {len(summary.traces)} seed(s);"
        f" upload {summary.upload_total} / broadcast {summary.broadcast_total}"
        " scalars per seed"
    )
    if summary.failed_seeds:
        print(f"failed seeds: {summary.failed_seeds}")


def cmd_run(args):
    cfg = load_config(args.config)
    out = resolve_output_path(args.output or cfg.output_path)
    summary = run_experiment(cfg)
    fmt = _export(summary, out)
    _print_summary(summary)
    print(f"wrote {fmt} metrics to {out}")
    return 0


def cmd_sweep(args):
    cfg = load_config(args.config)  # validate before sweeping
    with open(args.config, encoding="utf-8") as fh:
        base = json.load(fh)
    try:
        values = [json.loads(v) for v in args.values]
    except ValueError as e:  # bad syntax or too many digits
        raise ConfigError(f"--values must be JSON literals: {e}") from e
    out_base = resolve_output_path(args.output or cfg.output_path)
    key = args.key.replace(".", "-")
    outs = {}  # value by output file, each checked before any value runs
    for value in values:
        tag = str(value).replace("/", "_").replace(" ", "")
        out = resolve_output_path(out_base.with_name(f"{out_base.stem}_{key}-{tag}{out_base.suffix}"))
        if out in outs:
            raise ConfigError(
                f"--values {json.dumps(outs[out])} and {json.dumps(value)} both write {str(out)!r}"
            )
        outs[out] = value
    for out, (value, _, summary) in zip(outs, run_sweep(base, args.key, values)):
        _export(summary, out)
        print(f"{args.key}={value}: ", end="")
        _print_summary(summary)
        print(f"  wrote {out}")
    return 0


def cmd_invert(args):
    cfg = load_config(args.config)
    out = resolve_output_path(args.output or cfg.output_path)
    study = run_inversion_study(cfg)
    export_records(study.records(), "jsonl", out)
    for kind in TARGET_KINDS:
        print(
            f"{kind:>10}: mean mse {study.mean_mse[kind]:.4f}, "
            f"mean psnr {study.mean_psnr[kind]:.2f} dB"
        )
    if study.failed_seeds:
        print(f"failed seeds: {study.failed_seeds}")
    print(f"wrote {len(study.results)} attack records to {out}")
    return 0


def cmd_validate(args):
    cfg = load_config(args.config)
    resolve_output_path(cfg.output_path)
    build_worlds(cfg)  # the checks that need the data (pat dealing, csv contents)
    print(f"{args.config} is valid; effective settings:")
    print(json.dumps(dataclasses.asdict(cfg), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedre",
        description="Desk-scale federated learning with entangled representation uploads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a config and export metrics")
    p.add_argument("config")
    p.add_argument("--output", help="override the config's output path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="re-run a config over values of one key")
    p.add_argument("config")
    p.add_argument("--key", required=True, help="dotted config key, e.g. partition.alpha")
    p.add_argument("--values", required=True, nargs="+", help="JSON literals")
    p.add_argument("--output", help="override the config's output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("invert", help="run the input-reconstruction study")
    p.add_argument("config")
    p.add_argument("--output", help="override the config's output path")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
