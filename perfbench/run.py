"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload toy_attack --seed 0 --seconds 55 --trace 0

Run from the root of a checkout: fedre is imported from its ``src/``. The
run is one process and a closed loop: it calls fedre's public entry point
for one seed at a time, the next call starting when the previous one
returns, until --seconds have passed.

--trace 0 reports the end-to-end metrics, with no wrappers installed.
--trace 1 installs span wrappers around fedre's public functions and
reports per-layer metrics; the spans are written to perfbench/out/.

Every run first calls the default seed untimed and compares the SHA-256 of
its records with perfbench/golden.json; toy_attack runs also make
acceptance check 1's band check untimed. Then it checks the outputs of
every call. The last line of output is one JSON object; the exit code is 0
when every check passed, 1 when one missed, 2 on bad usage or a checkout
without fedre's sources.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

FEDRE_MODULES = (
    "nets", "data", "entangle", "protocol", "baselines",
    "inversion", "config", "runner", "presets", "cli",
)
# One BLAS thread: fedre's matrices are at most a few hundred wide, and on a
# 2-core box two threads made wide_all_rep slower and noisier, not faster.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads():
    """Cap BLAS threads; takes effect only before numpy loads."""
    n = min(BLAS_THREADS, nproc())
    for var in BLAS_VARS:
        os.environ[var] = str(n)
    return n


PINNED_THREADS = pin_blas_threads()
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import checks, tracing  # noqa: E402
from perfbench.workloads import ATTACK, TRAIN, WORKLOADS  # noqa: E402


def git_rev():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS,
        "nproc": nproc(),
        "git_rev": git_rev(),
    }


def import_fedre():
    """Import fedre afresh from the checkout; returns {short name: module}."""
    for name in [m for m in sys.modules if m == "fedre" or m.startswith("fedre.")]:
        del sys.modules[name]
    modules = {"fedre": importlib.import_module("fedre")}
    for name in FEDRE_MODULES:
        modules[name] = importlib.import_module(f"fedre.{name}")
    if not Path(modules["fedre"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fedre imported from {modules['fedre'].__file__}, not {SRC}")
    return modules


def setup(workload, seeds, times):
    """Import fedre, parse the config and build every seed's world.

    Appends the seconds taken to times; returns (modules, config, worlds).
    """
    gc.collect()
    t0 = time.perf_counter()
    modules = import_fedre()
    cfg = workload.config(SimpleNamespace(**modules))
    worlds = {s: modules["runner"].build_world(cfg, s) for s in seeds}
    times.append(time.perf_counter() - t0)
    return modules, cfg, worlds


class RoundTap:
    """Keeps the RoundMetrics that baselines.strategy_round returns.

    The attack study exposes no per-round records, so this is how its
    accuracy and ledger are read. It reads no clock.
    """

    def __init__(self, modules):
        self.rounds = []
        original = modules["baselines"].strategy_round

        def tapped(*args, **kwargs):
            out = original(*args, **kwargs)
            self.rounds.append(out[3])
            return out

        self._undo = [(m, k, original) for m, k in tracing.rebind(modules.values(), original, tapped)]

    def uninstall(self):
        for module, key, original in self._undo:
            setattr(module, key, original)


class Call:
    """One entry call for one seed, and what it returned."""

    def __init__(self, seed):
        self.seed = seed
        self.entry_s = self.unit_s = 0.0
        self.records = []  # round records
        self.attacks = []  # InversionResult list
        self.failed = None  # the reason, when the call or its seed failed
        self.digest = None  # SHA-256 of the call's records


def run_call(workload, fedre, seed, tracer=None, tap=None):
    """Build the config for this seed and make the entry call.

    entry_s times the entry call alone; unit_s also covers building the
    config, under the root span when traced.
    """
    call = Call(seed)

    def body():
        cfg = workload.config(fedre)
        cfg.seeds = [seed]
        t0 = time.perf_counter()
        raw = workload.entry(fedre, cfg)
        call.entry_s = time.perf_counter() - t0
        return raw

    if tap is not None:
        tap.rounds.clear()
    t0 = time.perf_counter()
    try:
        raw = tracer.root(body) if tracer is not None else body()
    except Exception:  # a failed call is counted, the run goes on
        call.failed = traceback.format_exc(limit=3)
        return call
    finally:
        call.unit_s = time.perf_counter() - t0
    if workload.kind == TRAIN:
        (trace,) = raw.traces
        if trace.failed:
            call.failed = trace.error
            return call
        call.records = [m.to_record(r) for r, m in enumerate(trace.records)]
        call.digest = checks.digest(fedre.runner.summary_records(raw))
    else:
        call.records = [m.to_record(r) for r, m in enumerate(tap.rounds)]
        call.attacks = raw.results
        call.digest = checks.digest(raw.records())
    return call


def band_check(fedre):
    """Acceptance check 1's band for fedre on the toy world, untimed.

    Runs presets.toy_comparison_config's default seeds; returns problems.
    """
    cfg = fedre.presets.toy_comparison_config(strategy="fedre", resample="rs")
    try:
        summary = fedre.runner.run_experiment(cfg)
    except Exception:
        return [f"toy comparison run failed: {traceback.format_exc(limit=3)}"]
    if summary.failed_seeds:
        return [f"toy comparison run: seeds {summary.failed_seeds} failed"]
    acc = 100.0 * summary.mean_acc
    print(f"band toy fedre_rs seeds {cfg.seeds} final accuracy {acc:.4f}%")
    return checks.check_toy_band(acc)


def seed_problems(calls, workload, cfg, allowed, attacked):
    """Problems of each seed. A seed's repeats must reproduce its first
    outputs bit for bit, so its first call stands for all of them.
    Returns ({seed: problems}, {seed: first call})."""
    first, problems = {}, {}
    for call in calls:
        s = call.seed
        if s in first:
            if call.failed or call.digest != first[s].digest:
                problems[s].append("a repeated call gave different outputs")
            continue
        first[s] = call
        if call.failed:
            problems[s] = [f"failed: {call.failed}"]
            continue
        problems[s] = checks.check_seed_records(call.records, cfg.rounds, cfg.num_clients, allowed[s])
        if workload.kind == ATTACK:
            problems[s] += checks.check_attacks(call.attacks, cfg.inversion, attacked[s])
    return problems, first


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


def end_to_end(workload, cfg, setup_times, calls, ok_first, attempted, failed):
    """({name: (value, unit)} for the result line, extra printed metrics).

    Set-up is the median of the run's set-ups. Call timings are means over
    the run, and rates are totals over the run: the host's speed moves
    between plateaus seconds to minutes long, and a mean weighs them by time
    where a median jumps from one to the other. The printed extras are 0 or
    undefined on some workloads, which the result line's fixed metric set
    cannot carry.
    """
    timed = [c for c in calls if not c.failed]
    busy = sum(c.entry_s for c in timed) or float("nan")
    rounds = [r for call in ok_first.values() for r in call.records]
    finals = [call.records[-1]["mean_acc"] for call in ok_first.values() if call.records]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (mean(c.entry_s for c in timed), "s"),
        "seed_rounds_per_s": (len(timed) * cfg.rounds / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "final_acc_pct": (100.0 * mean(finals), "%"),
        "upload_scalars_per_round": (mean(r["upload_scalars"] for r in rounds), "count"),
        "broadcast_scalars_per_round": (mean(r["broadcast_scalars"] for r in rounds), "count"),
    }
    shown = {"failed_frac": (failed / attempted, "fraction")}
    if workload.kind == ATTACK:
        inv = cfg.inversion
        attacks = [r for call in ok_first.values() for r in call.attacks]
        steps = sum(len(c.attacks) for c in timed) * inv.restarts * inv.steps
        shown["attack_steps_per_s"] = (steps / busy, "1/s")
        psnr = {k: mean(r.psnr for r in attacks if r.target_kind == k) for k in ("prototype", "entangled")}
        shown["privacy_gap_db"] = (psnr["prototype"] - psnr["entangled"], "dB")
        for kind, value in checks.mean_mse(attacks).items():
            shown[f"attack_mse_{kind}"] = (value, "mse")
    return metrics, shown


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "fedre" / "__init__.py").is_file():
        print(f"perfbench: no fedre sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)

    # Set-up is repeated after every timed call, so that its median, like
    # the calls' mean, spans the whole run.
    seeds = workload.seeds(args.seed)
    setup_times = []
    modules, cfg, worlds = setup(workload, seeds, setup_times)
    fedre = SimpleNamespace(**modules)
    golden_seed = workload.seeds(0)[0]
    if golden_seed not in worlds:
        worlds[golden_seed] = fedre.runner.build_world(cfg, golden_seed)
    strategy = worlds[seeds[0]].strategy
    allowed, attacked = {}, {}
    for s, world in worlds.items():
        stats = checks.client_stats(world)
        allowed[s] = checks.expected_ledgers(fedre, cfg, strategy, stats)
        attacked[s] = stats[0]  # the study attacks client 0
    del worlds

    band = band_check(fedre) if workload.band_check else []
    problems = list(band)  # run-level
    tap = RoundTap(modules) if workload.kind == ATTACK else None
    tracer = tracing.Tracer() if args.trace else None
    calls = []
    try:
        reference = [run_call(workload, fedre, golden_seed, tap=tap)]
        if tracer is not None:
            tracer.install(modules)
            reference.append(run_call(workload, fedre, golden_seed, tracer, tap))
        deadline = time.perf_counter() + args.seconds
        while not calls or time.perf_counter() < deadline:
            calls.append(run_call(workload, fedre, seeds[len(calls) % len(seeds)], tracer, tap))
            if tracer is None:
                setup(workload, seeds, setup_times)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if tap is not None:
            tap.uninstall()

    golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
    for ref, label in zip(reference, ("untraced", "traced")):
        stored = golden.get("sha256") if golden.get("seed") == golden_seed else None
        match = "no golden digest stored" if stored is None else f"golden_match={str(ref.digest == stored).lower()}"
        print(f"digest {label} seed {golden_seed} {ref.digest} {match}")
    if len(reference) > 1 and reference[1].digest != reference[0].digest:
        problems.append("tracing changed the outputs of the default seed")

    by_seed, first = seed_problems(reference + calls, workload, cfg, allowed, attacked)
    # the band check's run counts as one attempt
    attempted = len(reference) + len(calls) + workload.band_check
    failed = sum(1 for c in reference + calls if by_seed[c.seed]) + bool(band)
    for s, found in sorted(by_seed.items()):
        for p in found[:3]:
            print(f"check FAIL seed {s}: {p}")
    ok_first = {s: first[s] for s in sorted({c.seed for c in calls}) if not by_seed[s]}
    if workload.kind == ATTACK:
        attacks = [r for call in ok_first.values() for r in call.attacks]
        problems += checks.check_privacy_order(attacks, full=False) if attacks else ["no attack results"]
        # The full ordering holds on the preset's 20-seed mean, which a run
        # is too short to cover; the timed seeds are any 20-seed list's
        # first dozen, on which prototype and entangled MSE cross.
        problems += checks.check_privacy_order(reference[0].attacks, full=True)

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, len(reference) - 1 + len(calls), reference[0].unit_s, reference[1].unit_s)
        tracer.save(OUT_DIR / f"{workload.name}.spans.npz")
        shown = {}
    else:
        metrics, shown = end_to_end(workload, cfg, setup_times, calls, ok_first, attempted, failed)
    problems += checks.check_finite({**metrics, **shown})

    print(f"workload {workload.name} seeds {seeds[0]}..{seeds[-1]}, "
          f"timed calls {len(calls)}, trace {args.trace}")
    print("call_s " + " ".join(f"{c.entry_s:.4f}" for c in calls))
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for p in problems:
        print(f"check FAIL run: {p}")
    correct = not problems and failed == 0
    print(f"checks {'pass' if correct else 'FAIL'}: {attempted} seed runs, {failed} failed")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
