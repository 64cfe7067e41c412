"""Span tracing of fedre's public functions, installed from outside the package.

``Tracer.install`` replaces each function named in ``TRACED`` with a timing
wrapper. fedre modules import names by value (``entangle`` and ``inversion``
do ``from .nets import forward_pass``, ``baselines`` imports from
``protocol``), so the wrapper replaces every module-level name bound to the
original object, not only the one in the defining module. A class is traced
through its ``__init__``, which every importer shares.

Spans live in flat arrays in memory (name, start, end, parent, seed, round)
and are written out when the run ends. A span's self time is its duration
minus the part of it that its child spans cover.
"""

import functools
import math
import time
from array import array
from collections import defaultdict

import numpy as np

# <module>.<name> of every traced function, in report order.
TRACED = (
    "config.parse_config",
    "runner.build_world",
    "data.make_blobs",
    "data.partition",
    "data.train_test_split",
    "baselines.strategy_round",
    "baselines.packets_for",
    "baselines.ledger_for",
    "protocol.client_local_update",
    "protocol.local_gradients",
    "protocol.server_update",
    "protocol.client_representation_set",
    "protocol.client_make_packet",
    "protocol.evaluate_client",
    "entangle.RepresentationSet",
    "entangle.re_weights",
    "entangle.entangle",
    "entangle.rm_apply",
    "entangle.rm_backward",
    "entangle.compute_prototypes",
    "nets.forward_pass",
    "nets.backprop",
    "nets.sgd_step",
    "nets.ce_value_and_grads",
    "inversion.invert_multi",
    "inversion.invert",
    "inversion.score",
)

ROOT_SPAN = "bench.call"
NO_PARENT = -1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _weights(net):
    return sum(layer.weight.size for layer in net.layers)


# Hooks run outside the span's clock reads. `before` sets the seed and round
# that later spans carry; `after` adds work counts at the boundary where the
# work happens. Operation counts are computed from shapes, not measured: a
# dense layer's matmul is 2*rows*fan_in*fan_out operations, and backprop does
# two of them per layer (weight gradient and input gradient).
def _enter_seed(tracer, args, kwargs):
    tracer.seed_now = int(_arg(args, kwargs, 1, "seed"))
    tracer.round_now = -1


def _enter_round(tracer, args, kwargs):
    tracer.round_now = int(_arg(args, kwargs, 4, "round_index"))


def _leave_round(tracer, args, kwargs, result):
    tracer.round_now = -1


def _count_packets(tracer, args, kwargs, result):
    tracer.counts["baselines.packets"] += len(result)


def _count_forward(tracer, args, kwargs, result):
    rows = np.shape(_arg(args, kwargs, 1, "X"))[0]
    net = _arg(args, kwargs, 0, "net")
    tracer.counts["nets.forward_pass.rows"] += rows
    tracer.counts["nets.forward_pass.flop"] += 2 * rows * _weights(net)


def _count_backprop(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 1, "cache").inputs.shape[0]
    net = _arg(args, kwargs, 0, "net")
    tracer.counts["nets.backprop.flop"] += 4 * rows * _weights(net)


def _count_server_rows(tracer, args, kwargs, result):
    tracer.counts["protocol.server_rows"] += np.shape(_arg(args, kwargs, 1, "X"))[0]


def _count_rep_rows(tracer, args, kwargs, result):
    tracer.counts["entangle.RepresentationSet.rows"] += args[0].reps.shape[0]


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["inversion.steps"] += _arg(args, kwargs, 3, "steps")


HOOKS = {
    "runner.build_world": (_enter_seed, None),
    "baselines.strategy_round": (_enter_round, _leave_round),
    "baselines.packets_for": (None, _count_packets),
    "nets.forward_pass": (None, _count_forward),
    "nets.backprop": (None, _count_backprop),
    "nets.ce_value_and_grads": (None, _count_server_rows),
    "entangle.RepresentationSet": (None, _count_rep_rows),
    "inversion.invert": (None, _count_steps),
}


def rebind(modules, original, replacement):
    """Point every module-level name bound to `original` at `replacement`.

    Returns the (module, name) pairs changed, so the caller can undo them.
    """
    changed = []
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                changed.append((module, key))
    return changed


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("h")
        self.parent = array("q")
        self.seed = array("q")
        self.round = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.seed_now = -1
        self.round_now = -1
        self.counts = defaultdict(int)
        self._undo = []

    def __len__(self):
        return len(self.end)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper that records one span per call of fn."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack
        name_ids, parents, seeds, rounds = self.name_id, self.parent, self.seed, self.round
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            i = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            seeds.append(self.seed_now)
            rounds.append(self.round_now)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def root(self, body):
        """Run body() under a root span; returns its result."""
        return self.wrap(ROOT_SPAN, body)()

    def install(self, modules):
        """Wrap every TRACED name in the given {short name: module} map."""
        everywhere = list(modules.values())
        for qual in TRACED:
            mod_name, attr = qual.split(".")
            original = getattr(modules[mod_name], attr)
            before, after = HOOKS.get(qual, (None, None))
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                original.__init__ = self.wrap(qual, init, before, after)
                self._undo.append(((original, "__init__"), init))
                continue
            wrapper = self.wrap(qual, original, before, after)
            for module, key in rebind(everywhere, original, wrapper):
                self._undo.append(((module, key), original))

    def uninstall(self):
        for (owner, key), original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def arrays(self):
        """The span table as numpy views of the tracer's buffers.

        While a view is alive the tracer cannot record more spans.
        """
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "seed": np.frombuffer(self.seed, dtype=np.int64),
            "round": np.frombuffer(self.round, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write the spans and the name table to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# Children handled per slice in self_times, to bound its memory.
SELF_TIME_SLICE = 1 << 16


def self_times(start, end, parent):
    """Duration minus the union of child intervals, clipped to the parent.

    Children of one parent may nest or overlap each other; the time they
    cover is counted once. Spans with parent NO_PARENT are roots.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.shape[0])
    kids = np.flatnonzero(parent != NO_PARENT)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    owner, run_lo, run_hi = NO_PARENT, 0.0, 0.0
    for at in range(0, kids.size, SELF_TIME_SLICE):
        k = kids[at : at + SELF_TIME_SLICE]
        ps = parent[k]
        los = np.maximum(start[k], start[ps])
        his = np.minimum(end[k], end[ps])
        for p, lo, hi in zip(ps.tolist(), los.tolist(), his.tolist()):
            if hi <= lo:
                continue
            if p != owner or lo > run_hi:
                if owner != NO_PARENT:
                    covered[owner] += run_hi - run_lo
                owner, run_lo, run_hi = p, lo, hi
            elif hi > run_hi:
                run_hi = hi
    if owner != NO_PARENT:
        covered[owner] += run_hi - run_lo
    return end - start - covered


def tail(values):
    """(value, percentile, n) at the highest percentile with ten samples beyond.

    With n samples that is the (n-10)-th order statistic, percentile
    100*(n-10)/n. Below twenty samples that would fall under the median, so
    the median is given instead, marked as p50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return float(np.median(xs)), 50.0, n
    return float(xs[n - 11]), 100.0 * (n - 10) / n, n


def layer_metrics(tracer, seeds_traced, untraced_s, traced_s):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Counts and self times are per traced seed, so runs of different length
    compare. untraced_s and traced_s time the same call without and with
    the wrappers; their ratio is the tracing overhead.
    """
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    names = tracer.names
    ids = spans["name_id"]
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    total = np.bincount(ids, weights=dur, minlength=k)
    selfs = np.bincount(ids, weights=own, minlength=k)
    per_seed = max(seeds_traced, 1)

    def by_name(name):
        i = tracer._ids.get(name)
        return (0, 0.0, 0.0) if i is None else (int(calls[i]), float(total[i]), float(selfs[i]))

    def durations_ms(name):
        i = tracer._ids.get(name)
        return [] if i is None else (1e3 * dur[ids == i]).tolist()

    out = {}
    for qual in TRACED:
        n, tot, own_s = by_name(qual)
        out[f"{qual}.calls"] = (n / per_seed, "count/seed")
        out[f"{qual}.self_s"] = (own_s / per_seed, "s/seed")
        out[f"{qual}.us_per_call"] = (1e6 * tot / n if n else 0.0, "us")

    counts = tracer.counts
    rounds = by_name("baselines.strategy_round")[0]
    round_ms = durations_ms("baselines.strategy_round")
    value, pct, n = tail(round_ms)
    out["baselines.round_ms_p50"] = (float(np.median(round_ms)) if round_ms else 0.0, "ms")
    out["baselines.round_ms_tail"] = (value, "ms")
    out["baselines.round_ms_tail_pct"] = (pct, "%")
    out["baselines.round_ms_n"] = (n, "count")
    out["baselines.packets_per_round"] = (counts["baselines.packets"] / rounds if rounds else 0.0, "count/round")
    local_steps = by_name("protocol.local_gradients")[0]
    server_steps = by_name("nets.ce_value_and_grads")[0]
    out["protocol.local_sgd_steps"] = (local_steps / rounds if rounds else 0.0, "count/round")
    out["protocol.server_sgd_steps"] = (server_steps / rounds if rounds else 0.0, "count/round")
    out["protocol.server_rows_per_step"] = (
        counts["protocol.server_rows"] / server_steps if server_steps else 0.0,
        "count",
    )
    out["entangle.RepresentationSet.rows"] = (counts["entangle.RepresentationSet.rows"] / per_seed, "count/seed")

    fwd_calls, fwd_s, _ = by_name("nets.forward_pass")
    _, bwd_s, _ = by_name("nets.backprop")
    fwd_gflop = counts["nets.forward_pass.flop"] / 1e9
    bwd_gflop = counts["nets.backprop.flop"] / 1e9
    out["nets.forward_pass.rows_per_call"] = (counts["nets.forward_pass.rows"] / fwd_calls if fwd_calls else 0.0, "count")
    out["nets.forward_pass.gflop"] = (fwd_gflop / per_seed, "GFLOP-computed")
    out["nets.forward_pass.gflops"] = (fwd_gflop / fwd_s if fwd_s else 0.0, "GFLOP/s-computed")
    out["nets.backprop.gflop"] = (bwd_gflop / per_seed, "GFLOP-computed")
    out["nets.backprop.gflops"] = (bwd_gflop / bwd_s if bwd_s else 0.0, "GFLOP/s-computed")

    target_ms = durations_ms("inversion.invert_multi")
    value, pct, n = tail(target_ms)
    _, invert_s, _ = by_name("inversion.invert")
    steps = counts["inversion.steps"]
    out["inversion.target_ms_p50"] = (float(np.median(target_ms)) if target_ms else 0.0, "ms")
    out["inversion.target_ms_tail"] = (value, "ms")
    out["inversion.target_ms_tail_pct"] = (pct, "%")
    out["inversion.target_ms_n"] = (n, "count")
    out["inversion.step_us"] = (1e6 * invert_s / steps if steps else 0.0, "us")

    roots = spans["parent"] == NO_PARENT
    root_total = float(dur[roots].sum())
    covered = root_total - float(own[roots].sum())
    out["trace.coverage"] = (covered / root_total if root_total else 0.0, "fraction")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "fraction")
    out["trace.spans"] = (len(tracer), "count")
    for name, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite")
    return out
