"""The seed stack: every attack target of a seed descends as one stack.

`runner._attack_client` makes all of a seed's draws first and descends all
targets' starts in one invert call. These tests hold it to the attack one
target at a time, each start descending alone (`helpers.one_row_client_attack`):
same kinds, same reconstruction bytes, same MSE and PSNR, also when starts
diverge and are dropped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import entangle, inversion, nets, runner
from fedre.config import parse_config
from fedre.entangle import FC, RM_KINDS, RMSpec, rm_apply, rm_backward

from helpers import net_params_equal, one_row_client_attack, one_row_descent


def small_world(seed=0, rm_op="ap", mechanism="rap", restarts=2, num_targets=2,
                steps=4, rounds=1, lr=0.05):
    """A trained two-client blob world and the inversion config that attacks it."""
    cfg = parse_config({
        "dataset": {"classes": 3, "per_class": 6, "dim": 2},
        # every client holds every category, so client 0 has training data
        "partition": {"mode": "pat", "categories_per_client": 3},
        "num_clients": 2,
        "rounds": rounds,
        "mechanism": mechanism,
        "rm_op": rm_op,
        "unified_dim": 2,
        "architectures": [[4, 4], [6]],
        "seeds": [seed],
        "inversion": {
            "steps": steps,
            "lr": lr,
            "num_targets": num_targets,
            "restarts": restarts,
        },
    })
    world = runner.build_world(cfg, seed)
    clients, _, _ = runner.train(cfg, world)
    return cfg.inversion, world, clients[0]


def outcome(attack, inv, world, client):
    """[(kind, reconstruction bytes, mse, psnr, iterations)] or the exception type."""
    try:
        with np.errstate(all="ignore"):
            results = attack(inv, world, client)
    except (RuntimeError, ValueError) as e:
        return type(e)
    return [
        (r.target_kind, r.reconstructed.tobytes(), r.mse, r.psnr, r.iterations)
        for r in results
    ]


def counting_invert_multi(monkeypatch):
    """Record the inits of every runner.invert_multi call."""
    calls = []
    real = runner.invert_multi

    def invert_multi(*args):
        calls.append(args[5])
        return real(*args)

    monkeypatch.setattr(runner, "invert_multi", invert_multi)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rm_op=st.sampled_from(RM_KINDS),
    mechanism=st.sampled_from(entangle.MECHANISMS),
    restarts=st.integers(1, 4),
    num_targets=st.integers(1, 3),
    steps=st.integers(0, 5),
    rounds=st.integers(0, 1),
    lr=st.sampled_from([0.05, 1e4, 1e100, 1e200]),
)
def test_seed_stack_equals_the_per_target_attack(
    seed, rm_op, mechanism, restarts, num_targets, steps, rounds, lr
):
    inv, world, client = small_world(
        seed, rm_op, mechanism, restarts, num_targets, steps, rounds, lr
    )
    got = outcome(runner._attack_client, inv, world, client)
    want = outcome(one_row_client_attack, inv, world, client)
    assert got == want
    assert isinstance(want, list) or want is inversion.InversionFailure
    if lr == 0.05:
        assert isinstance(want, list)


def test_one_stack_per_seed(monkeypatch):
    calls = counting_invert_multi(monkeypatch)
    inv, world, client = small_world(restarts=3, num_targets=3)
    assert outcome(runner._attack_client, inv, world, client) == outcome(
        one_row_client_attack, inv, world, client
    )
    assert [c.shape for c in calls] == [(9 * 3, 1, 2)]


def nan_rows(monkeypatch, stack_rows, rows, at_call=1):
    """Give the chosen rows NaN outputs in the at_call-th forward_pass on
    the seed stack."""
    real = nets.forward_pass
    seen = []

    def forward(net, X):
        out, cache = real(net, X)
        if X.shape[0] == stack_rows:
            seen.append(X.shape)
            if len(seen) == at_call:
                out[rows] = np.nan
        return out, cache

    monkeypatch.setattr(inversion, "forward_pass", forward)
    return seen


def recorded_best_objectives(monkeypatch):
    """Record the per-start best objectives every descent returns."""
    recorded = []
    descend = inversion._descend

    def recording_descend(*args):
        best_x, best_obj = descend(*args)
        recorded.append(best_obj)
        return best_x, best_obj

    monkeypatch.setattr(inversion, "_descend", recording_descend)
    return recorded


@pytest.mark.parametrize("at_call", [1, 3, 6])
@pytest.mark.parametrize("rm_op", RM_KINDS)
def test_a_nan_row_mid_descent_drops_only_that_start(monkeypatch, rm_op, at_call):
    inv, world, client = small_world(rm_op=rm_op, restarts=3, num_targets=2, steps=5)
    targets, inits = seed_stack(inv, world, client)
    clean = runner._attack_client(inv, world, client)
    bad = 7  # the second start of the third target
    target = bad // inv.restarts
    seen = nan_rows(monkeypatch, len(inits), [bad], at_call)
    best_objs = recorded_best_objectives(monkeypatch)
    got = runner._attack_client(inv, world, client)
    assert len(seen) == inv.steps + 1 >= at_call  # the fault fired
    dropped = np.isinf(best_objs[0])
    assert list(np.flatnonzero(dropped)) == [bad]
    for t, (r, r_clean) in enumerate(zip(got, clean)):
        if t != target:
            assert r.reconstructed.tobytes() == r_clean.reconstructed.tobytes()
            assert (r.mse, r.psnr) == (r_clean.mse, r_clean.psnr)
    # the hit target's winner is the best of its other starts, each alone
    monkeypatch.undo()
    runs = [
        one_row_descent(client.extractor, client.rm, targets[target], inv.steps, inv.lr, inits[row])
        for row in range(target * inv.restarts, (target + 1) * inv.restarts)
        if row != bad
    ]
    best_x, _ = min(runs, key=lambda run: run[1])
    np.testing.assert_array_equal(got[target].reconstructed, best_x)


def seed_stack(inv, world, client):
    """The targets (T, u) and starts (rows, d) the seed stack descends."""
    captured = []
    real = inversion.invert_multi

    def capture(*args):
        captured.append(args)
        return real(*args)

    runner.invert_multi, saved = capture, runner.invert_multi
    try:
        runner._attack_client(inv, world, client)
    finally:
        runner.invert_multi = saved
    _, _, targets, _, _, inits = captured[0]
    return targets, inits[:, 0, :]


@pytest.mark.parametrize("fault", ["nan", "raise"])
@pytest.mark.parametrize("bad_row", [0, 3, -1])
def test_a_start_that_always_diverges_matches_the_per_target_attack(
    monkeypatch, fault, bad_row
):
    # a fault keyed on one start's init hits the stack and the oracle
    # alike: NaN drops that start in both, an error propagates from both
    inv, world, client = small_world(restarts=2, num_targets=2, steps=5)
    _, inits = seed_stack(inv, world, client)
    bad = inits[bad_row]
    real = nets.forward_pass

    def forward(net, X):
        hit = np.all(np.asarray(X) == bad, axis=-1)
        if hit.any() and fault == "raise":
            raise ValueError("inputs must be finite")
        out, cache = real(net, X)
        out[hit] = np.nan
        return out, cache

    monkeypatch.setattr(inversion, "forward_pass", forward)
    calls = counting_invert_multi(monkeypatch)
    got = outcome(runner._attack_client, inv, world, client)
    want = outcome(one_row_client_attack, inv, world, client)
    assert len(calls) == 1
    assert got == want
    assert got is ValueError if fault == "raise" else isinstance(got, list)


def test_a_target_whose_starts_all_diverge_fails_the_seed(monkeypatch):
    inv, world, client = small_world(restarts=3, num_targets=2, steps=5)
    targets, inits = seed_stack(inv, world, client)
    rows = [3, 4, 5]  # every start of the second target
    nan_rows(monkeypatch, len(inits), rows, at_call=2)
    best_objs = recorded_best_objectives(monkeypatch)
    assert outcome(runner._attack_client, inv, world, client) is inversion.InversionFailure
    assert list(np.flatnonzero(np.isinf(best_objs[0]))) == rows

    cfg = parse_config({
        "dataset": {"classes": 3, "per_class": 6, "dim": 2},
        "partition": {"mode": "pat", "categories_per_client": 3},
        "num_clients": 2,
        "rounds": 1,
        "unified_dim": 2,
        "architectures": [[4, 4], [6]],
        "seeds": [0, 1],
        "inversion": {"steps": 5, "num_targets": 2, "restarts": 3},
    })
    nan_rows(monkeypatch, len(inits), rows, at_call=2)
    study = runner.run_inversion_study(cfg)
    # the fault fires once, in seed 0's stack; seed 1 is attacked cleanly
    assert study.failed_seeds == [0]
    assert len(study.results) == len(targets)


def test_stacked_invert_rejects_misshapen_inits_and_targets():
    extractor = nets.init_dense([2, 4], [nets.RELU], np.random.default_rng(0))
    targets = np.zeros((3, 2))
    for bad_inits in (np.zeros((5, 1, 2)), np.zeros((2, 1, 2)), np.zeros((6, 2)),
                      np.zeros((6, 1, 3))):
        with pytest.raises(nets.ShapeError):
            inversion.invert(extractor, RMSpec("ap"), targets, 1, 0.1, bad_inits)
    with pytest.raises(nets.ShapeError):
        inversion.invert(extractor, RMSpec("ap"), targets[0], 1, 0.1, np.zeros((1, 1, 2)))
    with pytest.raises(nets.ShapeError):
        inversion.invert(extractor, RMSpec("ap"), np.zeros((0, 2)), 1, 0.1, np.zeros((0, 1, 2)))


def test_rm_backward_without_lr_leaves_the_fc_mapping_alone():
    """The attack's call: the input gradient of backprop on a stack, and
    the mapping's parameters untouched."""
    rng = np.random.default_rng(3)
    rm = RMSpec(FC, nets.init_dense([4, 2], [nets.IDENTITY], rng))
    before = nets.clone(rm.net)
    reps = rng.standard_normal((5, 1, 4))
    G = rng.standard_normal((5, 1, 2))
    _, cache = rm_apply(reps, rm, 2)
    _, grad_in = nets.backprop(rm.net, cache, G)
    np.testing.assert_array_equal(rm_backward(G, rm, cache), grad_in)
    assert net_params_equal(rm.net, before)
