"""The seed stack: every attack target of a seed descends as one stack.

`runner._attack_client` makes all of a seed's draws first and descends all
targets' starts in one invert call. These tests hold it to the attack it
replaced, one target at a time (`helpers.per_target_attack`): same kinds,
same reconstruction bytes, same MSE and PSNR, also when the stack diverges
and the attack falls back to that loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import entangle, inversion, nets, runner
from fedre.config import parse_config
from fedre.entangle import FC, RM_KINDS, RMSpec, rm_apply, rm_backward

from helpers import per_target_attack


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
    clients, _, _, _ = runner.train(cfg, world)
    return cfg.inversion, world, clients[0]


def outcome(attack, inv, world, client):
    """[(kind, reconstruction bytes, mse, psnr, iterations)] or the exception type."""
    try:
        results = attack(inv, world, client)
    except (RuntimeError, ValueError) as e:
        return type(e)
    return [
        (r.target_kind, r.reconstructed.tobytes(), r.mse, r.psnr, r.iterations)
        for r in results
    ]


def counting_invert_multi(monkeypatch):
    """Record, per runner.invert_multi call, whether it attacked a seed stack."""
    calls = []
    real = runner.invert_multi

    def invert_multi(*args, **kwargs):
        calls.append("stack" if kwargs.get("inits") is not None else "target")
        return real(*args, **kwargs)

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
)
def test_seed_stack_equals_the_per_target_attack(
    seed, rm_op, mechanism, restarts, num_targets, steps, rounds
):
    inv, world, client = small_world(
        seed, rm_op, mechanism, restarts, num_targets, steps, rounds
    )
    got = outcome(runner._attack_client, inv, world, client)
    want = outcome(per_target_attack, inv, world, client)
    assert got == want
    assert isinstance(want, list)


def test_one_stack_per_seed(monkeypatch):
    calls = counting_invert_multi(monkeypatch)
    inv, world, client = small_world(restarts=3, num_targets=3)
    assert outcome(runner._attack_client, inv, world, client) == outcome(
        per_target_attack, inv, world, client
    )
    assert calls == ["stack"]


def one_shot_fault(monkeypatch, stack_rows, at_call, row, fault):
    """Break one row of the at_call-th forward_pass on the seed stack, once."""
    real = nets.forward_pass
    seen = []

    def forward(net, X):
        if X.shape[0] == stack_rows and len(seen) < at_call:
            seen.append(X.shape)
            if len(seen) == at_call:
                if fault == "raise":
                    raise ValueError("inputs must be finite")
                out, cache = real(net, X)
                out[row] = np.nan
                return out, cache
        return real(net, X)

    monkeypatch.setattr(inversion, "forward_pass", forward)
    return seen


@pytest.mark.parametrize("fault", ["nan", "raise"])
@pytest.mark.parametrize("rm_op", RM_KINDS)
def test_a_fault_mid_descent_falls_back_to_the_per_target_attack(monkeypatch, fault, rm_op):
    inv, world, client = small_world(rm_op=rm_op, restarts=3, num_targets=2, steps=5)
    want = outcome(per_target_attack, inv, world, client)
    calls = counting_invert_multi(monkeypatch)
    stack_rows = len(want) * inv.restarts
    seen = one_shot_fault(monkeypatch, stack_rows, at_call=3, row=7, fault=fault)
    got = outcome(runner._attack_client, inv, world, client)
    assert len(seen) == 3  # the fault fired, mid-descent
    assert calls == ["stack"] + ["target"] * len(want)
    assert got == want


def seed_stack_inits(inv, world, client):
    """The starts the seed stack descends, in row order."""
    captured = []
    real = inversion.invert_multi

    def capture(*args, **kwargs):
        captured.append(kwargs["inits"])
        return real(*args, **kwargs)

    runner.invert_multi, saved = capture, runner.invert_multi
    try:
        runner._attack_client(inv, world, client)
    finally:
        runner.invert_multi = saved
    return captured[0][:, 0, :]


@pytest.mark.parametrize("fault", ["nan", "raise"])
@pytest.mark.parametrize("bad_row", [0, 3, -1])
def test_a_start_that_always_diverges_matches_the_per_target_attack(
    monkeypatch, fault, bad_row
):
    # a fault keyed on one start's init hits the stack, the per-target
    # replay and the oracle alike: restarts must draw as the oracle's do
    inv, world, client = small_world(restarts=2, num_targets=2, steps=5)
    bad = seed_stack_inits(inv, world, client)[bad_row]
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
    want = outcome(per_target_attack, inv, world, client)
    assert calls[0] == "stack" and "target" in calls
    assert got == want
    if fault == "raise":
        assert got is ValueError


def test_stacked_invert_rejects_misshapen_inits_and_targets():
    extractor = nets.init_dense([2, 4], [nets.RELU], np.random.default_rng(0))
    targets = np.zeros((3, 2))
    with pytest.raises(nets.ShapeError):
        inversion.invert(extractor, RMSpec("ap"), targets, 1, 0.1, None, starts=2,
                         inits=np.zeros((5, 1, 2)))
    with pytest.raises(nets.ShapeError):
        inversion.invert(extractor, RMSpec("ap"), targets[0], 1, 0.1, None,
                         inits=np.zeros((1, 1, 2)))


def test_rm_backward_without_param_grads_gives_the_same_input_gradient():
    rng = np.random.default_rng(3)
    rm = RMSpec(FC, nets.init_dense([4, 2], [nets.IDENTITY], rng))
    reps = rng.standard_normal((5, 1, 4))
    G = rng.standard_normal((5, 1, 2))
    _, cache = rm_apply(reps, rm, 2)
    grad_in, fc_grads = rm_backward(G, rm, cache)
    grad_in_only, none = rm_backward(G, rm, cache, param_grads=False)
    assert fc_grads is not None and none is None
    np.testing.assert_array_equal(grad_in_only, grad_in)
