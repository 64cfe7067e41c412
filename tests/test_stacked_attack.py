"""Stacks of one-row batches: bitwise equal to one-row calls, row by row.

The seed attack descends the starts of all its targets as one stack of
one-row batches (see test_seed_attack.py). These tests hold the stack to
the one-start path: every layer, the attack objective and its gradient
match the 2-d one-row calls bit for bit. A multi-start attack without
`inits`, whose starts run one at a time, returns the same reconstruction
and leaves the rng in the same state as the unstacked reference,
divergence restarts included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import inversion, nets
from fedre.entangle import AP, FC, RM_KINDS, RMSpec, rm_apply, rm_backward

# ------------------------------------------------- the one-start reference


def one_row_objective_and_grad(extractor, rm, x, target):
    out, ext_cache = inversion.forward_pass(extractor, x[None, :])
    mapped, rm_cache = rm_apply(out, rm, target.shape[0])
    resid = mapped[0] - target
    obj = float(resid @ resid)
    grad_reps, _ = rm_backward((2.0 * resid)[None, :], rm, rm_cache)
    _, grad_x = nets.backprop(extractor, ext_cache, grad_reps)
    return obj, grad_x[0]


def one_start_invert(extractor, rm, target, steps, lr, rng, init_scale=1.0, max_restarts=3):
    """One start at a time, restarting on divergence: the unstacked attack."""
    for _ in range(max_restarts + 1):
        x = init_scale * rng.standard_normal(extractor.input_dim)
        best_x, best_obj = x.copy(), math.inf
        diverged = False
        for _ in range(steps):
            obj, grad = one_row_objective_and_grad(extractor, rm, x, target)
            if not math.isfinite(obj) or not np.isfinite(grad).all():
                diverged = True
                break
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
            x = x - lr * grad
        if diverged:
            continue
        final_obj, _ = one_row_objective_and_grad(extractor, rm, x, target)
        if math.isfinite(final_obj) and final_obj < best_obj:
            best_x = x.copy()
        return best_x
    raise inversion.InversionFailure("every restart diverged")


def sequential_invert_multi(extractor, rm, target, steps, lr, rng, init_scale=1.0, restarts=1):
    best, best_obj = None, math.inf
    for _ in range(restarts):
        rec = one_start_invert(extractor, rm, target, steps, lr, rng, init_scale)
        obj, _ = one_row_objective_and_grad(extractor, rm, rec, target)
        if obj < best_obj:
            best, best_obj = rec, obj
    return best


def outcome(fn, *args, **kwargs):
    """(result or exception type, final rng state) of an attack call."""
    rng = kwargs["rng"]
    try:
        result = fn(*args, **kwargs)
    except (inversion.InversionFailure, ValueError) as e:
        result = type(e)
    return result, rng.bit_generator.state


def assert_same_outcome(got, want):
    (result, state), (want_result, want_state) = got, want
    if isinstance(want_result, type):
        assert result is want_result
    else:
        np.testing.assert_array_equal(result, want_result)
    assert state == want_state


# ---------------------------------------------------------------- worlds


@st.composite
def attack_worlds(draw):
    """A small random relu extractor, a mapping, a target and R starts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(RM_KINDS))
    unified = draw(st.integers(1, 3))
    raw = draw(st.integers(1, 6)) if kind == FC else unified * draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(1, 6), max_size=1)) + [raw]
    extractor = nets.init_dense(sizes, [nets.RELU] * (len(sizes) - 1), rng)
    rm = RMSpec(FC, nets.init_dense([raw, unified], [nets.IDENTITY], rng)) if kind == FC else RMSpec(kind)
    target = rng.standard_normal(unified)
    X = rng.standard_normal((draw(st.integers(1, 8)), 1, sizes[0]))
    return extractor, rm, target, X


# ------------------------------------------------------ layers on stacks


@settings(max_examples=60, deadline=None)
@given(attack_worlds())
def test_layer_stacks_equal_2d_calls_row_by_row(world):
    extractor, rm, target, X = world
    unified = target.shape[0]
    out, cache = nets.forward_pass(extractor, X)
    mapped, rm_cache = rm_apply(out, rm, unified)
    G = np.random.default_rng(0).standard_normal(mapped.shape)
    grad_reps, fc_grads = rm_backward(G, rm, rm_cache)
    grads, grad_x = nets.backprop(extractor, cache, grad_reps)
    for r in range(X.shape[0]):
        out_r, cache_r = nets.forward_pass(extractor, X[r])
        np.testing.assert_array_equal(out[r], out_r)
        mapped_r, rm_cache_r = rm_apply(out_r, rm, unified)
        np.testing.assert_array_equal(mapped[r], mapped_r)
        grad_reps_r, fc_grads_r = rm_backward(G[r], rm, rm_cache_r)
        np.testing.assert_array_equal(grad_reps[r], grad_reps_r)
        if rm.kind == FC:
            for g, g_r in zip(fc_grads.weight_grads + fc_grads.bias_grads,
                              fc_grads_r.weight_grads + fc_grads_r.bias_grads):
                np.testing.assert_array_equal(g[r], g_r)
        grads_r, grad_x_r = nets.backprop(extractor, cache_r, grad_reps_r)
        np.testing.assert_array_equal(grad_x[r], grad_x_r)
        for g, g_r in zip(grads.weight_grads + grads.bias_grads,
                          grads_r.weight_grads + grads_r.bias_grads):
            np.testing.assert_array_equal(g[r], g_r)


@settings(max_examples=60, deadline=None)
@given(attack_worlds())
def test_stacked_objective_and_gradient_equal_one_row_calls(world):
    extractor, rm, target, X = world
    obj, grad = inversion._objective_and_grad(extractor, rm, X, target)
    assert obj.shape == (X.shape[0],) and grad.shape == X.shape
    for r in range(X.shape[0]):
        obj_r, grad_r = one_row_objective_and_grad(extractor, rm, X[r, 0], target)
        assert obj[r] == obj_r
        np.testing.assert_array_equal(grad[r, 0], grad_r)


@pytest.mark.parametrize("kind", RM_KINDS)
def test_one_d_inputs_still_raise_shape_error(kind):
    rng = np.random.default_rng(4)
    net = nets.init_dense([3, 4], [nets.RELU], rng)
    rm = RMSpec(FC, nets.init_dense([4, 2], [nets.IDENTITY], rng)) if kind == FC else RMSpec(kind)
    with pytest.raises(nets.ShapeError):
        nets.forward_pass(net, np.zeros(3))
    with pytest.raises(nets.ShapeError):
        rm_apply(np.zeros(4), rm, 2)
    out, cache = nets.forward_pass(net, np.zeros((1, 3)))
    with pytest.raises(nets.ShapeError):
        nets.backprop(net, cache, np.zeros(4))
    _, rm_cache = rm_apply(out, rm, 2)
    with pytest.raises(nets.ShapeError):
        rm_backward(np.zeros(2), rm, rm_cache)


# ------------------------------------------ the attack against the reference


@settings(max_examples=40, deadline=None)
@given(attack_worlds(), st.integers(0, 12), st.sampled_from([0.01, 0.05, 0.3]), st.integers(0, 2**16))
def test_stacked_invert_multi_equals_starts_run_one_by_one(world, steps, lr, seed):
    extractor, rm, target, X = world
    restarts = X.shape[0]
    got = outcome(inversion.invert_multi, extractor, rm, target, steps, lr,
                  rng=np.random.default_rng(seed), restarts=restarts)
    want = outcome(sequential_invert_multi, extractor, rm, target, steps, lr,
                   rng=np.random.default_rng(seed), restarts=restarts)
    assert_same_outcome(got, want)


def linear_extractor(weight):
    weight = np.asarray(weight, dtype=float)
    return nets.DenseNet([nets.Layer(weight, np.zeros(weight.shape[0]), nets.IDENTITY)])


@pytest.mark.parametrize("steps", [3, 4])
def test_objective_ties_keep_the_earliest_iterate(steps):
    # x -> x - 1.0 * 2x = -x: every iterate of a start ties with its init;
    # odd steps end on -x (a tie at the final check), even ones inside the loop
    extractor = linear_extractor([[1.0]])
    args = (extractor, RMSpec(AP), np.zeros(1), steps, 1.0)
    got = outcome(inversion.invert_multi, *args, rng=np.random.default_rng(6), restarts=3)
    want = outcome(sequential_invert_multi, *args, rng=np.random.default_rng(6), restarts=3)
    assert_same_outcome(got, want)
    inits = np.random.default_rng(6).standard_normal(3)
    np.testing.assert_array_equal(got[0], [inits[np.argmin(inits**2)]])


def test_every_start_diverging_fails_like_starts_run_one_by_one():
    extractor = linear_extractor(np.eye(2) * 10.0)
    args = (extractor, RMSpec(AP), np.zeros(2), 200, 1e12)
    with np.errstate(all="ignore"):
        got = outcome(inversion.invert_multi, *args, rng=np.random.default_rng(2), restarts=3)
        want = outcome(sequential_invert_multi, *args, rng=np.random.default_rng(2), restarts=3)
    assert got[0] is inversion.InversionFailure
    assert_same_outcome(got, want)


def faulty_forward(bad_row, fault, hits):
    """forward_pass that breaks every row equal to bad_row; counts calls hit."""
    real = nets.forward_pass

    def forward(net, X):
        hit = np.all(np.asarray(X) == bad_row, axis=-1)
        if hit.any():
            hits.append(X.shape)
            if fault == "raise":
                raise ValueError("inputs must be finite")
        out, cache = real(net, X)
        out[hit] = np.nan
        return out, cache

    return forward


@pytest.mark.parametrize("fault", ["nan", "raise"])
@pytest.mark.parametrize("bad_start", [0, 2, 4])
def test_one_diverging_start_replays_like_starts_run_one_by_one(monkeypatch, fault, bad_start):
    rng = np.random.default_rng(21)
    extractor = nets.init_dense([3, 6, 4], [nets.RELU, nets.RELU], rng)
    rm = RMSpec(AP)
    target = rng.standard_normal(2)
    restarts = 5
    # the init of the chosen start, as the attack will draw it
    bad_row = np.random.default_rng(8).standard_normal((restarts, 3))[bad_start]
    hits = []
    monkeypatch.setattr(inversion, "forward_pass", faulty_forward(bad_row, fault, hits))
    args = (extractor, rm, target, 30, 0.05)
    got = outcome(inversion.invert_multi, *args, rng=np.random.default_rng(8), restarts=restarts)
    # the starts run one at a time
    assert hits and all(shape == (1, 1, 3) for shape in hits)
    want = outcome(sequential_invert_multi, *args, rng=np.random.default_rng(8), restarts=restarts)
    assert_same_outcome(got, want)
    if fault == "nan":
        # the diverged start restarted from a fresh init and the attack went on
        assert not isinstance(got[0], type)
    else:
        # an overflowing iterate is an error, raised at the same rng position
        assert got[0] is ValueError
