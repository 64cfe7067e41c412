"""Stacks of one-row batches: bitwise equal to one-row calls, row by row.

The seed attack descends the starts of all its targets as one stack of
one-row batches (see test_seed_attack.py). These tests hold the stack to
the one-start path: every layer, the attack objective and its gradient
match the 2-d one-row calls bit for bit, and `invert` returns what the
starts descending alone return (`helpers.one_row_attack`), a diverging
start dropped in both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import inversion, nets
from fedre.entangle import AP, FC, RM_KINDS, RMSpec, rm_apply, rm_backward

from helpers import one_row_attack, one_row_objective_and_grad


def outcome(fn, *args):
    """The attack's result, or its exception type."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (inversion.InversionFailure, ValueError) as e:
        return type(e)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


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
    grad_reps = rm_backward(G, rm, rm_cache)
    grads, grad_x = nets.backprop(extractor, cache, grad_reps)
    for r in range(X.shape[0]):
        out_r, cache_r = nets.forward_pass(extractor, X[r])
        np.testing.assert_array_equal(out[r], out_r)
        mapped_r, rm_cache_r = rm_apply(out_r, rm, unified)
        np.testing.assert_array_equal(mapped[r], mapped_r)
        grad_reps_r = rm_backward(G[r], rm, rm_cache_r)
        np.testing.assert_array_equal(grad_reps[r], grad_reps_r)
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


@settings(max_examples=60, deadline=None)
@given(
    attack_worlds(),
    st.integers(1, 3),
    st.integers(0, 12),
    st.sampled_from([0.01, 0.05, 0.3, 1e8, 1e200]),
    st.integers(0, 2**16),
)
def test_stacked_invert_multi_equals_starts_run_one_by_one(world, num_targets, steps, lr, seed):
    extractor, rm, target, X = world
    rng = np.random.default_rng(seed)
    targets = np.vstack([target, rng.standard_normal((num_targets - 1, len(target)))])
    inits = np.vstack([X, rng.standard_normal(((num_targets - 1) * len(X),) + X.shape[1:])])
    args = (extractor, rm, targets, steps, lr, inits)
    assert_same_outcome(outcome(inversion.invert_multi, *args), outcome(one_row_attack, *args))


def linear_extractor(weight):
    weight = np.asarray(weight, dtype=float)
    return nets.DenseNet([nets.Layer(weight, np.zeros(weight.shape[0]), nets.IDENTITY)])


@pytest.mark.parametrize("steps", [3, 4])
def test_objective_ties_keep_the_earliest_iterate(steps):
    # x -> x - 1.0 * 2x = -x: every iterate of a start ties with its init;
    # odd steps end on -x (a tie at the final check), even ones inside the loop
    extractor = linear_extractor([[1.0]])
    inits = np.random.default_rng(6).standard_normal((3, 1, 1))
    args = (extractor, RMSpec(AP), np.zeros((1, 1)), steps, 1.0, inits)
    got = outcome(inversion.invert_multi, *args)
    assert_same_outcome(got, outcome(one_row_attack, *args))
    np.testing.assert_array_equal(got, inits[np.argmin(inits[:, 0, 0] ** 2)])


def test_every_start_diverging_fails_like_starts_run_one_by_one():
    extractor = linear_extractor(np.eye(2) * 10.0)
    inits = np.random.default_rng(2).standard_normal((3, 1, 2))
    args = (extractor, RMSpec(AP), np.zeros((1, 2)), 200, 1e12, inits)
    got = outcome(inversion.invert_multi, *args)
    assert got is inversion.InversionFailure
    assert_same_outcome(got, outcome(one_row_attack, *args))


def test_an_overflowing_iterate_is_dropped_before_forward_pass_sees_it(monkeypatch):
    # lr 1e308 times a gradient of about 2 overflows; the start sitting on
    # the target has gradient 0 and stays put
    extractor = linear_extractor(np.eye(2))
    target = np.array([[1.0, -1.0]])
    inits = np.array([[[0.0, 0.0]], [[1.0, -1.0]], [[3.0, 2.0]]])
    seen = []
    real = nets.forward_pass

    def forward(net, X):
        seen.append(bool(np.isfinite(X).all()))
        return real(net, X)

    monkeypatch.setattr(inversion, "forward_pass", forward)
    best_objs = []
    descend = inversion._descend

    def recording_descend(*args):
        best_x, best_obj = descend(*args)
        best_objs.append(best_obj)
        return best_x, best_obj

    monkeypatch.setattr(inversion, "_descend", recording_descend)
    args = (extractor, RMSpec(AP), target, 3, 1e308, inits)
    got = outcome(inversion.invert_multi, *args)
    np.testing.assert_array_equal(got, target)
    assert all(seen) and len(seen) == 4
    np.testing.assert_array_equal(best_objs, [[np.inf, 0.0, np.inf]])
    assert_same_outcome(got, outcome(one_row_attack, *args))


def test_an_overflowing_fc_start_matches_one_row_calls_and_leaves_forward_output_alone(monkeypatch):
    # the first unit of start 1e10 overflows to inf; an fc mapping's
    # forward_pass rejects that, so the objective zeroes the row in a copy:
    # the extractor's output is also the source of its cache's relu masks
    extractor = nets.DenseNet([nets.Layer([[1e300], [1.0]], [0.0, 0.0], nets.RELU)])
    rm = RMSpec(FC, nets.init_dense([2, 2], [nets.IDENTITY], np.random.default_rng(3)))
    target = np.array([[0.5, -0.25]])
    inits = np.array([[[1e-300]], [[1e10]], [[-0.5]], [[2e-300]]])
    outputs = []
    real = nets.forward_pass

    def forward(net, X):
        out, cache = real(net, X)
        outputs.append((out, out.tobytes()))
        return out, cache

    monkeypatch.setattr(inversion, "forward_pass", forward)
    args = (extractor, rm, target, 4, 0.05, inits)
    got = outcome(inversion.invert_multi, *args)
    assert not np.isfinite(outputs[0][0]).all()
    assert all(out.tobytes() == seen for out, seen in outputs)
    assert_same_outcome(got, outcome(one_row_attack, *args))
