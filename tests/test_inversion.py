"""Tests for white-box reconstruction and its scoring."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedre import inversion, nets
from fedre.entangle import AP, RMSpec, rm_apply


def linear_extractor(weight, bias=None):
    weight = np.asarray(weight, dtype=float)
    if bias is None:
        bias = np.zeros(weight.shape[0])
    return nets.DenseNet(layers=[nets.Layer(weight, np.asarray(bias, float), nets.IDENTITY)])


def objective(extractor, rm, x, target):
    out, _ = nets.forward_pass(extractor, np.asarray(x, float)[None, :])
    mapped, _ = rm_apply(out, rm, target.shape[0])
    return float(((mapped[0] - target) ** 2).sum())


def starts(extractor, seed, count=1, scale=1.0):
    """`count` attack starts drawn from a fresh rng, shape (count, 1, d)."""
    return inversion.draw_starts(extractor, np.random.default_rng(seed), count, scale)


def test_invert_recovers_input_of_invertible_linear_map():
    W = np.array([[2.0, 0.5], [-0.3, 1.5]])
    extractor = linear_extractor(W, [0.1, -0.2])
    rm = RMSpec(AP)
    x0 = np.array([0.8, -1.1])
    target = W @ x0 + np.array([0.1, -0.2])
    [rec] = inversion.invert(
        extractor, rm, target[None, :], steps=500, lr=0.05, inits=starts(extractor, 0)
    )
    np.testing.assert_allclose(rec, x0, atol=1e-4)
    mse, psnr = inversion.score(rec, x0, data_range=2.0)
    assert mse < 1e-8
    assert psnr > 80


def test_invert_zero_steps_returns_the_random_init():
    extractor = linear_extractor(np.eye(2))
    inits = starts(extractor, 5, scale=0.7)
    rec = inversion.invert(extractor, RMSpec(AP), np.zeros((1, 2)), steps=0, lr=0.1, inits=inits)
    np.testing.assert_array_equal(rec, 0.7 * np.random.default_rng(5).standard_normal((1, 2)))


def test_invert_returns_best_iterate_not_last():
    # lr chosen so the quadratic overshoots and oscillates outward; the best
    # visited point must still beat the start
    W = np.eye(2) * 3.0
    extractor = linear_extractor(W)
    rm = RMSpec(AP)
    target = np.array([1.0, 1.0])
    inits = starts(extractor, 1)
    with np.errstate(all="ignore"):
        [rec] = inversion.invert(extractor, rm, target[None, :], steps=40, lr=0.109, inits=inits)
    assert objective(extractor, rm, rec, target) <= objective(
        extractor, rm, inits[0, 0], target
    )


def test_invert_reduces_objective_through_relu_extractor():
    rng = np.random.default_rng(7)
    extractor = nets.init_dense([2, 8], [nets.RELU], rng)
    rm = RMSpec(AP)
    x0 = rng.standard_normal(2)
    out, _ = nets.forward_pass(extractor, x0[None, :])
    target, _ = rm_apply(out, rm, 4)
    inits = starts(extractor, 8)
    [rec] = inversion.invert(extractor, rm, target, steps=300, lr=0.05, inits=inits)
    assert objective(extractor, rm, rec, target[0]) < objective(
        extractor, rm, inits[0, 0], target[0]
    )


def test_invert_validates_arguments():
    extractor = linear_extractor(np.eye(2))
    inits = np.zeros((1, 1, 2))
    with pytest.raises(nets.ShapeError):
        inversion.invert(extractor, RMSpec(AP), np.zeros(2), 10, 0.1, inits)
    with pytest.raises(ValueError):
        inversion.invert(extractor, RMSpec(AP), np.array([[np.inf, 0.0]]), 10, 0.1, inits)


def test_attack_objective_matches_manual_computation():
    W = np.array([[2.0, 0.5], [-0.3, 1.5]])
    extractor = linear_extractor(W, [0.1, -0.2])
    rm = RMSpec(AP)
    x = np.array([0.4, -0.9])
    target = np.array([1.0, -1.0])
    obj, _ = inversion._objective_and_grad(extractor, rm, x[None, None, :], target)
    assert obj[0] == pytest.approx(objective(extractor, rm, x, target), abs=1e-15)


def test_invert_multi_single_restart_equals_invert():
    # one start per target: the stacked targets equal each target attacked alone
    extractor = linear_extractor(np.array([[2.0, 0.5], [-0.3, 1.5]]))
    rm = RMSpec(AP)
    targets = np.array([[0.7, 0.2], [-1.0, 0.4], [0.0, 3.0]])
    inits = starts(extractor, 3, count=3)
    rec = inversion.invert_multi(extractor, rm, targets, steps=50, lr=0.05, inits=inits)
    for t in range(3):
        twin = inversion.invert(extractor, rm, targets[t : t + 1], 50, 0.05, inits[t : t + 1])
        np.testing.assert_array_equal(rec[t], twin[0])


def test_invert_multi_keeps_the_lowest_objective_start():
    extractor = linear_extractor(np.array([[2.0, 0.5], [-0.3, 1.5]]))
    rm = RMSpec(AP)
    target = np.array([[0.7, 0.2]])
    inits = starts(extractor, 11, count=4)
    # steps=1 leaves each run near its own init, so the starts stay distinct
    [rec] = inversion.invert_multi(extractor, rm, target, steps=1, lr=0.01, inits=inits)
    candidates = [
        inversion.invert(extractor, rm, target, steps=1, lr=0.01, inits=inits[r : r + 1])[0]
        for r in range(4)
    ]
    objs = [objective(extractor, rm, c, target[0]) for c in candidates]
    np.testing.assert_array_equal(rec, candidates[int(np.argmin(objs))])


def test_invert_multi_rejects_zero_restarts():
    extractor = linear_extractor(np.eye(2))
    with pytest.raises(ValueError):
        inversion.invert_multi(
            extractor, RMSpec(AP), np.zeros((1, 2)), 5, 0.1, np.zeros((0, 1, 2))
        )


# ---------------------------------------------------------------- scoring


def test_score_known_values_and_min_over_originals():
    originals = np.array([[1.0, 1.0], [3.0, 3.0]])
    mse, psnr = inversion.score(np.zeros(2), originals, data_range=2.0)
    assert mse == pytest.approx(1.0)  # the nearer original wins
    assert psnr == pytest.approx(10.0 * math.log10(4.0))


def test_score_near_miss_is_finite_not_capped():
    mse, psnr = inversion.score(np.array([1.0 + 1e-8, 2.0]), np.array([1.0, 2.0]), 1.0)
    assert 0 < mse < 1e-15
    assert np.isfinite(psnr)


# offsets of a reconstruction from its original: exact, tiny, close, far
OFFSETS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e-150, max_value=1e-150),
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.floats(min_value=-10.0, max_value=10.0),
)


@given(
    st.lists(st.tuples(OFFSETS, OFFSETS), min_size=2, max_size=6),
    st.floats(min_value=1e-300, max_value=1e200),
)
@example([(1e-160, 0.0), (1e-150, 0.0)], 10.0)  # a subnormal mse overflows the ratio
@example([(0.5, 0.0), (1e-150, 0.0)], 1e200)  # data_range**2 overflows
@example([(0.5, 0.0), (1e-150, 0.0)], 1e-300)  # data_range**2 underflows
@settings(max_examples=200, deadline=None)
def test_psnr_never_rises_as_mse_falls(offsets, data_range):
    """Every PSNR is finite, and for MSEs a < b, psnr(a) >= psnr(b); an
    exact hit (MSE 0) is always among them."""
    original = np.zeros(2)  # so a hit's error is exactly its offset
    hits = [original] + [original + np.array(o) for o in offsets]
    scores = [inversion.score(hit, original, data_range) for hit in hits]
    assert scores[0][0] == 0.0
    for mse_a, psnr_a in scores:
        assert np.isfinite(psnr_a)
        for mse_b, psnr_b in scores:
            if mse_a < mse_b:
                assert psnr_a >= psnr_b


def test_an_exact_hit_scores_the_psnr_of_the_least_positive_mse():
    mse, psnr = inversion.score(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 10.0)
    assert mse == 0.0
    assert psnr == pytest.approx(20.0 + 3233.1, abs=0.1)
    near = inversion.score(np.array([1e-150, 2.0]), np.array([0.0, 2.0]), 10.0)
    assert 0.0 < near[0] and np.isfinite(near[1]) and psnr > near[1]


def test_a_data_range_whose_square_overflows_scores_in_logs():
    """data_range**2 overflows a Python float past about 1.3e154: the score
    is taken in logs, as for a subnormal mse, instead of raising."""
    mse, psnr = inversion.score([0.5], [0.0], 1e200)
    assert mse == 0.25
    assert psnr == 20.0 * np.log10(1e200) - 10.0 * np.log10(0.25)
    # a finite ratio keeps the plain formula's bits
    assert inversion.score([0.5], [0.0], 1e150) == (0.25, float(10.0 * np.log10(1e150**2 / 0.25)))


def test_a_data_range_whose_square_underflows_scores_in_logs():
    """data_range**2 underflows to 0 below about 1e-162: the score is taken
    in logs, finite, instead of reading -inf."""
    mse, psnr = inversion.score([0.5], [0.0], 1e-300)
    assert mse == 0.25
    assert psnr == 20.0 * np.log10(1e-300) - 10.0 * np.log10(0.25)


def test_score_validates_inputs():
    with pytest.raises(nets.ShapeError):
        inversion.score(np.zeros(2), np.zeros((1, 3)), 1.0)
    with pytest.raises(ValueError):
        inversion.score(np.zeros(2), np.zeros((0, 2)), 1.0)


def test_dataset_range():
    assert inversion.dataset_range(np.array([[0.0, 2.0], [5.0, 1.0]])) == 5.0
    assert inversion.dataset_range(np.zeros((3, 2))) == 1.0
