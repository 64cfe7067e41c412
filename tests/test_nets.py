"""Unit tests for the dense-net core: forwards, losses, gradients, SGD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedre import nets

from helpers import max_rel_error, numeric_gradients, random_net, softmax


def ce_at_logits(z, t):
    """(loss, gradient with respect to the logits) of ce_value_and_grads on
    one row whose logits are z: a net with zero weights and bias z."""
    z = np.asarray(z, dtype=float)
    net = nets.DenseNet([nets.Layer(np.zeros((z.size, 1)), z, nets.IDENTITY)])
    loss, grads = nets.ce_value_and_grads(net, np.zeros((1, 1)), np.asarray(t, float)[None, :])
    return loss, grads.bias_grads[0]


def softmax_at(z):
    """The softmax inside ce_value_and_grads: its logit gradient at a zero
    target."""
    return ce_at_logits(z, np.zeros(len(z)))[1]


def row_grads(net, x, target):
    """ce_value_and_grads on the one-row batch x, the path the server runs."""
    return nets.ce_value_and_grads(net, x[None, :], np.asarray(target, float)[None, :])[1]


def test_one_hot_basic():
    assert nets.one_hot_matrix([2], 4).tolist() == [[0.0, 0.0, 1.0, 0.0]]
    M = nets.one_hot_matrix(np.array([0, 3, 1]), 4)
    assert M.shape == (3, 4)
    assert M.sum() == 3.0
    assert M[1, 3] == 1.0
    assert nets.one_hot_matrix([], 4).shape == (0, 4)


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        nets.one_hot_matrix([4], 4)
    with pytest.raises(ValueError):
        nets.one_hot_matrix([0, -1], 4)


def test_identity_single_layer_forward_is_affine():
    rng = np.random.default_rng(0)
    net = nets.init_dense([3, 2], [nets.IDENTITY], rng)
    x = np.array([0.5, -1.0, 2.0])
    out, _ = nets.forward_pass(net, x[None, :])
    expected = net.layers[0].weight @ x + net.layers[0].bias
    np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-15)


def test_relu_layer_clamps_negative_preactivations():
    layer = nets.Layer(
        weight=np.array([[1.0, 0.0], [0.0, 1.0]]),
        bias=np.array([0.0, 0.0]),
        activation=nets.RELU,
    )
    net = nets.DenseNet(layers=[layer])
    out, cache = nets.forward_pass(net, np.array([[-3.0, 2.0]]))
    assert out.tolist() == [[0.0, 2.0]]
    # the cache holds the layer's input and its clamped output, nothing else
    assert [a.tolist() for a in cache.activations] == [[[-3.0, 2.0]], [[0.0, 2.0]]]
    assert cache.activations[-1] is out


def test_glorot_init_bounds_and_zero_bias():
    rng = np.random.default_rng(11)
    net = nets.init_dense([20, 30, 5], [nets.RELU, nets.IDENTITY], rng)
    for layer in net.layers:
        fan_out, fan_in = layer.weight.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(layer.weight) <= limit)
        assert np.all(layer.bias == 0.0)
    # swapping the rng seed must change the draw
    other = nets.init_dense([20, 30, 5], [nets.RELU, nets.IDENTITY], np.random.default_rng(12))
    assert not np.array_equal(net.layers[0].weight, other.layers[0].weight)


def test_softmax_uniform_on_equal_logits():
    p = softmax_at(np.zeros(5))
    np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)


def test_softmax_handles_large_logits():
    p = softmax_at(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
    assert p[0] > 0.999


def test_cross_entropy_two_way_tie_is_ln2():
    # equal logits with a hard label: -log(1/2)
    loss, _ = ce_at_logits(np.zeros(2), np.array([1.0, 0.0]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_extreme_logits_stay_finite():
    loss, _ = ce_at_logits(np.array([1000.0, 0.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-12)
    wrong, _ = ce_at_logits(np.array([1000.0, 0.0]), np.array([0.0, 1.0]))
    assert wrong == pytest.approx(1000.0, rel=1e-9)


def test_cross_entropy_never_negative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = rng.normal(size=4) * 10
        t = rng.random(4)
        t /= t.sum()
        assert ce_at_logits(z, t)[0] >= 0.0


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_is_simplex_point(dim, seed):
    z = np.random.default_rng(seed).normal(size=dim) * 5
    p = softmax_at(z)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-9


def test_backward_output_bias_gradient_is_softmax_minus_target():
    rng = np.random.default_rng(5)
    net = random_net(rng, [3, 6, 2])
    x = rng.normal(size=3)
    target = np.array([0.3, 0.7])
    out, _ = nets.forward_pass(net, x[None, :])
    grads = row_grads(net, x, target)
    assert grads.matches(net)
    # gradient of CE wrt logits at the output layer is softmax - target
    np.testing.assert_allclose(
        grads.bias_grads[-1], softmax(out[0]) - target, atol=1e-12
    )


def test_backward_without_forward_equals_forward_then_backward():
    rng = np.random.default_rng(7)
    net = random_net(rng, [3, 4, 2])
    x, other = rng.normal(size=3), rng.normal(size=3)
    target = np.array([1.0, 0.0])
    alone = row_grads(net, x, target)
    nets.forward_pass(net, other[None, :])
    nets.forward_pass(net, x[None, :])
    after = row_grads(net, x, target)
    for a, b in zip(alone.weight_grads + alone.bias_grads, after.weight_grads + after.bias_grads):
        np.testing.assert_array_equal(a, b)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        sizes = [2, 8, 3]
        net = random_net(rng, sizes)
        x = rng.normal(size=2)
        t = rng.random(3)
        t /= t.sum()
        analytic = row_grads(net, x, t)
        numeric = numeric_gradients(net, x, t)
        worst = max(worst, max_rel_error(analytic, numeric))
    assert worst < 1e-4


def test_relu_gradient_uses_preactivation_sign():
    # single relu unit: d/dw of relu(w*x) is x when w*x > 0, else 0
    layer = nets.Layer(
        weight=np.array([[1.0]]), bias=np.array([0.0]), activation=nets.RELU
    )
    head = nets.Layer(
        weight=np.array([[1.0]]), bias=np.array([0.0]), activation=nets.IDENTITY
    )
    net = nets.DenseNet(layers=[layer, head])
    _, cache = nets.forward_pass(net, np.array([[-2.0]]))
    grads, _ = nets.backprop(net, cache, np.array([[1.0]]))
    assert grads.weight_grads[0][0, 0] == 0.0
    _, cache = nets.forward_pass(net, np.array([[2.0]]))
    grads, _ = nets.backprop(net, cache, np.array([[1.0]]))
    assert grads.weight_grads[0][0, 0] == 2.0


def test_batch_gradients_equal_mean_of_per_sample():
    rng = np.random.default_rng(77)
    net = random_net(rng, [4, 10, 3])
    X = rng.normal(size=(9, 4))
    T = rng.random((9, 3))
    T /= T.sum(axis=1, keepdims=True)
    _, batch_grads = nets.ce_value_and_grads(net, X, T)
    # oracle: average of independently computed per-sample gradients
    acc = None
    for i in range(X.shape[0]):
        out, cache = nets.forward_pass(net, X[i : i + 1])
        g = softmax(out) - T[i : i + 1]
        gi, _ = nets.backprop(net, cache, g)
        if acc is None:
            acc = gi
        else:
            acc = nets.GradientSet(
                [a + b for a, b in zip(acc.weight_grads, gi.weight_grads)],
                [a + b for a, b in zip(acc.bias_grads, gi.bias_grads)],
            )
    n = X.shape[0]
    for bw, pw in zip(batch_grads.weight_grads, acc.weight_grads):
        np.testing.assert_allclose(bw, pw / n, atol=1e-12)
    for bb, pb in zip(batch_grads.bias_grads, acc.bias_grads):
        np.testing.assert_allclose(bb, pb / n, atol=1e-12)


def test_sgd_step_zero_lr_is_identity():
    rng = np.random.default_rng(8)
    net = random_net(rng, [3, 5, 2])
    x = rng.normal(size=3)
    grads = row_grads(net, x, np.array([1.0, 0.0]))
    stepped = nets.sgd_step(net, grads, 0.0)
    for la, lb in zip(net.layers, stepped.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)


def test_sgd_step_subtracts_scaled_gradient():
    rng = np.random.default_rng(9)
    net = random_net(rng, [2, 3])
    grads = nets.GradientSet(
        [np.ones_like(net.layers[0].weight)], [np.ones_like(net.layers[0].bias)]
    )
    stepped = nets.sgd_step(net, grads, 0.25)
    np.testing.assert_allclose(
        stepped.layers[0].weight, net.layers[0].weight - 0.25, atol=1e-15
    )
    np.testing.assert_allclose(stepped.layers[0].bias, net.layers[0].bias - 0.25, atol=1e-15)


def test_sgd_step_does_not_mutate_input():
    rng = np.random.default_rng(10)
    net = random_net(rng, [2, 3])
    before = net.layers[0].weight.copy()
    grads = nets.GradientSet(
        [np.ones_like(net.layers[0].weight)], [np.ones_like(net.layers[0].bias)]
    )
    nets.sgd_step(net, grads, 0.5)
    np.testing.assert_array_equal(net.layers[0].weight, before)


def test_sgd_step_leaves_the_gradients_untouched():
    # the in-place kernel scales the gradients it steps with; sgd_step must
    # hand it copies, never the caller's arrays
    rng = np.random.default_rng(11)
    net = random_net(rng, [3, 4, 2])
    grads = nets.GradientSet(
        [rng.normal(size=l.weight.shape) for l in net.layers],
        [rng.normal(size=l.bias.shape) for l in net.layers],
    )
    before = [g.copy() for g in grads.weight_grads + grads.bias_grads]
    nets.sgd_step(net, grads, 0.5)
    for g, want in zip(grads.weight_grads + grads.bias_grads, before):
        np.testing.assert_array_equal(g, want)


def test_sgd_step_rejects_negative_lr_and_bad_shapes():
    rng = np.random.default_rng(12)
    net = random_net(rng, [2, 3])
    good = nets.GradientSet(
        [np.zeros_like(net.layers[0].weight)], [np.zeros_like(net.layers[0].bias)]
    )
    with pytest.raises(ValueError):
        nets.sgd_step(net, good, -0.1)
    bad = nets.GradientSet([np.zeros((1, 1))], [np.zeros(1)])
    with pytest.raises(nets.ShapeError):
        nets.sgd_step(net, bad, 0.1)


def test_sgd_step_raises_on_nonfinite_result():
    rng = np.random.default_rng(13)
    net = random_net(rng, [2, 3])
    blowup = nets.GradientSet(
        [np.full_like(net.layers[0].weight, np.inf)],
        [np.zeros_like(net.layers[0].bias)],
    )
    with pytest.raises(nets.DivergedError):
        nets.sgd_step(net, blowup, 1.0)


def test_training_reduces_loss_on_separable_toy():
    rng = np.random.default_rng(99)
    X = np.concatenate([rng.normal(-2, 0.3, size=(20, 2)), rng.normal(2, 0.3, size=(20, 2))])
    T = nets.one_hot_matrix(np.array([0] * 20 + [1] * 20), 2)
    net = random_net(rng, [2, 8, 2])
    first, _ = nets.ce_value_and_grads(net, X, T)
    loss = first
    for _ in range(200):
        loss, grads = nets.ce_value_and_grads(net, X, T)
        net = nets.sgd_step(net, grads, 0.5)
    assert loss < first * 0.2


def test_dense_net_rejects_dimension_mismatch():
    l1 = nets.Layer(np.zeros((3, 2)), np.zeros(3), nets.RELU)
    l2 = nets.Layer(np.zeros((4, 5)), np.zeros(4), nets.IDENTITY)
    with pytest.raises(nets.ShapeError):
        nets.DenseNet(layers=[l1, l2])


def test_forward_pass_rejects_wrong_input_width():
    rng = np.random.default_rng(14)
    net = random_net(rng, [3, 2])
    with pytest.raises(nets.ShapeError):
        nets.forward_pass(net, np.zeros((4, 5)))
