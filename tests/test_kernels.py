"""The nets and entangle kernels against their plain formulas, byte for byte.

The kernels make the floating-point operations of the formulas in helpers
(reference_forward, reference_backward, reference_ce, reference_rm_apply and
reference_rm_backward) in fewer numpy calls: ufunc.reduce for reductions and
in-place updates of the arrays they allocate. Each property compares the
results with tobytes(), so a flipped sign of zero counts as a difference,
and checks that the call changed none of the arrays it was given. The draws
cover 2-d batches and stacks of one-row batches, relu and identity layers,
every mapping kind, signed zeros, subnormals, values whose products overflow
and, for the logits, infinities. reference_backward reads the relu mask from
the pre-activations (z > 0), so the kernels' mask, read from each relu
layer's output, is held to it on the same draws, NaN and infinities included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedre import nets
from fedre.entangle import AP, FC, MP, RM_KINDS, RMSpec, rm_apply, rm_backward

from helpers import (
    reference_backward,
    reference_ce,
    reference_forward,
    reference_rm_apply,
    reference_rm_backward,
)

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324]),
    st.floats(min_value=-10.0, max_value=10.0),
)
LOGITS = st.one_of(FINITE, st.sampled_from([np.inf, -np.inf]))


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def all_same(got, want):
    return len(got) == len(want) and all(same(a, b) for a, b in zip(got, want))


def snapshot(*arrays):
    return [a.tobytes() for a in arrays]


def net_arrays(net):
    return [a for l in net.layers for a in (l.weight, l.bias)]


@st.composite
def dense_nets(draw, sizes=None):
    sizes = sizes or draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    layers = [
        nets.Layer(
            draw(arrays(np.float64, (fan_out, fan_in), elements=FINITE)),
            draw(arrays(np.float64, (fan_out,), elements=FINITE)),
            draw(st.sampled_from(nets.ACTIVATIONS)),
        )
        for fan_in, fan_out in zip(sizes, sizes[1:])
    ]
    return nets.DenseNet(layers)


@st.composite
def batches(draw, d):
    """A 2-d batch (n, d) or a stack of one-row batches (R, 1, d)."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 5)), 1, d)
    else:
        shape = (draw(st.integers(1, 10)), d)
    return draw(arrays(np.float64, shape, elements=FINITE))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forward_equals_the_plain_formula(data):
    net = data.draw(dense_nets())
    X = data.draw(batches(net.input_dim))
    before = snapshot(X, *net_arrays(net))
    with np.errstate(all="ignore"):
        out, cache = nets._forward(net, X)
        want, want_cache, _ = reference_forward(net, X)
    assert same(out, want)
    assert all_same(cache.activations, want_cache.activations)
    assert cache.activations[0] is X and cache.activations[-1] is out
    assert snapshot(X, *net_arrays(net)) == before


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_backward_equals_the_plain_formula(data, param_grads, input_grad):
    net = data.draw(dense_nets())
    X = data.draw(batches(net.input_dim))
    with np.errstate(all="ignore"):
        _, cache, pre = reference_forward(net, X)
    delta = data.draw(arrays(np.float64, X.shape[:-1] + (net.output_dim,), elements=FINITE))
    given_arrays = [delta, *cache.activations, *net_arrays(net)]
    before = snapshot(*given_arrays)
    with np.errstate(all="ignore"):
        grads, grad_in = nets._backward(net, cache, delta, param_grads, input_grad)
        want, want_in = reference_backward(net, cache, pre, delta, param_grads, input_grad)
    if param_grads:
        assert all_same(grads.weight_grads, want.weight_grads)
        assert all_same(grads.bias_grads, want.bias_grads)
    else:
        assert grads is None and want is None
    assert (grad_in is None) == (want_in is None) == (not input_grad)
    assert grad_in is None or same(grad_in, want_in)
    assert snapshot(*given_arrays) == before


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans(), st.sampled_from([0.0, 0.05, 0.5, 1e300]))
def test_backward_with_lr_steps_like_the_plain_sgd_formula(data, input_grad, lr):
    """Given lr, the backward returns no gradients, the input gradient of
    the unstepped net, and leaves each layer at w - lr * gw, b - lr * gb. It
    consumes delta, and only delta, of the arrays it is given."""
    net = data.draw(dense_nets())
    n = data.draw(st.integers(1, 10))  # a step takes one 2-d batch
    X = data.draw(arrays(np.float64, (n, net.input_dim), elements=FINITE))
    with np.errstate(all="ignore"):
        _, cache, pre = reference_forward(net, X)
    delta = data.draw(arrays(np.float64, (n, net.output_dim), elements=FINITE))
    before = snapshot(*cache.activations)
    stepped = nets.clone(net)
    with np.errstate(all="ignore"):
        want, want_in = reference_backward(net, cache, pre, delta, True, input_grad)
        grads, grad_in = nets._backward(stepped, cache, delta, input_grad=input_grad, lr=np.array(lr))
        want_arrays = [
            p - lr * g
            for l, gw, gb in zip(net.layers, want.weight_grads, want.bias_grads)
            for p, g in ((l.weight, gw), (l.bias, gb))
        ]
    assert grads is None
    assert (grad_in is None) == (not input_grad)
    assert grad_in is None or same(grad_in, want_in)
    assert all_same(net_arrays(stepped), want_arrays)
    assert snapshot(*cache.activations) == before


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ce_equals_the_plain_formula(data):
    n, c = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 12))
    z = data.draw(arrays(np.float64, (n, c), elements=LOGITS))
    t = data.draw(arrays(np.float64, (n, c), elements=st.floats(min_value=0.0, max_value=1.0)))
    before = snapshot(z, t)
    with np.errstate(all="ignore"):
        loss, grad = nets._ce(z, t)
        want_loss, want_grad = reference_ce(z, t)
    assert type(loss) is float and same(loss, want_loss)
    assert same(grad, want_grad)
    assert snapshot(z, t) == before


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(RM_KINDS), st.sampled_from([None, 0.0, 0.05, 1e300]))
def test_rm_kernels_equal_the_plain_formulas(data, kind, lr):
    """Block sizes up to 9 cross the 8 terms at which numpy's sum switches
    to pairwise summation. Without lr the backward leaves an fc mapping as
    it is; given lr (a step takes one 2-d batch), it leaves each layer at
    w - lr * gw, b - lr * gb and may consume the gradient it is given."""
    unified = data.draw(st.integers(1, 3))
    if kind == FC:
        raw = data.draw(st.integers(1, 5))
        rm = RMSpec(FC, data.draw(dense_nets([raw, unified])))
    else:
        raw = unified * data.draw(st.integers(1, 9))
        rm = RMSpec(kind)
    if lr is None:
        R = data.draw(batches(raw))
    else:
        R = data.draw(arrays(np.float64, (data.draw(st.integers(1, 10)), raw), elements=FINITE))
    fc_arrays = net_arrays(rm.net) if kind == FC else []
    before = snapshot(R, *fc_arrays)
    with np.errstate(all="ignore"):
        mapped, cache = rm_apply(R, rm, unified)
        want, aux = reference_rm_apply(R, rm, unified)
    assert same(mapped, want)
    if kind == AP:
        assert cache == raw // unified
    elif kind == MP:
        assert cache[0] == raw // unified and same(cache[1], aux)
    assert snapshot(R, *fc_arrays) == before
    g = data.draw(arrays(np.float64, mapped.shape, elements=FINITE))
    steps = kind == FC and lr is not None
    kept = [R, mapped] if steps else [R, mapped, g, *fc_arrays]
    before = snapshot(*kept)
    with np.errstate(all="ignore"):
        want_raw, want_fc = reference_rm_backward(g, rm, raw // unified, aux)
        if steps:
            want_arrays = [
                p - lr * gp
                for l, gw, gb in zip(rm.net.layers, want_fc.weight_grads, want_fc.bias_grads)
                for p, gp in ((l.weight, gw), (l.bias, gb))
            ]
        grad_raw = rm_backward(g, rm, cache, lr=None if lr is None else np.array(lr))
    assert same(grad_raw, want_raw)
    if steps:
        assert all_same(fc_arrays, want_arrays)
    assert snapshot(*kept) == before
