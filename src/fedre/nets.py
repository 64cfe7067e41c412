"""Dense feedforward networks with hand-written gradients.

Plain-numpy building blocks shared by the client extractors, the shared
classifier, and the input-reconstruction attack: fully connected layers with
relu or identity activations, a max-shifted soft-label cross-entropy, exact
analytic gradients, and vanilla SGD.

A net has one form, a ``DenseNet`` of validated ``Layer`` objects, and no
mutable slot: ``forward_pass``, ``backprop`` and ``ce_value_and_grads`` are
pure, and ``sgd_step`` returns an updated copy without touching the net or
the gradients it is given.
There is one loss, the mean soft-label cross-entropy of a batch.

The dense-layer math exists once, in private kernels that read
``net.layers``: ``_forward``, ``_backward`` (parameter gradients, the input
gradient, or both), ``_ce`` (the loss optional, the gradient always) and
``_step``, one layer's in-place SGD step.
``forward_pass``, ``backprop``, ``ce_value_and_grads`` and ``sgd_step`` are
thin wrappers that validate their inputs and call them. A ``BatchCache``
holds one array per layer boundary, each layer's input, then the output.
``_forward`` applies relu in place, so a relu layer's mask is read from its
output: ``a > 0`` equals ``z > 0``, NaN, signed zeros and infinities
included. Given ``lr``, ``_backward`` steps each layer as soon as its input
gradient is computed from the unstepped weight: a training step holds one
layer's gradient at a time and builds no ``GradientSet``.

In-place rule: a kernel writes in place only to arrays it allocated itself,
never to one it is given (inputs, targets, a gradient to propagate), so its
caller may reuse a returned array in place, except a forward's output: it
belongs to its cache, as the source of the relu masks. ``_step`` consumes
the gradients it is given, and a stepping ``_backward`` its delta. Small
batches make the kernels bound by per-call numpy overhead, so they do their
arithmetic in few calls (``ufunc.reduce``, in-place updates), bitwise equal
to the plain formulas the tests keep.

Validation boundary: ``Layer``/``DenseNet`` validate on construction and the
public functions here validate their inputs; the kernels check nothing. The
update loops in ``protocol`` clone each net once, step the clone's layer
arrays in place through the backward, check finiteness per step on the loss
(before the backward) and the activations, and call ``_check_trained`` once
per update on the parameters (``DivergedError`` if any is non-finite). The
server's steps compute no loss when a bound on its inputs proves every loss
of the update finite (``protocol._losses_bounded``): there the check could
never fire.

Batches and stacks: ``forward_pass`` and ``backprop`` take a batch of rows,
shape (n, d), or a stack of batches, shape (*lead, n, d); every leading
dimension is a stack dimension and the last axis holds the features. A
stack of one-row batches, shape (R, 1, d), makes numpy loop over R one-row
products, so row r of a stacked call is bitwise equal to a 2-d call on that
row alone (a 2-d (R, d) batch would go through a different BLAS kernel and
round differently). Parameter gradients of a stack keep the stack
dimensions: one gradient per batch, not their sum.
"""

from dataclasses import dataclass

import numpy as np

RELU = "relu"
IDENTITY = "identity"
ACTIVATIONS = (RELU, IDENTITY)

# zero as a 0-d array: an array operand spares numpy the conversion of a
# Python scalar, about a third of a small elementwise call; never written
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class ShapeError(ValueError):
    """Array dimensions do not line up."""


class DivergedError(RuntimeError):
    """A loss, gradient, or parameter turned non-finite during training."""


def one_hot_matrix(labels, num_classes):
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels outside category range")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass(eq=False)
class Layer:
    weight: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)
    activation: str = RELU

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("layer needs a 2-d weight matrix and a 1-d bias")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"bias has {self.bias.shape[0]} entries for "
                f"{self.weight.shape[0]} output units"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not self.finite():
            raise ValueError("layer parameters must be finite")

    def finite(self):
        return bool(np.isfinite(self.weight).all() and np.isfinite(self.bias).all())

    @property
    def fan_in(self):
        return self.weight.shape[1]

    @property
    def fan_out(self):
        return self.weight.shape[0]


@dataclass(eq=False)
class BatchCache:
    """Everything forward saw, kept for the matching backward pass."""

    activations: list  # each layer's input, then the net's output
    inputs = property(lambda self: self.activations[0])  # (..., n, input_dim)


@dataclass(eq=False)
class DenseNet:
    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a net needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.fan_in != prev.fan_out:
                raise ShapeError(
                    f"layer expects {nxt.fan_in} inputs but previous layer "
                    f"emits {prev.fan_out}"
                )

    @property
    def input_dim(self):
        return self.layers[0].fan_in

    @property
    def output_dim(self):
        return self.layers[-1].fan_out


def init_dense(sizes, activations, rng):
    """Build a DenseNet with Glorot-uniform weights and zero biases.

    sizes is [input_dim, h1, ..., output_dim]; activations has one entry per
    layer. Weights are drawn uniformly in +-sqrt(6/(fan_in+fan_out)).
    """
    if len(sizes) < 2:
        raise ValueError("need an input and an output size")
    if len(activations) != len(sizes) - 1:
        raise ValueError("one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return DenseNet(layers)


def clone(net):
    layers = [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in net.layers]
    return DenseNet(layers)


def _check_trained(*trained):
    """DivergedError unless every parameter of the trained nets is finite."""
    if not all(l.finite() for net in trained for l in net.layers):
        raise DivergedError("non-finite parameters; training diverged")


def _forward(net, X):
    """Forward kernel: (outputs, BatchCache) of X, with no checks."""
    acts = [X]
    for l in net.layers:
        a = acts[-1] @ l.weight.T
        a += l.bias
        if l.activation == RELU:
            np.maximum(a, _ZERO, out=a)
        acts.append(a)
    return a, BatchCache(acts)


def _backward(net, cache, delta, param_grads=True, input_grad=True, lr=None):
    """Backward kernel, with no checks: (GradientSet or None, input gradient
    or None). Work for an output not asked for is skipped. Given lr, each
    layer is stepped (_step) right after its input gradient is computed,
    delta is consumed, and no GradientSet is built."""
    n = len(net.layers)
    grads = GradientSet([None] * n, [None] * n) if param_grads and lr is None else None
    for i in reversed(range(n)):
        l = net.layers[i]
        if l.activation == RELU:  # delta is ours below the top layer, or to consume
            out = delta if i < n - 1 or lr is not None else None
            delta = np.multiply(delta, cache.activations[i + 1] > _ZERO, out=out)
        if grads is not None or lr is not None:
            gw = delta.swapaxes(-1, -2) @ cache.activations[i]
            gb = np.add.reduce(delta, axis=-2)
        if i or input_grad:
            delta = delta @ l.weight
        if lr is not None:
            _step(l, gw, gb, lr)
            del gw, gb  # one layer's gradient at a time
        elif grads is not None:
            grads.weight_grads[i], grads.bias_grads[i] = gw, gb
    return grads, delta if input_grad else None


def _step(l, gw, gb, lr):
    """In-place SGD kernel for one layer: w -= lr * gw and b -= lr * gb.

    It consumes gw and gb: each is scaled by lr in place, so the step makes
    no temporaries (the same products, bitwise).
    """
    gw *= lr
    l.weight -= gw
    gb *= lr
    l.bias -= gb


def _batch(net, X):
    """X as a float batch (or stack of batches) the net can take."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != net.input_dim:
        raise ShapeError(
            f"input batch has shape {X.shape}, expected (..., n, {net.input_dim})"
        )
    if not np.isfinite(X).all():
        raise ValueError("inputs must be finite")
    return X


def forward_pass(net, X):
    """Run a batch, or a stack of batches, through the net.

    Returns (outputs, cache); the cache feeds backprop.
    """
    return _forward(net, _batch(net, X))


@dataclass(eq=False)
class GradientSet:
    weight_grads: list
    bias_grads: list

    def matches(self, net):
        if len(self.weight_grads) != len(net.layers):
            return False
        return all(
            gw.shape == l.weight.shape and gb.shape == l.bias.shape
            for gw, gb, l in zip(self.weight_grads, self.bias_grads, net.layers)
        )


def backprop(net, cache, grad_output):
    """Backpropagate d(loss)/d(output) through the net.

    Returns (GradientSet, d(loss)/d(input)). grad_output and the returned
    input gradient have the cached forward's shape, one row per sample; for
    a stack, each parameter gradient carries the stack's leading dimensions.
    """
    delta = np.asarray(grad_output, dtype=float)
    expected = cache.inputs.shape[:-1] + (net.output_dim,)
    if delta.shape != expected:
        raise ShapeError(
            f"grad_output has shape {delta.shape}, expected {expected}"
        )
    return _backward(net, cache, delta)


def _ce(z, t, with_loss=True):
    """Kernel: (mean soft cross-entropy of the logit rows z against the
    targets t, its gradient with respect to z), with no checks.

    with_loss=False skips the loss and returns None in its place; the
    gradient is the same, bitwise: the loss only reads the softmax's terms.
    """
    m = np.maximum.reduce(z, axis=1, keepdims=True)
    e = z - m
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=1, keepdims=True)
    n = z.shape[0]
    loss = None
    if with_loss:
        # row losses m + log(s) - t.z, clamped at zero; sum / n is the
        # arithmetic of mean()
        losses = np.log(s)
        losses += m
        losses -= np.add.reduce(t * z, axis=1, keepdims=True)
        np.maximum(losses, _ZERO, out=losses)
        loss = float(np.add.reduce(losses, axis=None)) / n
    # the gradient (e / s - t) / n, built in place on e
    e /= s
    e -= t
    e /= n
    return loss, e


def ce_value_and_grads(net, X, targets):
    """Mean cross-entropy over a batch plus its parameter gradients."""
    X = _batch(net, X)
    t = np.asarray(targets, dtype=float)
    if X.ndim != 2 or t.shape != (X.shape[0], net.output_dim):
        raise ShapeError("need a 2-d batch and one target row per sample")
    out, cache = _forward(net, X)
    loss, grad_out = _ce(out, t)
    return loss, _backward(net, cache, grad_out, input_grad=False)[0]


def sgd_step(net, grads, lr):
    """One vanilla SGD update; returns a new net, leaves the input untouched."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if not grads.matches(net):
        raise ShapeError("gradient shapes do not match the net")
    stepped = clone(net)
    for l, gw, gb in zip(stepped.layers, grads.weight_grads, grads.bias_grads):
        # _step scales the gradients it is given in place: hand it copies
        _step(l, np.array(gw, dtype=float), np.array(gb, dtype=float), lr)
    _check_trained(stepped)
    return stepped
