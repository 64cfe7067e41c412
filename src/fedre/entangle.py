"""Representation mapping and entanglement.

A client maps its raw representations to a unified dimension (block average,
block max, or a small learned layer), draws a normalized weight vector over
its local samples with one of six mechanisms, and collapses the whole set
into a single (r_tilde, y_tilde) packet: the weighted sum of mapped
representations paired with the same weighting of the one-hot labels.

Weight mechanisms, grouped by what the weights attach to:

  raw representations          prototypes (per category)
  ----------------------      -------------------------
  rsr  one random sample      rsp  one random category
  var  uniform 1/n            vap  uniform over categories
  rar  random normalized      rap  random normalized over categories
"""

from dataclasses import dataclass

import numpy as np

from .nets import DenseNet, ShapeError, _backward, forward_pass

AP = "ap"
MP = "mp"
FC = "fc"
RM_KINDS = (AP, MP, FC)

RSR = "rsr"
VAR = "var"
RAR = "rar"
RSP = "rsp"
VAP = "vap"
RAP = "rap"
MECHANISMS = (RSR, VAR, RAR, RSP, VAP, RAP)

UNIFORM = "uniform"
GAUSSIAN = "gaussian"
LAPLACE = "laplace"
DISTRIBUTIONS = (UNIFORM, GAUSSIAN, LAPLACE)

WEIGHT_ATOL = 1e-9


@dataclass(eq=False)
class RMSpec:
    """How a client maps its raw dimension down to the unified one."""

    kind: str = AP
    net: DenseNet | None = None  # fc only

    def __post_init__(self):
        if self.kind == FC and self.net is None:
            raise ValueError("fc mapping needs a net")


@dataclass
class ReMechanism:
    kind: str = RAP
    weight_distribution: str = UNIFORM  # only drawn on for rar/rap


@dataclass(eq=False)
class RepresentationSet:
    """Raw representations paired with one-hot labels."""

    reps: np.ndarray  # (n, raw_dim)
    labels_onehot: np.ndarray  # (n, num_classes)

    def __post_init__(self):
        self.reps = np.asarray(self.reps, dtype=float)
        self.labels_onehot = np.asarray(self.labels_onehot, dtype=float)
        if self.reps.ndim != 2 or self.labels_onehot.ndim != 2:
            raise ShapeError("reps and labels must be 2-d arrays")
        if self.reps.shape[0] != self.labels_onehot.shape[0]:
            raise ShapeError("reps and labels lengths differ")
        L = self.labels_onehot
        if not (np.isin(L, (0.0, 1.0)).all() and (L.sum(axis=1) == 1.0).all()):
            raise ValueError("labels must be one-hot")

    def __len__(self):
        return self.reps.shape[0]

    @property
    def labels(self):
        return self.labels_onehot.argmax(axis=1)


@dataclass(eq=False)
class EntangledPacket:
    r_tilde: np.ndarray  # (unified_dim,)
    y_tilde: np.ndarray  # (num_classes,)


def rm_apply(R, rm, unified_dim):
    """Map a batch (or a stack of batches) of raw representations.

    Returns (mapped (..., n, unified_dim), cache), cache being what
    rm_backward reads: the fc net's BatchCache, the block size m under ap,
    or (m, each block's argmax offset) under mp. Stacks follow forward_pass:
    each row of a stacked call equals the 2-d call on that row bitwise.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim < 2:
        raise ShapeError("rm_apply takes a batch of representation rows")
    raw_dim = R.shape[-1]
    if rm.kind == FC:
        net = rm.net
        if net.input_dim != raw_dim or net.output_dim != unified_dim:
            raise ShapeError(
                f"fc mapping is {net.input_dim}->{net.output_dim}, need "
                f"{raw_dim}->{unified_dim}"
            )
        return forward_pass(net, R)
    if raw_dim % unified_dim != 0:
        raise ShapeError(
            f"raw dimension {raw_dim} is not divisible by unified dimension "
            f"{unified_dim}"
        )
    m = raw_dim // unified_dim
    blocks = R.reshape(R.shape[:-1] + (unified_dim, m))
    if rm.kind == AP:
        # the arithmetic of blocks.mean(axis=-1), in two cheap calls
        mapped = np.add.reduce(blocks, axis=-1)
        mapped /= m
        return mapped, m
    if rm.kind != MP:
        raise ValueError(f"unknown rm kind {rm.kind!r}")
    winners = blocks.argmax(axis=-1)
    mapped = np.take_along_axis(blocks, winners[..., None], axis=-1)[..., 0]
    return mapped, (m, winners)


def rm_backward(grad_mapped, rm, cache, lr=None):
    """Route d(loss)/d(mapped) back to the raw representations.

    Returns d(loss)/d(raw). An fc mapping's parameter gradients are never
    built: given lr (a 0-d array), the mapping is stepped in place inside
    its backward (nets._backward); without it, its parameters are left as
    they are.
    """
    g = np.asarray(grad_mapped, dtype=float)
    if g.ndim < 2:
        raise ShapeError("rm_backward takes a batch of gradient rows")
    if rm.kind == FC:
        return _backward(rm.net, cache, g, param_grads=False, lr=lr)[1]
    if rm.kind == AP:
        # each of a block's m = cache entries gets g / m
        return (g / cache).repeat(cache, axis=-1)
    m, winners = cache
    grad_blocks = np.zeros(g.shape + (m,))
    np.put_along_axis(grad_blocks, winners[..., None], g[..., None], axis=-1)
    return grad_blocks.reshape(g.shape[:-1] + (g.shape[-1] * m,))


def check_weight_vector(w, n=None):
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ShapeError("weights must be a 1-d vector")
    if n is not None and w.shape[0] != n:
        raise ShapeError(f"{w.shape[0]} weights for {n} samples")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if w.min() < -WEIGHT_ATOL or w.max() > 1.0 + WEIGHT_ATOL:
        raise ValueError("weights must lie in [0, 1]")
    if abs(float(w.sum()) - 1.0) > WEIGHT_ATOL:
        raise ValueError(f"weights sum to {w.sum()!r}, expected 1.0")
    return w


def _draw(distribution, size, rng):
    # Gaussian/Laplace draws are folded to nonnegative magnitudes.
    if distribution == UNIFORM:
        return rng.random(size)
    if distribution == GAUSSIAN:
        return np.abs(rng.standard_normal(size))
    if distribution == LAPLACE:
        return np.abs(rng.laplace(0.0, 1.0, size))
    raise ValueError(f"unknown weight distribution {distribution!r}")


def _positive_draw(distribution, size, rng):
    while True:
        u = _draw(distribution, size, rng)
        if u.sum() > 0:
            return u


def re_weights(rep_set, mech, rng):
    """Draw a normalized weight vector over the set's samples."""
    n = len(rep_set)
    if n == 0:
        raise ValueError("cannot weight an empty representation set")
    labels = rep_set.labels
    kind = mech.kind
    if kind == RSR:
        w = np.zeros(n)
        w[int(rng.integers(n))] = 1.0
        return w
    if kind == VAR:
        return np.full(n, 1.0 / n)
    if kind == RAR:
        u = _positive_draw(mech.weight_distribution, n, rng)
        return u / u.sum()
    categories = np.unique(labels)  # sorted; fixes the draw order
    counts = np.bincount(labels)
    if kind == RSP:
        chosen = categories[int(rng.integers(categories.size))]
        w = np.where(labels == chosen, 1.0 / counts[chosen], 0.0)
        return w
    if kind == VAP:
        return 1.0 / (categories.size * counts[labels])
    if kind == RAP:  # category c's weight mass u_c / sum(u), spread evenly over its samples
        u = _positive_draw(mech.weight_distribution, categories.size, rng)
        return u[np.searchsorted(categories, labels)] / (counts[labels] * u.sum())
    raise ValueError(f"unknown mechanism {kind!r}")


def entangle(rep_set, w, rm, unified_dim):
    """Collapse a representation set into one entangled packet.

    r_tilde = sum_i w_i * rm(rep_i), y_tilde = sum_i w_i * onehot_i.
    """
    w = check_weight_vector(w, len(rep_set))
    mapped, _ = rm_apply(rep_set.reps, rm, unified_dim)
    return EntangledPacket(w @ mapped, w @ rep_set.labels_onehot)


def compute_prototypes(rep_set, rm, unified_dim):
    """Per-category means of the mapped representations.

    Returns [(category, prototype)] sorted by category index.
    """
    if len(rep_set) == 0:
        raise ValueError("cannot build prototypes from an empty set")
    mapped, _ = rm_apply(rep_set.reps, rm, unified_dim)
    labels = rep_set.labels
    return [
        (int(c), mapped[labels == c].mean(axis=0)) for c in np.unique(labels)
    ]
