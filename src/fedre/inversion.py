"""White-box input reconstruction against uploaded vectors.

The attacker holds the client's extractor and mapping and a target vector in
the unified dimension (a raw mapped representation, a category prototype, or
an entangled packet), and gradient-descends a random input to minimize
||rm(g(x)) - target||^2. Scoring is attacker-favorable: the reconstruction
error is the minimum MSE against every original sample that contributed to
the target.

Every start of every target descends as one stack of one-row batches, shape
(rows, 1, d), each row against its own target. By the stack convention of
nets.forward_pass, row r of every stacked objective and gradient is bitwise
equal to the one-start call on that row, so the stack returns exactly what
the same starts run one after another return. A start that turns
non-finite is dropped in place and leaves the other rows untouched.
"""

import math
from dataclasses import dataclass

import numpy as np

from .entangle import FC, rm_apply, rm_backward
from .nets import ShapeError, _backward, forward_pass

class InversionFailure(RuntimeError):
    """Every start of some attack target diverged."""


@dataclass(eq=False)
class InversionResult:
    reconstructed: np.ndarray
    target_kind: str  # "raw" | "prototype" | "entangled"
    mse: float
    psnr: float
    iterations: int


def _objective_and_grad(extractor, rm, X, target):
    """Objectives (R,) and input gradients (R, 1, d) at starts X, (R, 1, d),
    against one target (u,) or per-row targets (R, 1, u). A row whose
    representation overflowed gets objective nan: an fc mapping's
    forward_pass rejects non-finite input, so the row is zeroed first, in a
    copy: out belongs to ext_cache, whose relu masks it holds."""
    out, ext_cache = forward_pass(extractor, X)
    overflowed = ~np.isfinite(out).all(axis=(1, 2)) if rm.kind == FC else None
    if overflowed is not None:
        out = np.where(overflowed[:, None, None], 0.0, out)
    mapped, rm_cache = rm_apply(out, rm, target.shape[-1])
    resid = mapped - target
    obj = (resid @ resid.swapaxes(-1, -2))[:, 0, 0]
    if overflowed is not None:
        obj[overflowed] = np.nan
    resid *= 2.0
    grad_reps, _ = rm_backward(resid, rm, rm_cache, param_grads=False)
    _, grad_x = _backward(extractor, ext_cache, grad_reps, param_grads=False)
    return obj, grad_x


def _descend(extractor, rm, X, target, steps, lr):
    """Gradient descent from every start of the stack X, shape (R, 1, d),
    against per-row targets (R, 1, u).

    Returns (best iterate per start (R, 1, d), its objective (R,)). A start's
    best iterate is its first visited point of lowest objective; the final
    iterate counts too. A start whose objective or next iterate turns
    non-finite is dropped: it stops moving, so forward_pass never sees a
    non-finite input, and its objective reads inf.
    """
    best_x, best_obj = X.copy(), np.full(X.shape[0], math.inf)
    live, all_live = np.ones(X.shape[0], dtype=bool), True
    for _ in range(steps):
        obj, grad = _objective_and_grad(extractor, rm, X, target)
        better = obj < best_obj
        np.copyto(best_obj, obj, where=better)
        np.copyto(best_x, X, where=better[:, None, None])
        grad *= lr
        X_next = X - grad
        # the per-row masks cost about 5% of a toy attack step: skip them
        # until some start is dropped
        if not (all_live and np.isfinite(obj).all() and np.isfinite(X_next).all()):
            live &= np.isfinite(obj) & np.isfinite(X_next).all(axis=(1, 2))
            X_next = np.where(live[:, None, None], X_next, X)
            all_live = bool(live.all())
        X = X_next
    final_obj, _ = _objective_and_grad(extractor, rm, X, target)
    live &= np.isfinite(final_obj)
    better = final_obj < best_obj
    np.copyto(best_obj, final_obj, where=better)
    np.copyto(best_x, X, where=better[:, None, None])
    best_obj[~live] = math.inf
    return best_x, best_obj


def draw_starts(extractor, rng, starts, init_scale=1.0):
    """`starts` Gaussian attack inits, shape (starts, 1, d), as one draw."""
    return init_scale * rng.standard_normal((starts, 1, extractor.input_dim))


def invert(extractor, rm, targets, steps, lr, inits):
    """Reconstruct, per target, an input whose mapped representation
    matches it.

    targets is a (T, u) stack and inits holds R starts per target, drawn
    beforehand with draw_starts and concatenated in target order, shape
    (T * R, 1, d). All rows descend as one stack, each against its own
    target, by plain gradient descent. Each start keeps its best iterate by
    objective value, a start that diverges is dropped, and the
    lowest-objective start of a target wins, the earliest on a tie. Returns
    the (T, d) reconstructions; raises InversionFailure when every start of
    some target diverged.
    """
    targets = np.asarray(targets, dtype=float)
    X = np.asarray(inits, dtype=float)
    if targets.ndim != 2 or len(targets) == 0:
        raise ShapeError("targets must be a nonempty (T, u) stack")
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    starts = len(X) // len(targets)
    if starts < 1 or X.shape != (len(targets) * starts, 1, extractor.input_dim):
        raise ShapeError(f"inits have shape {X.shape}, need (T * R, 1, d) with R >= 1")
    rows = np.repeat(targets, starts, axis=0)[:, None, :]
    best_x, best_obj = _descend(extractor, rm, X, rows, steps, lr)
    best_obj = best_obj.reshape(-1, starts)
    if np.isinf(best_obj).all(axis=1).any():
        raise InversionFailure("every start of an attack target diverged")
    winners = best_obj.argmin(axis=1)
    return best_x.reshape(-1, starts, extractor.input_dim)[np.arange(len(winners)), winners]


def invert_multi(extractor, rm, targets, steps, lr, inits):
    """Best reconstruction of each target over its independent starts: the
    attack's entry point, one call per attacked client.

    The descent objective is piecewise quadratic, so a single start can stall
    in a poor basin; launching several and keeping the lowest-objective
    iterate models an attacker who retries.
    """
    return invert(extractor, rm, targets, steps, lr, inits)


def score(reconstructed, originals, data_range):
    """Best-case (mse, psnr) of a reconstruction against its originals.

    mse is the minimum mean squared error over the original samples; psnr is
    10*log10(data_range^2 / mse). An exact hit scores the PSNR of the least
    positive mse, so psnr never rises as mse falls. A ratio that overflows,
    from a subnormal mse or a data_range past about 1.3e154, or underflows,
    from a tiny data_range, is scored in logs instead.
    """
    rec = np.asarray(reconstructed, dtype=float)
    O = np.asarray(originals, dtype=float)
    if O.ndim == 1:
        O = O[None, :]
    if O.shape[0] == 0:
        raise ValueError("need at least one original sample to score against")
    if rec.shape != O.shape[1:]:
        raise ShapeError("reconstruction and originals dimensions differ")
    mse = float(((O - rec) ** 2).mean(axis=1).min())
    if mse == 0.0:
        return 0.0, float(20.0 * np.log10(data_range) - 10.0 * np.log10(np.nextafter(0, 1)))
    try:
        ratio = data_range**2 / mse
    except OverflowError:  # a float data_range whose square overflows
        ratio = math.inf
    if ratio == np.inf or ratio == 0.0:  # the ratio over- or underflows: score in logs
        log_score = 20.0 * np.log10(data_range) - 10.0 * np.log10(mse)
        if ratio:  # no lower than any finite ratio
            return mse, float(max(log_score, 10.0 * np.log10(np.finfo(float).max)))
        # no higher than any positive ratio
        return mse, float(min(log_score, 10.0 * np.log10(np.nextafter(0, 1))))
    return mse, float(10.0 * np.log10(ratio))


def dataset_range(X):
    """Empirical data range (max minus min) used as the PSNR peak."""
    X = np.asarray(X, dtype=float)
    r = float(X.max() - X.min())
    return r if r > 0 else 1.0
