"""White-box input reconstruction against uploaded vectors.

The attacker holds the client's extractor and mapping and a target vector in
the unified dimension (a raw mapped representation, a category prototype, or
an entangled packet), and gradient-descends a random input to minimize
||rm(g(x)) - target||^2. Scoring is attacker-favorable: the reconstruction
error is the minimum MSE against every original sample that contributed to
the target.

Starts descend as a stack of one-row batches, shape (rows, 1, d), each row
against its own target. By the stack convention of nets.forward_pass, row r
of every stacked objective and gradient is bitwise equal to the one-start
call on that row, so a stacked attack returns exactly what the same starts
run one after another return. Given `inits`, `invert` stacks the starts of
several targets, drawn beforehand with draw_starts (the runner descends
every target of a seed this way); without them it runs the starts of one
target one at a time, drawing each from its rng.
"""

import math
from dataclasses import dataclass

import numpy as np

from .entangle import rm_apply, rm_backward
from .nets import ShapeError, _backward, forward_pass

PSNR_CAP = 99.0


class InversionFailure(RuntimeError):
    """The attack objective stayed non-finite across all restarts."""


@dataclass(eq=False)
class InversionResult:
    reconstructed: np.ndarray
    target_kind: str  # "raw" | "prototype" | "entangled"
    mse: float
    psnr: float
    iterations: int


def _objective_and_grad(extractor, rm, X, target):
    """Objectives (R,) and input gradients (R, 1, d) at starts X, (R, 1, d),
    against one target (u,) or per-row targets (R, 1, u)."""
    out, ext_cache = forward_pass(extractor, X)
    mapped, rm_cache = rm_apply(out, rm, target.shape[-1])
    resid = mapped - target
    obj = (resid @ resid.swapaxes(-1, -2))[:, 0, 0]
    grad_reps, _ = rm_backward(2.0 * resid, rm, rm_cache, param_grads=False)
    _, grad_x = _backward(extractor, ext_cache, grad_reps, param_grads=False)
    return obj, grad_x


def _descend(extractor, rm, X, target, steps, lr):
    """Gradient descent from every start of the stack X, shape (R, 1, d),
    against one target (u,) or per-row targets (R, 1, u).

    Returns (best iterate per start (R, 1, d), its objective (R,)), or None
    as soon as any start's objective or gradient turns non-finite. A start's
    best iterate is its first visited point of lowest objective; the final
    iterate counts too.
    """
    best_x, best_obj = X.copy(), np.full(X.shape[0], math.inf)
    for _ in range(steps):
        obj, grad = _objective_and_grad(extractor, rm, X, target)
        if not (np.isfinite(obj).all() and np.isfinite(grad).all()):
            return None
        better = obj < best_obj
        np.copyto(best_obj, obj, where=better)
        np.copyto(best_x, X, where=better[:, None, None])
        X = X - lr * grad
    final_obj, _ = _objective_and_grad(extractor, rm, X, target)
    better = final_obj < best_obj
    np.copyto(best_obj, final_obj, where=better)
    np.copyto(best_x, X, where=better[:, None, None])
    return best_x, best_obj


def draw_starts(extractor, rng, starts, init_scale=1.0):
    """`starts` Gaussian attack inits, shape (starts, 1, d), as one draw."""
    return init_scale * rng.standard_normal((starts, 1, extractor.input_dim))


def _single_start(extractor, rm, target, steps, lr, rng, init_scale, max_restarts):
    """One start, restarted from a fresh init each time it diverges."""
    for _ in range(max_restarts + 1):
        X = draw_starts(extractor, rng, 1, init_scale)
        found = _descend(extractor, rm, X, target, steps, lr)
        if found is not None:
            return found
    raise InversionFailure(
        f"objective stayed non-finite after {max_restarts} restarts"
    )


def invert(
    extractor,
    rm,
    target,
    steps,
    lr,
    rng,
    init_scale=1.0,
    max_restarts=3,
    starts=1,
    inits=None,
):
    """Reconstruct an input whose mapped representation matches the target.

    Plain gradient descent from `starts` Gaussian-random inputs. Each start
    keeps its best iterate by objective value and the lowest-objective start
    wins, the earliest on a tie.

    Without `inits`, the starts run one at a time, each from an init drawn
    from rng right before it descends. A start that turns non-finite
    restarts from a fresh init, at most max_restarts times.

    With `inits`, target is a stack (T, u) of T targets and inits holds
    their starts, drawn beforehand with draw_starts and concatenated in
    target order, shape (T * starts, 1, d); rng is not used. All rows
    descend as one stack, each against its own target, and the result is
    the (T, d) reconstructions, each bitwise what the one-target call on
    the same starts returns. If any row turns non-finite or an iterate
    overflows, the result is None: the starts cannot be redrawn here, so
    the caller replays the targets one at a time from its own rng.
    """
    target = np.asarray(target, dtype=float)
    stacked = inits is not None
    if target.ndim != 1 + stacked:
        raise ShapeError(f"target must be {'a (T, u) stack' if stacked else 'a 1-d vector'}")
    if not np.isfinite(target).all():
        raise ValueError("target must be finite")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if lr <= 0:
        raise ValueError("lr must be positive")
    if starts < 1:
        raise ValueError("starts must be positive")
    if stacked:
        X = np.asarray(inits, dtype=float)
        if X.shape != (len(target) * starts, 1, extractor.input_dim):
            raise ShapeError(
                f"inits have shape {X.shape}, expected "
                f"({len(target) * starts}, 1, {extractor.input_dim})"
            )
        rows = np.repeat(target, starts, axis=0)[:, None, :]
        try:
            found = _descend(extractor, rm, X, rows, steps, lr)
        except ValueError:
            # an iterate overflowed; the caller's one-target replay raises it
            # at the same start and rng position
            found = None
        if found is None:
            return None
    else:
        runs = [
            _single_start(extractor, rm, target, steps, lr, rng, init_scale, max_restarts)
            for _ in range(starts)
        ]
        found = [np.concatenate(parts) for parts in zip(*runs)]
    best_x, best_obj = found
    winners = best_obj.reshape(-1, starts).argmin(axis=1)
    recs = best_x.reshape(-1, starts, extractor.input_dim)[np.arange(len(winners)), winners]
    return recs if stacked else recs[0]


def invert_multi(
    extractor, rm, target, steps, lr, rng, init_scale=1.0, restarts=1, inits=None
):
    """Best reconstruction over independent attack runs.

    The descent objective is piecewise quadratic, so a single start can stall
    in a poor basin; launching several and keeping the lowest-objective
    iterate models an attacker who retries. Consumes one init per start from
    rng, in order, plus one per divergence restart. With `inits`, attacks a
    (T, u) stack of targets from starts drawn beforehand, as `invert` does.
    """
    return invert(
        extractor, rm, target, steps, lr, rng, init_scale, starts=restarts, inits=inits
    )


def score(reconstructed, originals, data_range):
    """Best-case (mse, psnr) of a reconstruction against its originals.

    mse is the minimum mean squared error over the original samples; psnr is
    10*log10(data_range^2 / mse), reported as the 99 dB sentinel for an
    exact hit.
    """
    rec = np.asarray(reconstructed, dtype=float)
    O = np.asarray(originals, dtype=float)
    if O.ndim == 1:
        O = O[None, :]
    if O.shape[0] == 0:
        raise ValueError("need at least one original sample to score against")
    if rec.shape != O.shape[1:]:
        raise ShapeError("reconstruction and originals dimensions differ")
    if data_range <= 0:
        raise ValueError("data_range must be positive")
    mse = float(((O - rec) ** 2).mean(axis=1).min())
    if mse == 0.0:
        return 0.0, PSNR_CAP
    return mse, float(10.0 * np.log10(data_range**2 / mse))


def dataset_range(X):
    """Empirical data range (max minus min) used as the PSNR peak."""
    X = np.asarray(X, dtype=float)
    r = float(X.max() - X.min())
    return r if r > 0 else 1.0
