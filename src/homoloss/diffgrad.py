"""Two entry points over every registered loss kind, both into the loss's
one kernel in `losses`: the value alone, which skips the kernel's gradient
block, and the value with the closed-form gradient with respect to the pose
parameters; plus the central finite-difference oracle."""

from __future__ import annotations

import numpy as np

from . import losses
from .geometry import InvalidInputError
from .losses import LossContext

REL_ERR_FLOOR = 1e-8  # denominator floor for relative gradient comparison

# kind -> name of its kernel in losses, looked up on every call, so that a
# function set on losses in its place is what runs
_KERNELS = {
    "posenet": "_posenet_core",
    "homoscedastic": "_homoscedastic_core",
    "geometric": "_geometric_core",
    "maxerror": "_maxerror_core",
    "homography_local": "_homography_core",
    "homography_global": "_homography_core",
}
LOSS_KINDS = tuple(_KERNELS)
HOMOGRAPHY_KINDS = ("homography_local", "homography_global")


def param_count(kind: str) -> int:
    """7 pose parameters, plus the two log-variances for the homoscedastic
    loss (optimized jointly with the poses)."""
    if kind not in LOSS_KINDS:
        raise InvalidInputError(f"unknown loss kind {kind!r}")
    return 9 if kind == "homoscedastic" else 7


def params_for(kind: str, est, ctx: LossContext) -> np.ndarray:
    """Flat parameter vector for a loss kind: a copy of est, a (7,) pose
    row, plus s_t/s_q when the loss learns them."""
    p = np.array(est, dtype=float)
    if param_count(kind) == 9:
        p = np.concatenate([p, [ctx.hyper.s_t, ctx.hyper.s_q]])
    return p


def _flat_params(kind, est):
    """est, a flat vector, as the parameter vector of kind."""
    params = np.asarray(est, dtype=float)
    n = param_count(kind)
    if params.shape != (n,):
        raise InvalidInputError(f"{kind} expects {n} parameters, "
                                f"got {params.shape}")
    return params


def loss_value(kind: str, est, ctx: LossContext) -> float:
    """The loss at est, a flat parameter vector of length param_count(kind):
    evaluate_with_grad's value, bit for bit, and its domain errors, from the
    same kernel stopped before its gradient."""
    params = _flat_params(kind, est)
    kernel = getattr(losses, _KERNELS[kind])
    return float(kernel(params.tolist(), ctx, False)[0])


def evaluate_with_grad(kind: str, est, ctx: LossContext):
    """(value, closed-form gradient) of the loss at est, a flat parameter
    vector of length param_count(kind)."""
    params = _flat_params(kind, est)
    val, grad = getattr(losses, _KERNELS[kind])(params.tolist(), ctx, True)
    return float(val), grad


def finite_diff_grad(kind: str, est, ctx: LossContext,
                     step: float = 1e-6) -> np.ndarray:
    """Central finite differences on each parameter (the gradient oracle)."""
    if not 0 < step < np.inf:
        raise InvalidInputError(f"finite-difference step must be positive "
                                f"and finite, got {step}")
    params = _flat_params(kind, est)
    n = len(params)
    # hi[i] and lo[i]: params with coordinate i moved by +step and -step
    # (x + -step is x - step, bit for bit)
    hi, lo = probes = np.tile(params, (2, n, 1))
    diag = np.arange(n)
    probes[:, diag, diag] += [[step], [-step]]
    grad = np.zeros(n)
    for i in range(n):
        try:
            f_hi = loss_value(kind, hi[i], ctx)
            f_lo = loss_value(kind, lo[i], ctx)
        except InvalidInputError as e:
            raise InvalidInputError(
                f"loss evaluation failed probing coordinate {i}: {e}"
            ) from e
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    return grad


def max_rel_err(analytic, numeric) -> float:
    """Largest |a - n| / max(REL_ERR_FLOOR, |a| + |n|) over the entries of
    an analytic and a numeric gradient."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    return float(np.max(np.abs(a - n) / np.maximum(REL_ERR_FLOOR,
                                                     np.abs(a) + np.abs(n))))


def grad_report(kind: str, est, ctx: LossContext,
                step: float = 1e-6) -> float:
    """max_rel_err of the closed-form gradient against finite differences."""
    _, analytic = evaluate_with_grad(kind, est, ctx)
    return max_rel_err(analytic, finite_diff_grad(kind, est, ctx, step))
