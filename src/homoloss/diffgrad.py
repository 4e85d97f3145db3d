"""One entry point over every registered loss kind: the value and the
closed-form gradient with respect to the pose parameters, both from the
loss's one kernel in `losses`, plus the central finite-difference oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .geometry import InvalidInputError, Intrinsics, Pose
from .losses import LossHyperParams, SlabParams

REL_ERR_FLOOR = 1e-8  # denominator floor for relative gradient comparison

LOSS_KINDS = (
    "posenet",
    "homoscedastic",
    "geometric",
    "maxerror",
    "homography_local",
    "homography_global",
)
HOMOGRAPHY_KINDS = ("homography_local", "homography_global")


@dataclass
class LossContext:
    """Everything a loss needs besides the estimated pose parameters."""

    gt: Pose
    hyper: LossHyperParams = None
    points: np.ndarray = None      # (N, 3) world points visible in the frame
    intrinsics: Intrinsics = None
    slab: SlabParams = None

    def __post_init__(self):
        if self.hyper is None:
            self.hyper = LossHyperParams()


def param_count(kind: str) -> int:
    """7 pose parameters, plus the two log-variances for the homoscedastic
    loss (optimized jointly with the poses)."""
    _check_kind(kind)
    return 9 if kind == "homoscedastic" else 7


def _check_kind(kind):
    if kind not in LOSS_KINDS:
        raise InvalidInputError(f"unknown loss kind {kind!r}")


def _dispatch(kind, params, ctx: LossContext):
    """(value, gradient) of kind's kernel at the float parameter list."""
    t = params[0:3]
    q = params[3:7]
    if kind == "posenet":
        return losses._posenet_core(t, q, ctx.gt, ctx.hyper.beta)
    if kind == "homoscedastic":
        if len(params) >= 9:
            s_t, s_q = params[7], params[8]
        else:
            s_t, s_q = ctx.hyper.s_t, ctx.hyper.s_q
        return losses._homoscedastic_core(t, q, s_t, s_q, ctx.gt)
    if kind == "geometric":
        return losses._geometric_core(
            t, q, ctx.gt, ctx.points, ctx.intrinsics, ctx.hyper.reproj_clip
        )
    if kind == "maxerror":
        return losses._maxerror_core(t, q, ctx.gt, ctx.hyper.quat_reg_weight)
    if kind in HOMOGRAPHY_KINDS:
        return losses._homography_core(t, q, ctx.gt, ctx.slab)
    _check_kind(kind)


def params_for(kind: str, est: Pose, ctx: LossContext) -> np.ndarray:
    """Flat parameter vector for a loss kind (pose, plus s_t/s_q when the
    loss learns them)."""
    p = est.params()
    if param_count(kind) == 9:
        p = np.concatenate([p, [ctx.hyper.s_t, ctx.hyper.s_q]])
    return p


def _flat_params(kind, est, ctx):
    """est (a Pose or a flat vector) as the parameter vector of kind."""
    n = param_count(kind)
    params = params_for(kind, est, ctx) if isinstance(est, Pose) \
        else np.asarray(est, dtype=float)
    if params.shape != (n,):
        raise InvalidInputError(
            f"{kind} expects {n} parameters, got {params.shape}"
        )
    return params


def loss_value(kind: str, params, ctx: LossContext) -> float:
    """The loss at a flat parameter vector (evaluate_with_grad's value)."""
    _check_kind(kind)
    return float(_dispatch(kind, [float(x) for x in params], ctx)[0])


def evaluate_with_grad(kind: str, est, ctx: LossContext):
    """Loss value and closed-form gradient.

    `est` may be a Pose or a flat parameter vector of length param_count(kind).
    Returns (value, gradient).
    """
    params = _flat_params(kind, est, ctx)
    val, grad = _dispatch(kind, [float(x) for x in params], ctx)
    return float(val), grad


def finite_diff_grad(kind: str, est, ctx: LossContext,
                     step: float = 1e-6) -> np.ndarray:
    """Central finite differences on each parameter (the gradient oracle)."""
    if step <= 0:
        raise InvalidInputError("finite-difference step must be positive")
    params = _flat_params(kind, est, ctx)
    grad = np.zeros(len(params))
    for i in range(len(params)):
        hi = params.copy()
        lo = params.copy()
        hi[i] += step
        lo[i] -= step
        try:
            f_hi = loss_value(kind, hi, ctx)
            f_lo = loss_value(kind, lo, ctx)
        except InvalidInputError as e:
            raise InvalidInputError(
                f"loss evaluation failed probing coordinate {i}: {e}"
            ) from e
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    return grad


@dataclass
class GradReport:
    """Analytic vs finite-difference gradient comparison."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_err: float = None

    def __post_init__(self):
        self.analytic = np.asarray(self.analytic, dtype=float)
        self.numeric = np.asarray(self.numeric, dtype=float)
        if self.max_rel_err is None:
            denom = np.maximum(
                REL_ERR_FLOOR, np.abs(self.analytic) + np.abs(self.numeric)
            )
            self.max_rel_err = float(
                np.max(np.abs(self.analytic - self.numeric) / denom)
            )


def grad_report(kind: str, est, ctx: LossContext,
                step: float = 1e-6) -> GradReport:
    _, analytic = evaluate_with_grad(kind, est, ctx)
    numeric = finite_diff_grad(kind, est, ctx, step)
    return GradReport(analytic, numeric)
