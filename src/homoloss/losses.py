"""The five pose-regression losses.

Losses:
    - posenet_loss:        weighted L2 translation + quaternion difference
    - homoscedastic_loss:  L1 terms scaled by learnable log-variances
    - geometric_loss:      clipped mean L1 reprojection error of scene points
    - max_error_loss:      max(angle in degrees, translation in cm) + unit
                           quaternion regularizer
    - homography_loss_closed / homography_loss: slab integral of the squared
                           Frobenius homographic error, in closed form

The slab integral of ||I - H(x)||_F^2 over x in [x_min, x_max] reduces to
three scalars, ||I - R||_F^2 + 2 c1 t^T (I - R) n + c2 |n|^2 |t|^2 with
c1 = ln(x_max/x_min)/(x_max - x_min) and c2 = 1/(x_min x_max); one routine,
_closed_form, evaluates it for both the relative-pose and the pose-pair
entry points. From a pose pair the three scalars are computed so that they
are exactly 0 when the estimate equals the ground truth, for any gt
quaternion: the loss is then exactly 0 with an exactly zero gradient.

The geometric loss projects the gt and the estimate with project_points in
one numpy pass, computes its gradient from the same arrays and hands both to
the DiffScalar machinery through dual.lift; it too is exactly 0, with an
exactly zero gradient, at the gt for any gt quaternion.

The oracles that validate the closed form (midpoint quadrature, an
independent algebraic reduction, sensor-integrated reprojection) are used
only by the tests and live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dual
from .dual import value
from .geometry import (
    DEPTH_EPS,
    InvalidInputError,
    Intrinsics,
    Pose,
    RelativePose,
    project_points,
    quat_multiply,
    quat_to_rotmat,
    rotmat_elems,
)

DEFAULT_PLANE_NORMAL = np.array([0.0, 0.0, -1.0])


@dataclass(frozen=True)
class SlabParams:
    """Plane normal and depth bounds of the homography slab."""

    x_min: float
    x_max: float
    n: np.ndarray = field(default_factory=lambda: DEFAULT_PLANE_NORMAL.copy())

    def __post_init__(self):
        object.__setattr__(self, "n", np.asarray(self.n, dtype=float))
        if not (0.0 < self.x_min < self.x_max):
            raise InvalidInputError(
                f"slab needs 0 < x_min < x_max, got ({self.x_min}, {self.x_max})"
            )


@dataclass
class LossHyperParams:
    beta: float = 500.0
    s_t: float = 0.0
    s_q: float = -3.0
    reproj_clip: float = 100.0
    quat_reg_weight: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise InvalidInputError("beta must be positive")
        if self.reproj_clip <= 0:
            raise InvalidInputError("reproj_clip must be positive")


# -- generic cores: est pose given as 7 (or 9) scalar parameters -----------

def _closed_form(rot, cross, tsq, slab: SlabParams):
    """Slab integral of ||I - H(x)||_F^2 for H(x) = R - t n^T / x, from the
    scalars rot = ||I - R||_F^2, cross = t^T (I - R) n and tsq = |t|^2."""
    c1 = math.log(slab.x_max / slab.x_min) / (slab.x_max - slab.x_min)
    c2 = 1.0 / (slab.x_min * slab.x_max)
    nn = float(slab.n @ slab.n)
    return rot + 2.0 * c1 * cross + c2 * nn * tsq


def _posenet_core(t_est, q_est, gt: Pose, beta):
    # Estimated quaternion enters raw; only the ground truth is normalized.
    qg = gt.q / np.linalg.norm(gt.q)
    dt = [t_est[i] - gt.t[i] for i in range(3)]
    dq = [q_est[i] - qg[i] for i in range(4)]
    return dual.norm2(dt) + beta * dual.norm2(dq)


def _homoscedastic_core(t_est, q_est, s_t, s_q, gt: Pose):
    norm = dual.norm2(q_est)
    if value(norm) == 0.0:
        raise InvalidInputError("zero-norm estimated quaternion")
    qg = gt.q / np.linalg.norm(gt.q)
    dt = [t_est[i] - gt.t[i] for i in range(3)]
    dq = [qg[i] - q_est[i] / norm for i in range(4)]
    return (
        dual.norm1(dt) * dual.exp(-s_t)
        + s_t
        + dual.norm1(dq) * dual.exp(-s_q)
        + s_q
    )


def _geometric_core(t_est, q_est, gt: Pose, points, K: Intrinsics, clip):
    """Mean clipped L1 reprojection error. A point whose estimated depth is
    below DEPTH_EPS, or whose L1 residual d reaches the clip, contributes the
    clip and a zero gradient; sign() gives the zero subgradient at an L1
    kink."""
    if points is None or len(points) == 0:
        raise InvalidInputError("geometric loss needs a non-empty point set")
    inputs = [*t_est, *q_est]
    est = Pose.from_params([value(c) for c in inputs])
    uv_gt, z_gt = project_points(gt, K, points)
    if np.any(z_gt == 0.0):
        raise InvalidInputError("a visible point lies at zero gt depth")
    uv, z = project_points(est, K, points)
    res = uv - uv_gt
    d = np.abs(res).sum(axis=1)
    live = (np.abs(z) >= DEPTH_EPS) & (d < clip)
    n = len(z)
    val = float(np.sum(np.where(live, d, clip))) / n

    # Per live point, with x = X/Z, y = Y/Z and s the residual signs,
    # dd/dX_c = g = h / Z where h = (a, b, c) = (s_u fx, s_v fy,
    # -s_u fx x - s_v fy y). From X_c = R^T (P - t), dd/dt = -R g. A change
    # dq turns the camera by the body rotation w = 2 vec(conj(q) dq) / |q|^2,
    # which moves X_c by X_c x w, so dd/dq = 2 q * (0, g x X_c) / |q|^2
    # (quaternion product), where g x X_c = h x (x, y, 1). The loss sums
    # these over the live points and divides by n.
    x = (uv[live, 0] - K.cx) / K.fx
    y = (uv[live, 1] - K.cy) / K.fy
    su, sv = np.sign(res[live]).T
    a, b = su * K.fx, sv * K.fy
    c = -a * x - b * y
    inv_z = 1.0 / z[live]
    g_sum = np.array([a @ inv_z, b @ inv_z, c @ inv_z])
    gx_sum = np.array([np.sum(b - c * y), np.sum(c * x - a),
                       np.sum(a * y - b * x)])
    grad_t = -quat_to_rotmat(est.q) @ g_sum / n
    grad_q = quat_multiply(est.q, [0.0, *gx_sum]) * (2.0 / (est.q @ est.q)) / n
    return dual.lift(val, np.concatenate([grad_t, grad_q]), inputs)


def _maxerror_core(t_est, q_est, gt: Pose, reg_weight):
    qg = gt.q / np.linalg.norm(gt.q)
    qn = dual.norm2(q_est)
    reg = reg_weight * (qn - 1.0) ** 2
    trans_cm = dual.norm2([(t_est[i] - gt.t[i]) * 100.0 for i in range(3)])
    if value(qn) == 0.0:
        # Degenerate attractor: the angle is undefined, only the regularizer
        # and translation terms act.
        return trans_cm + reg
    dot = sum(q_est[i] * qg[i] for i in range(4)) / qn
    absdot = abs(dot)
    if value(absdot) >= 1.0:
        angle = 0.0 * absdot  # acos clamped at 1; derivative taken as 0
    else:
        angle = dual.acos(absdot) * (360.0 / math.pi)
    # Exact ties take the translation branch.
    err = trans_cm if value(trans_cm) >= value(angle) else angle
    return err + reg


def _homography_core(t_est, q_est, gt: Pose, slab: SlabParams):
    """Closed form from the pose pair, using |t_rel| = |d| and
    R_e R_e^T = I: rot = 8|v|^2 / (|q_e|^2 |q_g|^2) with v the vector part
    of conj(q_e) * q_g, cross = d^T (R_e - R_g) n, tsq = |d|^2, where
    d = t_gt - t_est. Each component of v sums products that cancel pairwise,
    so v, d and R_e - R_g are exactly 0 when est == gt, for any gt
    quaternion, and so are the loss and its gradient."""
    q_gt = [float(c) for c in gt.q]
    R_e = rotmat_elems(q_est)  # normalizes internally
    R_g = rotmat_elems(q_gt)
    w1, x1, y1, z1 = q_est
    w2, x2, y2, z2 = q_gt
    v = [
        (w1 * x2 - x1 * w2) + (z1 * y2 - y1 * z2),
        (w1 * y2 - y1 * w2) + (x1 * z2 - z1 * x2),
        (w1 * z2 - z1 * w2) + (y1 * x2 - x1 * y2),
    ]
    rot = 8.0 * dual.sum_squares(v) / (
        dual.sum_squares(q_est) * dual.sum_squares(q_gt)
    )
    n = [float(c) for c in slab.n]
    d = [float(gt.t[i]) - t_est[i] for i in range(3)]
    cross = sum(
        d[i] * sum((R_e[i][j] - R_g[i][j]) * n[j] for j in range(3))
        for i in range(3)
    )
    return _closed_form(rot, cross, dual.sum_squares(d), slab)


# -- public float-facing API ------------------------------------------------

def _split(est: Pose):
    return list(map(float, est.t)), list(map(float, est.q))


def posenet_loss(est: Pose, gt: Pose, beta: float) -> float:
    """L2 translation error + beta * L2 quaternion difference (gt normalized,
    estimate raw)."""
    t, q = _split(est)
    return float(value(_posenet_core(t, q, gt, beta)))


def homoscedastic_loss(est: Pose, gt: Pose, s_t: float, s_q: float) -> float:
    """L1 errors weighted by learnable log-variances s_t, s_q."""
    t, q = _split(est)
    return float(value(_homoscedastic_core(t, q, s_t, s_q, gt)))


def geometric_loss(est: Pose, gt: Pose, points, K: Intrinsics,
                   clip: float) -> float:
    """Mean clipped L1 reprojection error over the visible points.

    A point projecting to infinity under the estimate contributes exactly
    the clip; with clip=inf the loss is non-finite in that case. A point at
    exactly zero gt depth has no gt pixel and raises InvalidInputError.
    """
    t, q = _split(est)
    return float(value(_geometric_core(t, q, gt, points, K, clip)))


def max_error_loss(est: Pose, gt: Pose, reg_weight: float) -> float:
    """max(rotation angle in degrees, translation in cm) plus
    reg_weight * (||q_est|| - 1)^2."""
    t, q = _split(est)
    return float(value(_maxerror_core(t, q, gt, reg_weight)))


def homography_loss_closed(rel: RelativePose, slab: SlabParams) -> float:
    """Closed-form slab integral of the squared Frobenius homographic error."""
    M = np.eye(3) - rel.R
    return float(_closed_form(float(np.sum(M * M)), float(rel.t @ M @ slab.n),
                              float(rel.t @ rel.t), slab))


def homography_loss(est: Pose, gt: Pose, slab: SlabParams) -> float:
    """Closed-form homography loss straight from a pose pair."""
    t, q = _split(est)
    return float(value(_homography_core(t, q, gt, slab)))
