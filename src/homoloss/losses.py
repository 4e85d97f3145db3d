"""The five pose-regression losses.

Losses:
    - posenet_loss:        weighted L2 translation + quaternion difference
    - homoscedastic_loss:  L1 terms scaled by learnable log-variances
    - geometric_loss:      clipped mean L1 reprojection error of scene points
    - max_error_loss:      max(angle in degrees, translation in cm) + unit
                           quaternion regularizer
    - homography_loss_closed / homography_loss: slab integral of the squared
                           Frobenius homographic error, in closed form

Each loss has one kernel, _<kind>_core: it takes the estimated pose as 7
floats (9 for the homoscedastic loss, which learns its log-variances) and
returns the value and its closed-form gradient, so every entry point gets
the same value from the same float arithmetic.

The slab integral of ||I - H(x)||_F^2 over x in [x_min, x_max] is
||I - R||_F^2 + 2 c1 t^T (I - R) n + c2 |n|^2 |t|^2, with c1 and c2 from
_slab_weights. From a pose pair these terms, like the geometric loss's
residuals, are exactly 0 when the estimate equals the ground truth, for any
gt quaternion, and so are the loss and its gradient.

The oracles that validate the closed forms are used only by the tests and
live in tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dual
from .geometry import (
    DEPTH_EPS,
    InvalidInputError,
    Intrinsics,
    Pose,
    RelativePose,
    project_points,
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


# -- kernels: est pose as 7 (or 9) floats -> (value, gradient) -------------

def _slab_weights(slab: SlabParams):
    """Weights (2 c1, c2 |n|^2) of cross and tsq in the closed form, with
    c1 = ln(x_max/x_min)/(x_max - x_min) and c2 = 1/(x_min x_max)."""
    c1 = math.log(slab.x_max / slab.x_min) / (slab.x_max - slab.x_min)
    c2 = 1.0 / (slab.x_min * slab.x_max)
    return 2.0 * c1, c2 * float(slab.n @ slab.n)


def _posenet_core(t_est, q_est, gt: Pose, beta):
    # Estimated quaternion enters raw; only the ground truth is normalized.
    qg = gt.q / np.linalg.norm(gt.q)
    dt = [t_est[i] - gt.t[i] for i in range(3)]
    dq = [q_est[i] - qg[i] for i in range(4)]
    norm_t, grad_t = dual.norm2(dt)
    norm_q, grad_q = dual.norm2(dq)
    return norm_t + beta * norm_q, np.concatenate([grad_t, beta * grad_q])


def _homoscedastic_core(t_est, q_est, s_t, s_q, gt: Pose):
    """Gradient w.r.t. (t, q, s_t, s_q). With u = q/|q|, dq = qg - u and
    du/dq = (I - u u^T)/|q|, the L1 quaternion term has gradient
    e^-s_q (u (u . sign(dq)) - sign(dq)) / |q|."""
    norm, u = dual.norm2(q_est)
    if norm == 0.0:
        raise InvalidInputError("zero-norm estimated quaternion")
    qg = gt.q / np.linalg.norm(gt.q)
    dt = [t_est[i] - gt.t[i] for i in range(3)]
    dq = [qg[i] - q_est[i] / norm for i in range(4)]
    l1_t, sign_t = dual.norm1(dt)
    l1_q, sign_q = dual.norm1(dq)
    w_t, w_q = math.exp(-s_t), math.exp(-s_q)
    val = l1_t * w_t + s_t + l1_q * w_q + s_q
    grad_q = w_q * (u * (u @ sign_q) - sign_q) / norm
    return val, np.concatenate([sign_t * w_t, grad_q,
                                [1.0 - l1_t * w_t, 1.0 - l1_q * w_q]])


def _geometric_core(t_est, q_est, gt: Pose, points, K: Intrinsics, clip):
    """Mean clipped L1 reprojection error. A point whose estimated depth is
    below DEPTH_EPS, or whose L1 residual d reaches the clip, contributes the
    clip and a zero gradient; sign() gives the zero subgradient at an L1
    kink."""
    if points is None or len(points) == 0:
        raise InvalidInputError("geometric loss needs a non-empty point set")
    est = Pose.from_params([*t_est, *q_est])
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
    # -s_u fx x - s_v fy y). From X_c = R^T (P - t), dd/dt = -R g. A body
    # rotation w of the camera moves X_c by X_c x w, so d has gradient
    # g x X_c = h x (x, y, 1) w.r.t. w. The loss sums these over the live
    # points and divides by n.
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
    grad_q = dual.rotation_grad(est.q, gx_sum) / n
    return val, np.concatenate([grad_t, grad_q])


def _maxerror_core(t_est, q_est, gt: Pose, reg_weight):
    """With u = q/|q| and dot = u . qg, d|dot|/dq = sign(dot) (qg - dot u)
    / |q| and d acos(a)/da = -1/sqrt(1 - a^2); the regularizer has gradient
    2 reg_weight (|q| - 1) u."""
    qg = gt.q / np.linalg.norm(gt.q)
    qn, u = dual.norm2(q_est)
    reg = reg_weight * (qn - 1.0) ** 2
    grad_reg = 2.0 * (qn - 1.0) * u * reg_weight
    trans_cm, grad_cm = dual.norm2(
        [(t_est[i] - gt.t[i]) * 100.0 for i in range(3)])
    trans = trans_cm + reg, np.concatenate([100.0 * grad_cm, grad_reg])
    if qn == 0.0:
        # Degenerate attractor: the angle is undefined, only the regularizer
        # and translation terms act.
        return trans
    dot = sum(q_est[i] * qg[i] for i in range(4)) / qn
    absdot = abs(dot)
    if absdot >= 1.0:
        return trans  # acos clamped at 1, angle 0; derivative taken as 0
    angle = math.acos(absdot) * (360.0 / math.pi)
    # Exact ties take the translation branch.
    if trans_cm >= angle:
        return trans
    grad_angle = -1.0 / math.sqrt(1.0 - absdot * absdot) * (
        np.sign(dot) * (qg - dot * u) * (1.0 / qn)) * (360.0 / math.pi)
    return angle + reg, np.concatenate([np.zeros(3), grad_angle + grad_reg])


def _homography_core(t_est, q_est, gt: Pose, slab: SlabParams):
    """Closed form from the pose pair, using |t_rel| = |d| and R_e R_e^T = I:
    rot = 8|v|^2 / (|q_e|^2 |q_g|^2) with v the vector part of
    conj(q_e) * q_g, cross = d^T m with m = (R_e - R_g) n, tsq = |d|^2,
    where d = t_gt - t_est. Each component of v sums products that cancel
    pairwise, so v, d and m are exactly 0 when est == gt, for any gt
    quaternion, and so are the loss and its gradient.

    v = B q_e is linear in q_e, so d rot/dq_e = 16 B^T v / (|q_e|^2 |q_g|^2)
    - 2 rot q_e / |q_e|^2; dL/dt_est = -k1 m - 2 k2 d; a body rotation w of
    the estimate changes d^T R_e n by w . (n x R_e^T d).
    """
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
    qq_e = dual.sum_squares(q_est)
    qq_g = dual.sum_squares(q_gt)
    rot = 8.0 * dual.sum_squares(v) / (qq_e * qq_g)
    n = [float(c) for c in slab.n]
    d = [float(gt.t[i]) - t_est[i] for i in range(3)]
    m = [sum((R_e[i][j] - R_g[i][j]) * n[j] for j in range(3))
         for i in range(3)]
    cross = sum(d[i] * m[i] for i in range(3))
    k1, k2 = _slab_weights(slab)
    val = rot + k1 * cross + k2 * dual.sum_squares(d)

    v0, v1, v2 = v
    btv = [x2 * v0 + y2 * v1 + z2 * v2,
           -w2 * v0 + z2 * v1 - y2 * v2,
           -z2 * v0 - w2 * v1 + x2 * v2,
           y2 * v0 - x2 * v1 - w2 * v2]
    p = [sum(R_e[i][j] * d[i] for i in range(3)) for j in range(3)]
    body = [n[1] * p[2] - n[2] * p[1],
            n[2] * p[0] - n[0] * p[2],
            n[0] * p[1] - n[1] * p[0]]
    a, b = 16.0 / (qq_e * qq_g), 2.0 * rot / qq_e
    grad_q = np.array([a * btv[k] - b * q_est[k] for k in range(4)]) \
        + k1 * dual.rotation_grad(q_est, body)
    grad_t = [-k1 * m[i] - 2.0 * k2 * d[i] for i in range(3)]
    return val, np.concatenate([grad_t, grad_q])


# -- public float-facing API ------------------------------------------------

def _split(est: Pose):
    return list(map(float, est.t)), list(map(float, est.q))


def posenet_loss(est: Pose, gt: Pose, beta: float) -> float:
    """L2 translation error + beta * L2 quaternion difference (gt normalized,
    estimate raw)."""
    return float(_posenet_core(*_split(est), gt, beta)[0])


def homoscedastic_loss(est: Pose, gt: Pose, s_t: float, s_q: float) -> float:
    """L1 errors weighted by learnable log-variances s_t, s_q."""
    return float(_homoscedastic_core(*_split(est), s_t, s_q, gt)[0])


def geometric_loss(est: Pose, gt: Pose, points, K: Intrinsics,
                   clip: float) -> float:
    """Mean clipped L1 reprojection error over the visible points.

    A point projecting to infinity under the estimate contributes exactly
    the clip; with clip=inf the loss is non-finite in that case. A point at
    exactly zero gt depth has no gt pixel and raises InvalidInputError.
    """
    return float(_geometric_core(*_split(est), gt, points, K, clip)[0])


def max_error_loss(est: Pose, gt: Pose, reg_weight: float) -> float:
    """max(rotation angle in degrees, translation in cm) plus
    reg_weight * (||q_est|| - 1)^2."""
    return float(_maxerror_core(*_split(est), gt, reg_weight)[0])


def homography_loss_closed(rel: RelativePose, slab: SlabParams) -> float:
    """Closed-form slab integral of the squared Frobenius homographic error."""
    M = np.eye(3) - rel.R
    k1, k2 = _slab_weights(slab)
    return float(np.sum(M * M) + k1 * float(rel.t @ M @ slab.n)
                 + k2 * float(rel.t @ rel.t))


def homography_loss(est: Pose, gt: Pose, slab: SlabParams) -> float:
    """Closed-form homography loss straight from a pose pair."""
    return float(_homography_core(*_split(est), gt, slab)[0])
