"""The five pose-regression losses.

Losses:
    - posenet:        weighted L2 translation + quaternion difference
    - homoscedastic:  L1 terms scaled by learnable log-variances
    - geometric:      clipped mean L1 reprojection error of scene points
    - maxerror:       max(angle in degrees, translation in cm) + unit
                      quaternion regularizer
    - homography:     slab integral of the squared Frobenius homographic
                      error, in closed form

Each loss has one kernel, _<kind>_core(p, ctx, grad): p is the estimated
pose as 7 floats (9 for the homoscedastic loss, which learns its
log-variances), ctx the frame's LossContext and grad a flag. It computes
the value first, by one formula whatever grad is, then, when grad is true,
its closed-form gradient from the norms and terms that the value computed;
with grad false it returns (value, None) before the gradient block, after
every domain check. The posenet and homography kernels run on plain
Python floats, with one array, the gradient. LossContext builds each
kind's constants once per context, and diffgrad.loss_value (grad false)
and diffgrad.evaluate_with_grad (grad true) are the entry points to the
kernels.

With R, t the ground-truth camera expressed in the estimated camera frame,
the integral of ||I - H(x)||_F^2, H(x) = R - t n^T / x, over the planes
parallel to the image plane, n = (0, 0, -1), at depths x in [x_min, x_max]
is ||I - R||_F^2 + 2 c1 t^T (I - R) n + c2 |t|^2, with c2 = 1/(x_min x_max)
and c1 = ln(x_max/x_min)/(x_max - x_min), computed as log1p((x_max - x_min)
/ x_min)/(x_max - x_min), which stays within rounding on thin slabs. From a
pose pair these terms, like the geometric loss's residuals, are exactly 0
when the estimate equals the ground truth, for any gt quaternion, and so
are the loss and its gradient.

The oracles that validate the closed forms are used only by the tests and
live in tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dual
from .geometry import (
    DEPTH_EPS,
    InvalidInputError,
    Intrinsics,
    _point_rows,
    pose_row,
    project_points,
    quat_normalize,
    quat_to_rotmat,
    rotmat_elems,
)


@dataclass(frozen=True, eq=False)  # identity equality, as Frame
class SlabParams:
    """The homography slab: the planes parallel to the image plane at depths
    x_min to x_max along the optical axis."""

    x_min: float
    x_max: float

    def __post_init__(self):
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
        if not 0 < self.beta < math.inf:
            raise InvalidInputError("beta must be positive and finite")
        if not self.reproj_clip > 0:
            raise InvalidInputError("reproj_clip must be positive")
        if not 0 <= self.quat_reg_weight < math.inf:
            raise InvalidInputError(f"quat_reg_weight must be >= 0 and "
                                    f"finite, got {self.quat_reg_weight}")
        for name in ("s_t", "s_q"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(
                    f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class LossContext:
    """Everything a loss needs besides the estimated pose parameters, and the
    kernels' constants, each built when a kind first needs it and then reused.
    Frozen, so that no constant goes stale: change a field by a new context.
    A failed check raises InvalidInputError and caches nothing, so it raises
    each time."""

    gt: np.ndarray  # (7,) gt pose row (t, q), read-only
    hyper: LossHyperParams = field(default_factory=LossHyperParams)
    points: np.ndarray = None  # (N, 3) visible world points, read-only
    intrinsics: Intrinsics = None
    slab: SlabParams = None  # or the frame's error, for want of a slab

    def __post_init__(self):
        object.__setattr__(self, "gt", pose_row(self.gt))
        if self.points is not None:
            object.__setattr__(self, "points", _point_rows(self.points))

    @cached_property
    def pose_target(self) -> tuple:
        """gt t and the unit gt quaternion as lists of floats, the targets
        of the posenet, homoscedastic and maxerror kernels; InvalidInputError
        for a gt quaternion of zero or overflowing norm."""
        return self.gt[:3].tolist(), quat_normalize(self.gt[3:]).tolist()

    @cached_property
    def planar_points(self) -> np.ndarray:
        """The points as (3, N) x, y and z rows, read-only, the layout that
        project_points takes."""
        planar = self.points.T.copy()
        planar.flags.writeable = False
        return planar

    @cached_property
    def gt_uv(self) -> np.ndarray:
        """The geometric kernel's gt projection of the points, (2, N) u and v
        rows, non-empty, with intrinsics and every gt pixel finite, so no
        point at zero gt depth."""
        if self.points is None or len(self.points) == 0:
            raise InvalidInputError("geometric loss needs a non-empty point set")
        if self.intrinsics is None:
            raise InvalidInputError("geometric loss needs camera intrinsics")
        uv_gt, z_gt = project_points(self.gt[:3], quat_to_rotmat(self.gt[3:]),
                                     self.intrinsics, self.planar_points)
        if not np.isfinite(uv_gt).all():
            raise InvalidInputError(
                "a visible point lies at zero gt depth" if np.any(z_gt == 0.0)
                else "a visible point has a non-finite gt pixel")
        return uv_gt

    @cached_property
    def homography(self) -> tuple:
        """The homography kernel's constants, as floats: gt q, the third
        column of its rotation matrix, its sum of squares, the weights
        (2 c1, c2) of cross and tsq in the closed form, and gt t."""
        if self.slab is None:
            raise InvalidInputError("homography loss needs slab parameters")
        if isinstance(self.slab, InvalidInputError):  # a copy: the cached
            raise type(self.slab)(*self.slab.args)  # one keeps no traceback
        q_gt = self.gt[3:].tolist()
        x_min, x_max = self.slab.x_min, self.slab.x_max
        c1 = math.log1p((x_max - x_min) / x_min) / (x_max - x_min)
        return (q_gt, [row[2] for row in rotmat_elems(q_gt)],
                dual.sum_squares(q_gt), 2.0 * c1, 1.0 / (x_min * x_max),
                self.gt[:3].tolist())


# -- kernels: (p, ctx, grad) -> (value, gradient or None) ------------------

def _unit(vec, norm):
    """vec / norm, with norm = |vec|, or zeros at the origin, where |vec| has
    no gradient: each pose loss has an exactly zero gradient at its minimum."""
    if norm == 0.0:
        return np.zeros(len(vec))
    return np.asarray(vec, dtype=float) / norm


def _posenet_core(p, ctx: LossContext, grad):
    # Estimated quaternion enters raw; only the ground truth is normalized.
    # Plain floats: each norm sums its squares left to right, as
    # dual.sum_squares, and a zero norm gives +0.0 entries, as _unit.
    ((g0, g1, g2), (h0, h1, h2, h3)), beta = ctx.pose_target, ctx.hyper.beta
    t0, t1, t2, w, x, y, z = p
    d0, d1, d2 = t0 - g0, t1 - g1, t2 - g2
    e0, e1, e2, e3 = w - h0, x - h1, y - h2, z - h3
    norm_t = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    norm_q = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3)
    val = norm_t + beta * norm_q
    if not grad:
        return val, None
    u0, u1, u2 = (d0 / norm_t, d1 / norm_t, d2 / norm_t) \
        if norm_t != 0.0 else (0.0, 0.0, 0.0)
    v0, v1, v2, v3 = (e0 / norm_q, e1 / norm_q, e2 / norm_q, e3 / norm_q) \
        if norm_q != 0.0 else (0.0, 0.0, 0.0, 0.0)
    return val, np.array([u0, u1, u2, beta * v0, beta * v1, beta * v2,
                          beta * v3])


def _homoscedastic_core(p, ctx: LossContext, grad):
    """Gradient w.r.t. (t, q, s_t, s_q). With u = q/|q|, dq = qg - u and
    du/dq = (I - u u^T)/|q|, the L1 quaternion term has gradient
    e^-s_q (u (u . sign(dq)) - sign(dq)) / |q|."""
    gt_t, qg = ctx.pose_target
    q_est, s_t, s_q = p[3:7], p[7], p[8]
    norm = math.sqrt(dual.sum_squares(q_est))
    if norm == 0.0:
        raise InvalidInputError("zero-norm estimated quaternion")
    dt = [p[i] - gt_t[i] for i in range(3)]
    dq = [qg[i] - q_est[i] / norm for i in range(4)]
    l1_t = abs(dt[0]) + abs(dt[1]) + abs(dt[2])
    l1_q = abs(dq[0]) + abs(dq[1]) + abs(dq[2]) + abs(dq[3])
    try:
        w_t, w_q = math.exp(-s_t), math.exp(-s_q)
    except OverflowError:  # math.exp raises where np.exp would give inf
        raise InvalidInputError(f"homoscedastic weight e^-s overflows at "
                                f"s_t = {s_t}, s_q = {s_q}") from None
    val = l1_t * w_t + s_t + l1_q * w_q + s_q
    if not grad:
        return val, None
    # sign() gives the zero subgradient of a zero component
    sign_t, sign_q = np.sign(dt), np.sign(dq)
    u = _unit(q_est, norm)
    grad_q = w_q * (u * (u @ sign_q) - sign_q) / norm
    return val, np.concatenate([sign_t * w_t, grad_q,
                                [1.0 - l1_t * w_t, 1.0 - l1_q * w_q]])


def _geometric_core(p, ctx: LossContext, grad):
    """Mean clipped L1 reprojection error against ctx.gt_uv, the gt
    projection of the points. A point whose estimated depth is below
    DEPTH_EPS, or whose L1 residual d reaches the clip, contributes the clip
    and a zero gradient; sign() gives the zero subgradient at an L1 kink."""
    uv_gt, points, K = ctx.gt_uv, ctx.planar_points, ctx.intrinsics
    clip, q_est = ctx.hyper.reproj_clip, p[3:7]
    rows = rotmat_elems(q_est)
    uv, z = project_points(np.array(p[0:3]), np.array(rows), K, points)
    res = uv - uv_gt
    abs_res = np.abs(res)
    d = abs_res[0] + abs_res[1]
    near = np.abs(z) >= DEPTH_EPS
    n = len(z)
    # fmin(d, clip) is where(d < clip, d, clip) for every d, NaN and inf too
    capped = np.fmin(d, clip)
    every_near = np.count_nonzero(near) == n
    val = float(np.add.reduce(
        capped if every_near else np.where(near, capped, clip))) / n
    if not grad:
        return val, None

    # Per live point, with x = X/Z, y = Y/Z and s the residual signs,
    # dd/dX_c = g = h / Z where h = (a, b, c) = (s_u fx, s_v fy,
    # -s_u fx x - s_v fy y). From X_c = R^T (P - t), dd/dt = -R g. A body
    # rotation w of the camera moves X_c by X_c x w, so d has gradient
    # g x X_c = h x (x, y, 1) w.r.t. w. The loss sums these over the live
    # points and divides by n. h holds a, b, c and the three rows of
    # h x (x, y, 1), so that one vecdot and one row sum reduce them all;
    # -R g is then summed in floats, in a fixed order, not by BLAS.
    live = near  # in place: the value no longer reads near
    live &= d < clip
    if np.count_nonzero(live) != n:
        idx = live.nonzero()[0]
        uv, res, z = uv.take(idx, axis=1), res.take(idx, axis=1), z.take(idx)
    xy = (uv - K.principal) / K.focal
    h = np.empty((6, len(z)))
    ab = h[0:2]
    np.multiply(np.sign(res), K.focal, out=ab)
    axy = ab * xy                             # a x, b y
    np.subtract(-axy[0], axy[1], out=h[2])    # c, as (-a) x == -(a x)
    cxy = h[2] * xy                           # c x, c y
    ayx = ab * xy[::-1]                       # a y, b x
    np.subtract(ab[1], cxy[1], out=h[3])
    np.subtract(cxy[0], ab[0], out=h[4])
    np.subtract(ayx[0], ayx[1], out=h[5])
    g0, g1, g2 = np.vecdot(h[0:3], 1.0 / z).tolist()
    qw, qx, qy, qz = q_est  # |q|^2 summed as rotmat_elems sums it
    r0, r1, r2, r3 = dual.rotation_grad(
        q_est, np.add.reduce(h[3:6], axis=1).tolist(),
        qw * qw + qx * qx + qy * qy + qz * qz)
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return val, np.array([-(a0 * g0 + a1 * g1 + a2 * g2) / n,
                          -(b0 * g0 + b1 * g1 + b2 * g2) / n,
                          -(c0 * g0 + c1 * g1 + c2 * g2) / n,
                          r0 / n, r1 / n, r2 / n, r3 / n])


def _maxerror_core(p, ctx: LossContext, grad):
    """With u = q/|q| and dot = u . qg, d|dot|/dq = sign(dot) (qg - dot u)
    / |q| and d acos(a)/da = -1/sqrt(1 - a^2); the regularizer has gradient
    2 reg_weight (|q| - 1) u."""
    (gt_t, qg), reg_weight = ctx.pose_target, ctx.hyper.quat_reg_weight
    q_est = p[3:7]
    qn = math.sqrt(dual.sum_squares(q_est))
    reg = reg_weight * (qn - 1.0) ** 2
    d_cm = [(p[i] - gt_t[i]) * 100.0 for i in range(3)]
    trans_cm = math.sqrt(dual.sum_squares(d_cm))
    # The translation branch, unless the angle is defined and wins: at
    # qn == 0 the angle is undefined (a degenerate attractor where only the
    # regularizer and translation act), at |dot| >= 1 acos is clamped at 1,
    # angle 0, its derivative taken as 0, and exact ties take translation.
    angle = None
    if qn != 0.0:
        dot = (0 + q_est[0] * qg[0] + q_est[1] * qg[1] + q_est[2] * qg[2]
               + q_est[3] * qg[3]) / qn
        absdot = abs(dot)
        if not absdot >= 1.0:
            angle = math.acos(absdot) * (360.0 / math.pi)
            if trans_cm >= angle:
                angle = None
    val = trans_cm + reg if angle is None else angle + reg
    if not grad:
        return val, None
    u = _unit(q_est, qn)
    grad_reg = 2.0 * (qn - 1.0) * u * reg_weight
    if angle is None:
        return val, np.concatenate([100.0 * _unit(d_cm, trans_cm), grad_reg])
    grad_angle = -1.0 / math.sqrt(1.0 - absdot * absdot) * (
        np.sign(dot) * (np.array(qg) - dot * u) * (1.0 / qn)) \
        * (360.0 / math.pi)
    return val, np.concatenate([np.zeros(3), grad_angle + grad_reg])


def _homography_core(p, ctx: LossContext, grad):
    """Closed form from the pose pair, using |t_rel| = |d| and R_e R_e^T = I:
    rot = 8|v|^2 / (|q_e|^2 |q_g|^2) with v the vector part of
    conj(q_e) * q_g, cross = d^T m with m = (R_e - R_g) n, the third column
    of R_g minus that of R_e, tsq = |d|^2, where d = t_gt - t_est. Each
    component of v sums products that cancel pairwise, so v, d and m are
    exactly 0 when est == gt, for any gt quaternion, and so are the loss and
    its gradient.

    v = B q_e is linear in q_e, so d rot/dq_e = 16 B^T v / (|q_e|^2 |q_g|^2)
    - 2 rot q_e / |q_e|^2; dL/dt_est = -k1 m - 2 k2 d; a body rotation w of
    the estimate changes d^T R_e n by w . (n x R_e^T d) = w . (p1, -p0, 0)
    with p = R_e^T d.
    """
    (w2, x2, y2, z2), (g02, g12, g22), qq_g, k1, k2, (tg0, tg1, tg2) = \
        ctx.homography
    # Plain floats, in the operation order of geometry.rotmat_elems and of
    # sum() (its int start kept as 0 +), so that every bit of the value and
    # gradient, signed zeros too, is that of the nested-list form, whose
    # m_i sums (e_ij - g_ij) n_j over the three columns.
    t0, t1, t2, w1, x1, y1, z1 = p
    ww, xx, yy, zz = w1 * w1, x1 * x1, y1 * y1, z1 * z1
    qq_e = ww + xx + yy + zz
    if qq_e == 0.0:
        raise InvalidInputError("zero-norm quaternion")
    inv = 1.0 / qq_e  # R_e = rotmat_elems(q_est), normalized
    xz, yz, wx, wy = x1 * z1, y1 * z1, w1 * x1, w1 * y1
    e02 = 2.0 * (xz + wy) * inv
    e12 = 2.0 * (yz - wx) * inv
    e22 = (ww - xx - yy + zz) * inv
    v0 = (w1 * x2 - x1 * w2) + (z1 * y2 - y1 * z2)
    v1 = (w1 * y2 - y1 * w2) + (x1 * z2 - z1 * x2)
    v2 = (w1 * z2 - z1 * w2) + (y1 * x2 - x1 * y2)
    rot = 8.0 * (v0 * v0 + v1 * v1 + v2 * v2) / (qq_e * qq_g)
    d0, d1, d2 = tg0 - t0, tg1 - t1, tg2 - t2
    # 0.0 - (e - g), not g - e: the sign of a zero m_i of that sum
    m0, m1, m2 = 0.0 - (e02 - g02), 0.0 - (e12 - g12), 0.0 - (e22 - g22)
    cross = 0 + d0 * m0 + d1 * m1 + d2 * m2
    val = rot + k1 * cross + k2 * (d0 * d0 + d1 * d1 + d2 * d2)
    if not grad:
        return val, None

    xy, wz = x1 * y1, w1 * z1
    e00 = (ww + xx - yy - zz) * inv
    e01 = 2.0 * (xy - wz) * inv
    e10 = 2.0 * (xy + wz) * inv
    e11 = (ww - xx + yy - zz) * inv
    e20 = 2.0 * (xz - wy) * inv
    e21 = 2.0 * (yz + wx) * inv
    p0 = 0 + e00 * d0 + e10 * d1 + e20 * d2
    p1 = 0 + e01 * d0 + e11 * d1 + e21 * d2
    r0, r1, r2, r3 = dual.rotation_grad(p[3:7], [p1, -p0, 0.0], qq_e)
    a, b, two_k2 = 16.0 / (qq_e * qq_g), 2.0 * rot / qq_e, 2.0 * k2
    return val, np.array([
        -k1 * m0 - two_k2 * d0,
        -k1 * m1 - two_k2 * d1,
        -k1 * m2 - two_k2 * d2,
        a * (x2 * v0 + y2 * v1 + z2 * v2) - b * w1 + k1 * r0,
        a * (-w2 * v0 + z2 * v1 - y2 * v2) - b * x1 + k1 * r1,
        a * (-z2 * v0 - w2 * v1 + x2 * v2) - b * y1 + k1 * r2,
        a * (y2 * v0 - x2 * v1 - w2 * v2) - b * z1 + k1 * r3,
    ])
