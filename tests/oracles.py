"""Reference implementations used only by the tests.

They back the checks of the library's closed forms: single-plane
homographies and their Frobenius error, the sensor-integrated reprojection
error and its dense-grid quadrature, the midpoint quadrature of the slab
integral, an independent algebraic reduction of the closed form, pose
composition, one-point projection and depth, the per-point DiffScalar
form of the geometric loss that its numpy kernel replaced, and the
DiffScalar value and gradient of every loss kind.
"""

import math
from dataclasses import dataclass

import numpy as np

import diffscalar
from homoloss.geometry import (
    DEPTH_EPS,
    InvalidInputError,
    Intrinsics,
    Pose,
    RelativePose,
    project_points,
    quat_to_rotmat,
    rotmat_to_quat,
)
from homoloss.losses import SlabParams


class InvalidDepthError(ValueError):
    pass


class PointAtInfinity(Exception):
    """Raised when a point lies in the camera x-y plane (|Z| < DEPTH_EPS)."""


@dataclass(frozen=True)
class Homography:
    """Unnormalized plane-induced homography H = R - t n^T / x."""

    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))


def apply_relative(est: Pose, rel: RelativePose) -> Pose:
    """Compose an estimated pose with a relative pose; recovers the gt pose."""
    R_est = quat_to_rotmat(est.q)
    R = R_est @ rel.R
    t = est.t + R_est @ rel.t
    return Pose(t, rotmat_to_quat(R))


def project(pose: Pose, K: Intrinsics, P):
    """Pinhole projection of one world point P.

    Returns (pixel 2-vector, signed depth). Backside points (Z < 0) project
    to a valid pixel with negative depth. Raises PointAtInfinity when the
    point lies in the camera x-y plane.
    """
    uv, z = project_points(pose, K, np.asarray(P, dtype=float).reshape(1, 3))
    if abs(z[0]) < DEPTH_EPS:
        raise PointAtInfinity(f"point {P} has camera depth {z[0]}")
    return uv[0], float(z[0])


def homography(rel: RelativePose, n, x) -> Homography:
    """Plane-induced homography H = R - t n^T / x for plane normal n at
    depth x > 0 in the ground-truth camera frame."""
    if x <= 0:
        raise InvalidDepthError(f"plane depth must be positive, got {x}")
    n = np.asarray(n, dtype=float)
    return Homography(rel.R - np.outer(rel.t, n) / x)


def point_depth(pose: Pose, P) -> float:
    """Signed depth: z-coordinate of P in the camera frame (distance along
    the optical axis, matching the n = (0,0,-1) plane family)."""
    R = quat_to_rotmat(pose.q)
    return float((R.T @ (np.asarray(P, dtype=float) - pose.t))[2])


def single_plane_error(H: Homography) -> float:
    """Squared Frobenius norm of I - H."""
    D = np.eye(3) - H.H
    return float(np.sum(D * D))


def sensor_weighted_reproj(H: Homography, w: float, h: float) -> float:
    """Sensor-integrated small-motion reprojection error:
    Tr(diag(h w^3/12, w h^3/12, w h) (I-H)^T (I-H))."""
    if w <= 0 or h <= 0:
        raise InvalidInputError("sensor extents must be positive")
    D = np.eye(3) - H.H
    W = np.diag([h * w**3 / 12.0, w * h**3 / 12.0, w * h])
    return float(np.trace(W @ D.T @ D))


def sensor_grid_reproj(H: Homography, w: float, h: float,
                       n_grid: int = 256) -> float:
    """Dense-grid quadrature of the exact per-pixel reprojection error over
    the sensor, without the small-motion approximation.

    For each sensor point p = (px, py, 1), the homography maps it to
    H p = (x'', y'', s); the reprojection error is |p - Hp/s|^2 including
    the (zero) third component. Integrated with midpoint cells.
    """
    M = H.H
    xs = (np.arange(n_grid) + 0.5) / n_grid * w - w / 2.0
    ys = (np.arange(n_grid) + 0.5) / n_grid * h - h / 2.0
    px, py = np.meshgrid(xs, ys, indexing="ij")
    ones = np.ones_like(px)
    p = np.stack([px, py, ones], axis=-1)  # (n, n, 3)
    Hp = p @ M.T
    s = Hp[..., 2]
    diff = p - Hp / s[..., None]
    e = np.sum(diff * diff, axis=-1)
    cell = (w / n_grid) * (h / n_grid)
    return float(np.sum(e) * cell)


def homography_loss_numeric(rel: RelativePose, slab: SlabParams,
                            n_samples: int) -> float:
    """Composite-midpoint quadrature of the slab integral (oracle only)."""
    if n_samples < 2:
        raise InvalidInputError("need at least 2 quadrature samples")
    x = slab.x_min + (np.arange(n_samples) + 0.5) * (
        (slab.x_max - slab.x_min) / n_samples
    )
    tn = np.outer(rel.t, slab.n)
    D = (np.eye(3) - rel.R)[None, :, :] + tn[None, :, :] / x[:, None, None]
    vals = np.sum(D * D, axis=(1, 2))
    return float(np.mean(vals))


def scalar_form_oracle(rel: RelativePose, slab: SlabParams) -> float:
    """Independent algebraic reduction of the closed form:
    4(1-cos theta) + 2 t^T (I-R) n * ln(xmax/xmin)/(xmax-xmin)
                   + |t|^2 |n|^2 / (xmin xmax)."""
    R = rel.R
    t = rel.t
    n = slab.n
    cos_theta = max(-1.0, min(1.0, (np.trace(R) - 1.0) / 2.0))
    term_a = 4.0 * (1.0 - cos_theta)
    term_b = (
        2.0
        * float(t @ (np.eye(3) - R) @ n)
        * math.log(slab.x_max / slab.x_min)
        / (slab.x_max - slab.x_min)
    )
    term_c = float(t @ t) * float(n @ n) / (slab.x_min * slab.x_max)
    return term_a + term_b + term_c


def geometric_loop(est: Pose, gt: Pose, points, K: Intrinsics, clip):
    """Geometric loss and its gradient w.r.t. (t, q), one point at a time
    in DiffScalar arithmetic."""
    params = diffscalar.seed(est.params())
    t, q = params[:3], params[3:]
    R = diffscalar.rotmat_elems(q)
    total = 0.0
    for P, (u0, v0) in zip(points, project_points(gt, K, points)[0]):
        d = [P[k] - t[k] for k in range(3)]
        X, Y, Z = [sum(R[k][i] * d[k] for k in range(3)) for i in range(3)]
        if abs(Z.val) < DEPTH_EPS:
            total = total + clip
            continue
        err = abs(K.fx * X / Z + K.cx - u0) + abs(K.fy * Y / Z + K.cy - v0)
        total = total + (err if err.val < clip else clip)
    total = total / len(points)
    return diffscalar.value(total), diffscalar.gradient(total, 7)


def reference_grad(kind, params, ctx):
    """(value, gradient) of a loss kind at a flat parameter vector, from the
    DiffScalar cores (geometric: geometric_loop), dispatched as
    diffgrad.evaluate_with_grad dispatches to the kernels."""
    if kind == "geometric":
        return geometric_loop(Pose.from_params(params), ctx.gt, ctx.points,
                              ctx.intrinsics, ctx.hyper.reproj_clip)
    seeded = diffscalar.seed(params)
    t, q = seeded[0:3], seeded[3:7]
    if kind == "posenet":
        out = diffscalar.posenet_core(t, q, ctx.gt, ctx.hyper.beta)
    elif kind == "homoscedastic":
        out = diffscalar.homoscedastic_core(t, q, seeded[7], seeded[8], ctx.gt)
    elif kind == "maxerror":
        out = diffscalar.maxerror_core(t, q, ctx.gt, ctx.hyper.quat_reg_weight)
    else:
        out = diffscalar.homography_core(t, q, ctx.gt, ctx.slab)
    return diffscalar.value(out), diffscalar.gradient(out, len(params))
