"""Reference implementations used only by the tests.

They back the checks of the library's closed forms: the relative pose of
the ground truth expressed in the estimated camera frame, R_rel = R_est^T
R_gt and t_rel = R_est^T (t_gt - t_est), and the slab loss's closed form
from it; single-plane homographies and their Frobenius error, the
sensor-integrated reprojection error and its dense-grid quadrature, the
midpoint quadrature of the slab integral, an independent algebraic
reduction of the closed form, pose composition, one-point projection and
depth, the per-point DiffScalar form of the geometric loss that its numpy
kernel replaced, the DiffScalar value and gradient of every loss kind, and
the per-frame np.quantile slab estimation that the batched percentile
routine replaced, the library's slab bounds of one group of depths, and
the per-frame projection, gt depths and reprojection metric that the
scene's stacked view replaced, the nested-list homography kernel and
array-form rotation gradient that the plain-float ones replaced, the
geometric kernel on (N, 2) pixel pairs that the planar u/v rows replaced,
and the per-frame synthetic scene loop, with its look-at and the
per-matrix rotmat_to_quat and quat_canonical, that the array form
replaced, and the CSV line of the generator of format() calls that the
%-formatting list replaced; the per-frame rotation angle and percentage
table that the stacked pct_within replaced, and the optimizer loop that
gathered and scattered each frame's parameters through an index table and
built Pose objects every epoch; the complex-step gradient of the
homography kernel; the landscape sweep that offset each cell's parameters
in turn and the finite-difference gradient that copied the parameters
twice per coordinate; and the one-pose sweep offset that optimize's
adversarial init applied frame by frame; and the rotation entries as one
expression each, before rotmat_elems formed each quaternion product once.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

import diffscalar
from homoloss import diffgrad, losses
from homoloss.geometry import (
    DEPTH_EPS,
    InvalidInputError,
    Intrinsics,
    Pose,
    project_points,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
    rotmat_elems,
    rotmat_to_quat,
)
from homoloss import dual
from homoloss.dual import sum_squares
from diffscalar import PLANE_NORMAL, slab_weights
from homoloss.losses import SlabParams
from homoloss.optim import EVAL_REPROJ_CLIP, SWEEP_AXES, AdamState, \
    DIVERGED, EpochStats, RunRecord, ZERO_GT_DEPTH, ZERO_Q, _epoch_batches, \
    _safe_value, adam_update, frame_context, mean_reproj_distance, \
    offset_rows
from homoloss.scene import DegenerateDepthError, Frame, GenerationError, \
    Scene, _slab_params, _sorted_positive, default_intrinsics


class InvalidDepthError(ValueError):
    pass


class PointAtInfinity(Exception):
    """Raised when a point lies in the camera x-y plane (|Z| < DEPTH_EPS)."""


@dataclass(frozen=True)
class RelativePose:
    """Ground-truth camera frame expressed in the estimated camera frame."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))


def relative_pose(gt: Pose, est: Pose) -> RelativePose:
    """Ground-truth pose expressed in the (normalized) estimated frame."""
    R_gt = quat_to_rotmat(gt.q)
    R_est = quat_to_rotmat(est.q)
    R = R_est.T @ R_gt
    t = R_est.T @ (gt.t - est.t)
    return RelativePose(R, t)


def homography_loss_closed(rel: RelativePose, slab: SlabParams,
                           n=PLANE_NORMAL) -> float:
    """Closed-form slab integral of the squared Frobenius homographic error
    over the planes of normal n."""
    M = np.eye(3) - rel.R
    k1, k2 = slab_weights(slab, n)
    return float(np.sum(M * M) + k1 * float(rel.t @ M @ n)
                 + k2 * float(rel.t @ rel.t))


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
    uv, z = project_points(pose.t, quat_to_rotmat(pose.q), K,
                           np.asarray(P, dtype=float).reshape(1, 3))
    if abs(z[0]) < DEPTH_EPS:
        raise PointAtInfinity(f"point {P} has camera depth {z[0]}")
    return uv[:, 0], float(z[0])


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
                            n_samples: int, n=PLANE_NORMAL) -> float:
    """Composite-midpoint quadrature of the slab integral over the planes
    of normal n (oracle only)."""
    if n_samples < 2:
        raise InvalidInputError("need at least 2 quadrature samples")
    x = slab.x_min + (np.arange(n_samples) + 0.5) * (
        (slab.x_max - slab.x_min) / n_samples
    )
    M = np.eye(3) - rel.R
    tn = np.outer(rel.t, n)
    # ||M + tn/x||_F^2 at every sample, summed one matrix entry at a time
    vals = np.zeros(n_samples)
    for i in range(3):
        for j in range(3):
            d = M[i, j] + tn[i, j] / x
            vals += d * d
    return float(np.mean(vals))


def scalar_form_oracle(rel: RelativePose, slab: SlabParams,
                       n=PLANE_NORMAL) -> float:
    """Independent algebraic reduction of the closed form:
    4(1-cos theta) + 2 t^T (I-R) n * ln(xmax/xmin)/(xmax-xmin)
                   + |t|^2 |n|^2 / (xmin xmax)."""
    R = rel.R
    t = rel.t
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
    uv_gt = project_points(gt.t, quat_to_rotmat(gt.q), K, points)[0]
    for P, (u0, v0) in zip(points, uv_gt.T):
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


def quantile_bounds(depths, lo, hi):
    """(count, x_min, x_max) of a group's positive depths, the bounds from
    np.quantile(..., method="linear"); NaN bounds below 2 positive depths."""
    depths = np.asarray(depths, dtype=float)
    positive = depths[depths > 0]
    if len(positive) < 2:
        return len(positive), math.nan, math.nan
    return (len(positive), float(np.quantile(positive, lo)),
            float(np.quantile(positive, hi)))


def slab_loop(groups, lo, hi, frame_ids):
    """Slab bounds [(x_min, x_max)] one frame at a time, raising
    DegenerateDepthError for the first frame, in order, with fewer than 2
    positive depths or with x_min >= x_max."""
    out = []
    for depths, fid in zip(groups, frame_ids):
        n, x_min, x_max = quantile_bounds(depths, lo, hi)
        if n < 2:
            raise DegenerateDepthError(
                f"frame {fid}: needs at least 2 positive-depth points, "
                f"got {n}")
        if not x_min < x_max:
            raise DegenerateDepthError(
                f"frame {fid}: degenerate depth distribution, "
                f"x_min={x_min} >= x_max={x_max}")
        out.append((x_min, x_max))
    return out


def percentile_bounds(depths, lo, hi, frame_id=None):
    """The library's SlabParams of one group of depths (scene._slab_params
    on a single group)."""
    return _slab_params(_sorted_positive([depths]), lo, hi, [frame_id])[0]


def project_points_2d(pose: Pose, K: Intrinsics, points):
    """The projection of (N, 3) points under one pose as one (N, 3) @ (3, 3)
    product, as project_points computed it before its stacked form."""
    R = quat_to_rotmat(pose.q)
    cam = (np.asarray(points, dtype=float) - pose.t) @ R
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * cam[:, 0] / z + K.cx
        v = K.fy * cam[:, 1] / z + K.cy
    return np.column_stack([u, v]), z


def geometric_core_pairs(p, ctx, grad):
    """losses._geometric_core as it read (N, 2) pixel pairs, u and v side
    by side, through project_points_2d's projection; the kernel on planar
    u/v rows must equal it bit for bit."""
    ctx.gt_uv  # the kernel's checks of the points, intrinsics and gt depths
    uv_gt = project_points_2d(ctx.gt, ctx.intrinsics, ctx.points)[0]
    points, K = ctx.points, ctx.intrinsics
    clip, q_est = ctx.hyper.reproj_clip, p[3:7]
    R = quat_to_rotmat(q_est)
    uv, z = project_points_2d(Pose(p[0:3], q_est), K, points)
    res = uv - uv_gt
    d = np.abs(res).sum(axis=1)
    live = (np.abs(z) >= DEPTH_EPS) & (d < clip)
    n = len(z)
    val = float(np.where(live, d, clip).sum()) / n
    if not grad:
        return val, None

    x = (uv[live, 0] - K.cx) / K.fx
    y = (uv[live, 1] - K.cy) / K.fy
    su, sv = np.sign(res[live]).T
    a, b = su * K.fx, sv * K.fy
    c = -a * x - b * y
    inv_z = 1.0 / z[live]
    g_sum = np.array([a @ inv_z, b @ inv_z, c @ inv_z])
    gx_sum = np.array([(b - c * y).sum(), (c * x - a).sum(),
                       (a * y - b * x).sum()])
    g0, g1, g2 = g_sum.tolist()
    grad_t = [-(r0 * g0 + r1 * g1 + r2 * g2) / n for r0, r1, r2 in R.tolist()]
    grad_q = np.array(dual.rotation_grad(q_est, gx_sum.tolist(),
                                         sum_squares(q_est))) / n
    return val, np.concatenate([grad_t, grad_q])


def frame_depths_loop(scene, frame):
    """One frame's gt depths, computed from its own points."""
    R = quat_to_rotmat(frame.gt_pose.q)
    return (scene.visible_points(frame) - frame.gt_pose.t) @ R[:, 2]


def mean_reproj_distance_loop(est_poses, scene,
                              clip: float = EVAL_REPROJ_CLIP) -> float:
    """Mean over frames of the mean clipped L2 pixel distance between gt and
    estimated projections of the frame's visible points; est_poses holds one
    (frame id, Pose) per scene frame, in order. Projections to infinity count
    as the clip. Frames without visible points are skipped; InvalidInputError
    when no frame has one, or naming the first where a visible point lies at
    zero gt depth or the estimate q is zero."""
    if [fid for fid, _ in est_poses] != [f.id for f in scene.frames]:
        raise InvalidInputError("need one estimate per scene frame, in order")
    K = scene.intrinsics
    per_frame = []
    for (fid, est), frame in zip(est_poses, scene.frames):
        pts = scene.visible_points(frame)
        if len(pts) == 0:
            continue
        gt = frame.gt_pose
        uv_gt, z_gt = project_points(gt.t, quat_to_rotmat(gt.q), K, pts)
        if np.any(z_gt == 0.0):
            raise InvalidInputError(
                f"frame {frame.id}: a visible point lies at zero gt depth"
            )
        if not np.any(est.q * est.q):
            raise InvalidInputError(f"frame {frame.id}: zero-norm quaternion")
        uv, z = project_points(est.t, quat_to_rotmat(est.q), K, pts)
        dist = np.minimum(clip, np.hypot(*(uv - uv_gt)))
        d = np.where(np.abs(z) >= DEPTH_EPS, dist, clip)
        per_frame.append(float(np.mean(d)))
    if not per_frame:
        raise InvalidInputError(
            "mean reprojection distance needs a frame with visible points"
        )
    return float(np.mean(per_frame))


def rotation_grad_array(q, g, qq):
    """dual.rotation_grad as a quaternion product of arrays, 2 q * (0, g)
    / qq, with qq = |q|^2."""
    q = np.asarray(q, dtype=float)
    return quat_multiply(q, [0.0, *g]) * (2.0 / qq)


def homography_core_nested(t_est, q_est, gt: Pose, slab: SlabParams, grad,
                           n=PLANE_NORMAL):
    """losses._homography_core over nested lists, sum() reductions and small
    arrays, for the planes of normal n, its constants built from gt and
    slab."""
    w2, x2, y2, z2 = q_gt = gt.q.tolist()
    R_g, qq_g, t_gt = rotmat_elems(q_gt), sum_squares(q_gt), gt.t.tolist()
    (k1, k2), n = slab_weights(slab, n), [float(c) for c in n]
    R_e = rotmat_elems(q_est)
    w1, x1, y1, z1 = q_est
    v = [
        (w1 * x2 - x1 * w2) + (z1 * y2 - y1 * z2),
        (w1 * y2 - y1 * w2) + (x1 * z2 - z1 * x2),
        (w1 * z2 - z1 * w2) + (y1 * x2 - x1 * y2),
    ]
    qq_e = sum_squares(q_est)
    rot = 8.0 * sum_squares(v) / (qq_e * qq_g)
    d = [t_gt[i] - t_est[i] for i in range(3)]
    m = [sum((R_e[i][j] - R_g[i][j]) * n[j] for j in range(3))
         for i in range(3)]
    cross = sum(d[i] * m[i] for i in range(3))
    val = rot + k1 * cross + k2 * sum_squares(d)
    if not grad:
        return val, None

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
        + k1 * rotation_grad_array(q_est, body, qq_e)
    grad_t = [-k1 * m[i] - 2.0 * k2 * d[i] for i in range(3)]
    return val, np.concatenate([grad_t, grad_q])


def quat_normalize_one(q):
    """geometry.quat_normalize of one quaternion, as it read before its
    stacked form."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise InvalidInputError("zero-norm quaternion")
    return q / n


def quat_canonical_one(q):
    """Unit quaternion with non-negative scalar part (double cover collapsed)."""
    q = quat_normalize_one(q)
    return -q if q[0] < 0 else q


def rotmat_elems_expressions(q):
    """geometry.rotmat_elems as it read before it formed each quaternion
    product once: every entry an expression of its own over w, x, y, z."""
    w, x, y, z = q
    s = w * w + x * x + y * y + z * z
    if (s == 0.0) if isinstance(s, float) else not s.all():
        raise InvalidInputError("zero-norm quaternion")
    inv = 1.0 / s
    return [
        [
            (w * w + x * x - y * y - z * z) * inv,
            2.0 * (x * y - w * z) * inv,
            2.0 * (x * z + w * y) * inv,
        ],
        [
            2.0 * (x * y + w * z) * inv,
            (w * w - x * x + y * y - z * z) * inv,
            2.0 * (y * z - w * x) * inv,
        ],
        [
            2.0 * (x * z - w * y) * inv,
            2.0 * (y * z + w * x) * inv,
            (w * w - x * x - y * y + z * z) * inv,
        ],
    ]


def rotmat_to_quat_one(R):
    """Quaternion (w, x, y, z) of a rotation matrix, canonical sign."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([
            0.25 * s,
            (R[2, 1] - R[1, 2]) / s,
            (R[0, 2] - R[2, 0]) / s,
            (R[1, 0] - R[0, 1]) / s,
        ])
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([
            (R[2, 1] - R[1, 2]) / s,
            0.25 * s,
            (R[0, 1] + R[1, 0]) / s,
            (R[0, 2] + R[2, 0]) / s,
        ])
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([
            (R[0, 2] - R[2, 0]) / s,
            (R[0, 1] + R[1, 0]) / s,
            0.25 * s,
            (R[1, 2] + R[2, 1]) / s,
        ])
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([
            (R[1, 0] - R[0, 1]) / s,
            (R[0, 2] + R[2, 0]) / s,
            (R[1, 2] + R[2, 1]) / s,
            0.25 * s,
        ])
    return quat_canonical_one(q)


def look_at(position, target, up, roll_rad=0.0):
    """World-from-camera rotation with +z pointing from position to target."""
    z = np.asarray(target, dtype=float) - position
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(up, dtype=float), z)
    nx = np.linalg.norm(x)
    if nx < 1e-12:  # looking straight along up: pick any perpendicular
        x = np.cross([1.0, 0.0, 0.0], z)
        nx = np.linalg.norm(x)
    x = x / nx
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    q = rotmat_to_quat_one(R)
    if roll_rad != 0.0:
        q = quat_multiply(q, quat_from_axis_angle([0, 0, 1], roll_rad))
    return quat_canonical_one(q)


def synth_scene_loop(seed: int, n_points: int = 60, n_frames: int = 8,
                     depth_range=(2.0, 8.0),
                     intrinsics: Intrinsics = None) -> Scene:
    """scene.synth_scene as it read before its array form: one look-at, one
    projection and one visibility test per frame, with the per-matrix
    rotmat_to_quat and quat_canonical above."""
    if n_points < 10:
        raise InvalidInputError("need at least 10 points")
    if n_frames < 1:
        raise InvalidInputError("need at least 1 frame")
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise InvalidInputError("depth_range must satisfy 0 < lo < hi < inf")
    rng = np.random.default_rng(seed)
    span = hi - lo
    extent = 0.25 * span            # half-extent of the point box
    mid = 0.5 * (lo + hi)
    points = rng.uniform(-extent, extent, size=(n_points, 3))
    K = default_intrinsics() if intrinsics is None else intrinsics
    frames = []
    for i in range(n_frames):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        dist = mid + rng.uniform(-0.05, 0.05) * span
        position = direction * dist
        roll = rng.uniform(-math.pi, math.pi)
        q = look_at(position, np.zeros(3), up=[0.0, 1.0, 0.0], roll_rad=roll)
        pose = Pose(position, q)
        (u, v), z = project_points(position, quat_to_rotmat(q), K, points)
        visible = np.flatnonzero(
            (z > 0) & (0.0 <= u) & (u <= K.w) & (0.0 <= v) & (v <= K.h)
        )
        if len(visible) < 2:
            raise GenerationError(
                f"frame {i} sees only {len(visible)} points; adjust the "
                f"intrinsics, depth_range, or n_points"
            )
        frames.append(Frame(id=f"f{i:03d}", gt_pose=pose, visible=visible))
    return Scene(points=points, frames=frames, intrinsics=K)


def csv_line(row):
    """One CSV row as cli._write_csv wrote it with format(v, ".17g")."""
    return ",".join(format(v, ".17g") if isinstance(v, float)
                    else str(v) for v in row) + "\n"


def angle_between(q1, q2):
    """Geodesic rotation angle between two quaternions, in degrees."""
    u1 = quat_normalize(q1)
    u2 = quat_normalize(q2)
    d = min(abs(float(np.dot(u1, u2))), 1.0)  # keeps a NaN, unlike min(1, .)
    return 2.0 * math.acos(d) * 180.0 / math.pi


def pct_within_loop(est_poses, gt_poses, thresholds) -> list:
    """optim.pct_within one frame at a time: np.linalg.norm of the t
    difference and angle_between per frame, then one count per pair."""
    if len(est_poses) != len(gt_poses) or not est_poses:
        raise InvalidInputError(f"need one estimate per gt pose and at least "
                                f"one: {len(est_poses)} vs {len(gt_poses)}")
    errs = [(float(np.linalg.norm(est.t - gt.t)), angle_between(est.q, gt.q))
            for est, gt in zip(est_poses, gt_poses)]
    return [sum(dt <= t and dr <= r for dt, dr in errs) / len(errs)
            for t, r in thresholds]


def optimize_poses_loop(scene, init_poses, config) -> RunRecord:
    """optim.optimize_poses as it read before it ran on parameter rows: each
    frame gathers its parameters through a row of an index table, scatters
    its gradient back through it, and every epoch's metric gets one
    (frame id, Pose) pair per frame. After each epoch, a frame that reads a
    parameter that is not finite or whose |q|^2, summed in Python floats,
    overflows aborts the run with the parameters of the epoch's start. The
    final estimates are (F, 7) rows."""
    frames = scene.frames
    if len(init_poses) != len(frames):
        raise InvalidInputError("need one initial pose per frame")
    for i in np.flatnonzero(scene.stacked.zero_gt_depth)[:1]:
        raise InvalidInputError(ZERO_GT_DEPTH.format(frames[i].id))
    for i, pose in enumerate(init_poses):
        if not np.any(pose.q * pose.q):
            raise InvalidInputError(ZERO_Q.format(frames[i].id))
    warm_errors = []
    if config.warmstart_epochs > 0:
        warm_cfg = replace(
            config,
            loss_kind="homoscedastic",
            adam_eps=None,
            warmstart_epochs=0,
            epochs=config.warmstart_epochs,
        )
        warm = optimize_poses_loop(scene, init_poses, warm_cfg)
        warm_errors = [f"warm start: {e}" for e in warm.errors]
        if warm.aborted:
            return RunRecord([], warm.final_params, warm_errors, aborted=True)
        init_poses = [Pose.from_params(row) for row in warm.final_params]

    kind = config.loss_kind
    with_s = diffgrad.param_count(kind) == 9
    F = len(frames)
    params = np.concatenate(
        [p.params() for p in init_poses]
        + ([[config.hyper.s_t, config.hyper.s_q]] if with_s else [])
    )
    n_params = len(params)
    # row i: the indices of frame i's parameters in params, its pose and
    # then the shared s_t/s_q; unique, so fancy-indexed += adds each once
    index = np.hstack([np.arange(7 * F).reshape(F, 7),
                       np.tile(np.arange(7 * F, n_params), (F, 1))])
    ctxs = [frame_context(scene, f, kind, config.hyper, config.slab)
            for f in frames]
    state = AdamState.zeros(n_params)
    rng = np.random.default_rng(config.seed)
    record = RunRecord(epochs=[], final_params=None)
    skipped = {}

    def current_poses():
        return [
            (frames[i].id, Pose.from_params(params[7 * i:7 * i + 7]))
            for i in range(F)
        ]

    for epoch in range(config.epochs):
        s_start = (float(params[7 * F]), float(params[7 * F + 1])) \
            if with_s else (None, None)
        start = params
        order = rng.permutation(F)
        epoch_losses = []
        epoch_errors = 0
        for batch in _epoch_batches(order, config.batch_size):
            grads = np.zeros(n_params)
            ok = 0
            batch_loss = 0.0
            for i in sorted(batch):
                try:
                    val, g = diffgrad.evaluate_with_grad(
                        kind, params[index[i]], ctxs[i]
                    )
                except InvalidInputError as e:
                    key = (frames[i].id, str(e))
                    skipped.setdefault(key, [epoch, 0])[1] += 1
                    epoch_errors += 1
                    continue
                grads[index[i]] += g
                batch_loss += val
                ok += 1
            if ok == 0:
                continue
            grads /= len(batch)
            params, state = adam_update(params, grads, state, config)
            epoch_losses.append(batch_loss / ok)
        abort = None
        if epoch_errors > 0.5 * F:
            abort = f"{epoch_errors}/{F} frames errored"
        for i in range(F):
            frame_params = params[index[i]].tolist()
            q2 = sum(v * v for v in frame_params[3:7])
            if not all(map(math.isfinite, frame_params + [q2])):
                abort = DIVERGED.format(frames[i].id)
                params = start
                break
        if abort:
            record.aborted = True
            record.errors.append(f"epoch {epoch}: aborted, {abort}")
            break
        record.epochs.append(EpochStats(
            epoch, float(np.mean(epoch_losses)),
            mean_reproj_distance(current_poses(), scene), *s_start))
    record.errors[:0] = warm_errors + [
        f"frame {fid}: {msg} (skipped from epoch {first}, {steps} steps)"
        for (fid, msg), (first, steps) in skipped.items()
    ]
    record.final_params = np.array([p.params() for _, p in current_poses()])
    return record


def offset_params(params, axis: str, offset: float) -> np.ndarray:
    """One parameter vector perturbed along one sweep axis, as one cell of
    a landscape sweep was before offset_rows built the sweep's cells as one
    array: a copy of params with offset added to a translation entry, or q
    times the offset's rotation, computed for this cell."""
    if axis not in SWEEP_AXES:
        raise InvalidInputError(f"unknown sweep axis {axis!r}")
    i = SWEEP_AXES.index(axis)
    params = params.copy()
    if i < 3:
        params[i] += offset
    else:
        dq = quat_from_axis_angle(np.eye(3)[i - 3], math.radians(offset))
        params[3:7] = quat_multiply(params[3:7], dq)
    return params


def apply_offset(gt: Pose, axis: str, offset: float) -> Pose:
    """A pose perturbed along one sweep axis, as offset_rows does it for
    one row and one offset: the per-pose form that optimize's adversarial
    init used before it offset every gt row at once."""
    return Pose.from_params(offset_rows(gt.params()[None], axis,
                                        [offset])[0])


def landscape_sweep_loop(kind, ctx, axis, offsets, axis2=None,
                         offsets2=None, errors=None):
    """optim.landscape_sweep's rows cell by cell, each offset with
    offset_params, for offsets that pass landscape_sweep's checks."""
    gt = diffgrad.params_for(kind, ctx.gt, ctx)
    rows = []
    for off in np.asarray(offsets, dtype=float):
        est1 = offset_params(gt, axis, off)
        if axis2 is None:
            rows.append((off, _safe_value(kind, est1, ctx, errors)))
            continue
        for off2 in np.asarray(offsets2, dtype=float):
            est = offset_params(est1, axis2, off2)
            rows.append((off, off2, _safe_value(kind, est, ctx, errors)))
    return rows


def finite_diff_grad_loop(kind, est, ctx, step=1e-6):
    """diffgrad.finite_diff_grad with two copies of the parameters per
    coordinate, one moved by +step and one by -step."""
    params = np.asarray(est, dtype=float)
    grad = np.zeros(len(params))
    for i in range(len(params)):
        hi = params.copy()
        lo = params.copy()
        hi[i] += step
        lo[i] -= step
        try:
            f_hi = diffgrad.loss_value(kind, hi, ctx)
            f_lo = diffgrad.loss_value(kind, lo, ctx)
        except InvalidInputError as e:
            raise InvalidInputError(
                f"loss evaluation failed probing coordinate {i}: {e}"
            ) from e
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    return grad


COMPLEX_STEP = 1e-30


def homography_grad_complex_step(p, ctx):
    """The gradient of losses._homography_core's value at the 7 floats p by
    complex step, Im f(p + i h e_k) / h with h = COMPLEX_STEP: its value
    path uses only +, -, * and / on the estimate, so it runs unchanged on
    complex numbers, and the derivative has no subtractive cancellation."""
    p = [float(x) for x in p]
    return np.array([
        losses._homography_core(p[:k] + [p[k] + COMPLEX_STEP * 1j]
                                + p[k + 1:], ctx, False)[0].imag
        / COMPLEX_STEP for k in range(7)])
