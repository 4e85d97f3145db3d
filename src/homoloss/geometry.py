"""SE(3)/quaternion primitives and pinhole projection.

Conventions:
    - Poses are world-from-camera: ``t`` is the camera position in the world
      frame, ``q`` the camera orientation quaternion in (w, x, y, z) order.
    - A world point P maps into the camera frame as ``R(q)^T (P - t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEPTH_EPS = 1e-9  # |Z| below this is treated as a projection to infinity


class InvalidInputError(ValueError):
    pass


@dataclass(frozen=True, eq=False)  # numpy fields: identity equality
class Pose:
    """Camera pose: world-frame position (m) and orientation quaternion."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if self.t.shape != (3,) or self.q.shape != (4,):
            raise InvalidInputError("pose needs a 3-vector t and 4-vector q")

    def params(self):
        """Flat 7-vector (tx, ty, tz, qw, qx, qy, qz)."""
        return np.concatenate([self.t, self.q])

    @staticmethod
    def from_params(p):
        p = np.asarray(p, dtype=float)
        return Pose(p[:3], p[3:7])


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics. w/h are pixel extents for datasets, or unitless
    normalized extents when used inside sensor-integral checks."""

    fx: float
    fy: float
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        sizes = (self.fx, self.fy, self.w, self.h)
        if not (all(0 < v < math.inf for v in sizes)
                and math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise InvalidInputError(
                "fx, fy, w, h must be positive and finite, cx, cy finite")


# -- quaternion algebra ----------------------------------------------------

def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise InvalidInputError("zero-norm quaternion")
    return q / n


def quat_canonical(q):
    """Unit quaternion with non-negative scalar part (double cover collapsed)."""
    q = quat_normalize(q)
    return -q if q[0] < 0 else q


def quat_multiply(q1, q2):
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_from_axis_angle(axis, angle_rad):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise InvalidInputError("zero-norm rotation axis")
    half = 0.5 * angle_rad
    return np.concatenate([[math.cos(half)], math.sin(half) * axis / n])


def rotmat_elems(q):
    """Rotation matrix entries from a quaternion, as nested lists of floats,
    or of (F,) arrays, elementwise the same operations, for a (4, F) stack.

    The quaternion is normalized internally so non-unit inputs are valid.
    """
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


def quat_to_rotmat(q):
    """3x3 rotation matrix of (possibly non-unit) quaternion q (4,), in
    Python floats (numpy's operations, cheaper), or (F, 3, 3) of q (F, 4)."""
    q = np.asarray(q, dtype=float)
    R = np.array(rotmat_elems(q.tolist() if q.ndim == 1 else q.T))
    return R if q.ndim == 1 else np.ascontiguousarray(R.transpose(2, 0, 1))


def rotmat_to_quat(R):
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
    return quat_canonical(q)


def angle_between(q1, q2):
    """Geodesic rotation angle between two quaternions, in degrees."""
    u1 = quat_normalize(q1)
    u2 = quat_normalize(q2)
    d = min(abs(float(np.dot(u1, u2))), 1.0)  # keeps a NaN, unlike min(1, .)
    return 2.0 * math.acos(d) * 180.0 / math.pi


# -- projection ------------------------------------------------------------

def project_points(t, R, K: Intrinsics, points):
    """Pinhole projection of world points (N, 3) under one pose, t (3,) and
    R (3, 3) = quat_to_rotmat(q), or of (F, N, 3) points under F poses, t
    (F, 3) and R (F, 3, 3), with the same operations per frame.

    Returns (pixels (..., N, 2), signed camera depths (..., N)). Backside
    points (Z < 0) project to a valid pixel with negative depth; points in
    the camera x-y plane get non-finite or huge pixels, so callers mask by
    |depth| >= DEPTH_EPS (or by depth > 0).
    """
    cam = (np.asarray(points, dtype=float) - t[..., None, :]) @ R
    z = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = cam[..., :2] * (K.fx, K.fy) / z[..., None] + (K.cx, K.cy)
    return uv, z
