"""SE(3)/quaternion primitives and pinhole projection.

Conventions:
    - Poses are world-from-camera: ``t`` is the camera position in the world
      frame, ``q`` the camera orientation quaternion in (w, x, y, z) order.
    - A world point P maps into the camera frame as ``R(q)^T (P - t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Pinhole intrinsics: focal lengths and principal point in pixels, and
    the sensor's width w and height h in pixels."""

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

    @cached_property
    def focal(self) -> np.ndarray:
        """(2, 1) column (fx, fy), read-only, to scale planar u/v rows."""
        return _column(self.fx, self.fy)

    @cached_property
    def principal(self) -> np.ndarray:
        """(2, 1) column (cx, cy), read-only, to offset planar u/v rows."""
        return _column(self.cx, self.cy)


def _column(a, b):
    col = np.array([[a], [b]], dtype=float)
    col.flags.writeable = False
    return col


# -- quaternion algebra ----------------------------------------------------

def quat_normalize(q):
    """q / |q| of a quaternion (4,), or of each row of a (..., 4) stack;
    InvalidInputError for a zero or an infinite norm."""
    q = np.ascontiguousarray(q, dtype=float)  # a strided row's ddot differs
    with np.errstate(over="ignore"):  # an infinite norm raises below
        n = np.sqrt(np.vecdot(q, q))  # per row the ddot of a 1-D linalg.norm
    if not np.all(n):
        raise InvalidInputError("zero-norm quaternion")
    if np.isinf(n).any():  # a NaN norm passes, as a NaN q
        raise InvalidInputError("quaternion norm overflows")
    return q / n[..., None]


def quat_canonical(q):
    """Unit quaternion with non-negative scalar part (double cover collapsed),
    of q (4,) or of each row of a (..., 4) stack."""
    q = quat_normalize(q)
    return np.where(q[..., :1] < 0, -q, q)


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
    if not math.isfinite(angle_rad):
        raise InvalidInputError(f"rotation angle must be finite, got "
                                f"{angle_rad} rad")
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
    Each of the ten quaternion products is formed once.
    """
    w, x, y, z = q
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    s = ww + xx + yy + zz
    if (s == 0.0) if isinstance(s, float) else not s.all():
        raise InvalidInputError("zero-norm quaternion")
    inv = 1.0 / s
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    return [
        [(ww + xx - yy - zz) * inv, 2.0 * (xy - wz) * inv,
         2.0 * (xz + wy) * inv],
        [2.0 * (xy + wz) * inv, (ww - xx + yy - zz) * inv,
         2.0 * (yz - wx) * inv],
        [2.0 * (xz - wy) * inv, 2.0 * (yz + wx) * inv,
         (ww - xx - yy + zz) * inv],
    ]


def quat_to_rotmat(q):
    """3x3 rotation matrix of (possibly non-unit) quaternion q (4,), in
    Python floats (numpy's operations, cheaper), or (F, 3, 3) of q (F, 4)."""
    q = np.asarray(q, dtype=float)
    R = np.array(rotmat_elems(q.tolist() if q.ndim == 1 else q.T))
    return R if q.ndim == 1 else np.ascontiguousarray(R.transpose(2, 0, 1))


def rotmat_to_quat(R):
    """Quaternion (w, x, y, z) of a rotation matrix (3, 3), canonical sign,
    or (..., 4) of a (..., 3, 3) stack. Each matrix takes the first branch
    whose test holds: trace > 0, then R00 >= R11 and R00 >= R22, then
    R11 >= R22, else the fourth; the branches it does not take may divide
    by zero or take the root of a negative number unseen."""
    R = np.asarray(R, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = \
        np.moveaxis(R, (-2, -1), (0, 1))
    tr = r00 + r11 + r22
    roots = [tr + 1.0, 1.0 + r00 - r11 - r22, 1.0 + r11 - r00 - r22,
             1.0 + r22 - r00 - r11]
    # numerators of the off-diagonal terms, branch by branch
    x, y, z = r21 - r12, r02 - r20, r10 - r01
    xy, xz, yz = r01 + r10, r02 + r20, r12 + r21
    rows = [(x, y, z), (x, xy, xz), (y, xy, yz), (z, xz, yz)]
    branches = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (root, row) in enumerate(zip(roots, rows)):
            s = np.sqrt(root) * 2.0
            terms = [a / s for a in row]
            terms.insert(k, 0.25 * s)
            branches.append(np.stack(terms, axis=-1))
    tests = [tr > 0, (r00 >= r11) & (r00 >= r22), r11 >= r22]
    q = np.select([np.asarray(t)[..., None] for t in tests], branches[:3],
                  branches[3])
    return quat_canonical(q)


# -- projection ------------------------------------------------------------

def project_points(t, R, K: Intrinsics, points):
    """Pinhole projection of world points (N, 3) under one pose, t (3,) and
    R (3, 3) = quat_to_rotmat(q), or of (F, N, 3) points under F poses, t
    (F, 3) and R (F, 3, 3), with the same operations per frame.

    Returns (pixels (..., 2, N) as planar rows, u then v, and signed camera
    depths (..., N)), each row contiguous. Backside points (Z < 0) project
    to a valid pixel with negative depth; points in the camera x-y plane
    get non-finite or huge pixels, so callers mask by |depth| >= DEPTH_EPS
    (or by depth > 0).
    """
    cam = (points - t[..., None, :]) @ R
    # one copy as rows (..., 3, N): a ufunc on the transposed view would
    # write its output in that view's strided order
    cam = cam.swapaxes(-1, -2).copy()
    z = cam[..., 2, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = cam[..., :2, :] * K.focal / z[..., None, :] + K.principal
    return uv, z
