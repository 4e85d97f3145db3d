"""SE(3)/quaternion primitives and pinhole projection.

Conventions:
    - Poses are world-from-camera (7,) rows (t, q): ``t`` is the camera
      position in the world frame, ``q`` its quaternion in (w, x, y, z) order.
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


def pose_row(pose) -> np.ndarray:
    """A pose as a read-only float (7,) copy (tx, ty, tz, qw, qx, qy, qz)
    of 7 real numbers; InvalidInputError for any other shape, for a ragged
    nesting and for an entry that is no real number (None, a string)."""
    return _real_copy(pose, "pose needs 7", lambda shape: shape == (7,))


def _point_rows(points) -> np.ndarray:
    """World points as a read-only float (N, 3) copy, (0, 3) of an empty
    sequence; InvalidInputError as pose_row's for any other input."""
    rows = _real_copy(points, "points need (N, 3)",
                      lambda s: s == (0,) or len(s) == 2 and s[1] == 3)
    return rows.reshape(-1, 3)


def _real_copy(values, need, shape_ok):
    """values as a read-only float copy of an array of real numbers whose
    shape passes shape_ok; InvalidInputError, its message led by need, for a
    ragged nesting, an entry that is no real number or another shape."""
    try:
        row = np.asarray(values)
    except ValueError as e:
        raise InvalidInputError(f"{need} values, got a ragged "
                                f"sequence") from e
    if row.dtype.kind not in "biuf":  # dtype=float would read None as NaN
        raise InvalidInputError(f"{need} real numbers, got "
                                f"{row.dtype} values")
    if not shape_ok(row.shape):
        raise InvalidInputError(f"{need} values, got shape {row.shape}")
    row = row.astype(float)  # a copy, also of a float row
    row.flags.writeable = False
    return row


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
    """The unit quaternion of a turn by angle_rad about axis (3,), formed in
    floats; InvalidInputError for an angle that is not finite and for an
    axis whose norm is zero or not finite, with no numpy warning."""
    if not math.isfinite(angle_rad):
        raise InvalidInputError(f"rotation angle must be finite, got "
                                f"{angle_rad} rad")
    axis = np.asarray(axis, dtype=float)
    with np.errstate(over="ignore"):  # an infinite norm raises below
        n = float(np.linalg.norm(axis))
    if n == 0.0:
        raise InvalidInputError("zero-norm rotation axis")
    if not n < math.inf:  # an entry that is not finite, or an overflow
        raise InvalidInputError(f"rotation axis must be finite with a "
                                f"finite norm, got {axis.tolist()}")
    half = 0.5 * angle_rad
    s = math.sin(half)
    a0, a1, a2 = axis.tolist()
    return np.array([math.cos(half), s * a0 / n, s * a1 / n, s * a2 / n])


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
    """Pinhole projection of planar world points (3, N), x, y and z rows,
    under one pose, t (3,) and R (3, 3) = quat_to_rotmat(q), or of (F, 3, N)
    points under F poses, t (F, 3) and R (F, 3, 3), with the same operations
    per frame.

    Returns (pixels (..., 2, N) as planar rows, u then v, and signed camera
    depths (..., N)), each row contiguous. Backside points (Z < 0) project
    to a valid pixel with negative depth; points in the camera x-y plane
    get non-finite or huge pixels, and far points may overflow to infinite
    ones, so callers mask by |depth| >= DEPTH_EPS (or by depth > 0).
    """
    # R^T (P - t) as (..., 3, N) camera rows, already contiguous
    cam = R.swapaxes(-1, -2) @ (points - t[..., :, None])
    z = cam[..., 2, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uv = cam[..., :2, :] * K.focal / z[..., None, :] + K.principal
    return uv, z
