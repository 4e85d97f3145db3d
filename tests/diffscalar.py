"""Forward-mode dual numbers: the reference the closed-form loss kernels are
checked against.

The pose losses depend on at most 9 scalar parameters (3 translation,
4 quaternion, plus 2 learnable log-variances for the homoscedastic loss),
so a dual number carrying a small dense gradient gives their exact
derivatives by operator overloading, independently of the closed forms in
homoloss.losses. Here are the engine, a rotation matrix generic over floats
and DiffScalars, and the DiffScalar forms of the posenet, homoscedastic,
max-error and homography losses; the geometric loss's per-point DiffScalar
form is oracles.geometric_loop.
"""

import math

import numpy as np

from homoloss.geometry import InvalidInputError
from homoloss.losses import SlabParams

# The normal of the slab's planes, parallel to the image plane, which the
# library fixes; the forms here keep a general normal n.
PLANE_NORMAL = np.array([0.0, 0.0, -1.0])


def slab_weights(slab: SlabParams, n=PLANE_NORMAL):
    """Weights (2 c1, c2 |n|^2) of cross and tsq in the closed form, with
    c1 = ln(x_max/x_min)/(x_max - x_min) and c2 = 1/(x_min x_max); c1 as
    the kernel computes it, ln(1 + d/x_min)/d with d = x_max - x_min."""
    d = slab.x_max - slab.x_min
    c1 = math.log1p(d / slab.x_min) / d
    c2 = 1.0 / (slab.x_min * slab.x_max)
    return 2.0 * c1, c2 * float(np.dot(n, n))


class DiffScalar:
    """A value plus its partial derivatives w.r.t. n parameters."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = float(val)
        self.grad = np.asarray(grad, dtype=float)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(self.val + other.val, self.grad + other.grad)
        return DiffScalar(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(self.val - other.val, self.grad - other.grad)
        return DiffScalar(self.val - other, self.grad)

    def __rsub__(self, other):
        return DiffScalar(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(
                self.val * other.val,
                self.val * other.grad + other.val * self.grad,
            )
        return DiffScalar(self.val * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DiffScalar):
            # Value uses plain division so it matches float evaluation bit
            # for bit; only the gradient uses the reciprocal.
            v = self.val / other.val
            inv = 1.0 / other.val
            return DiffScalar(v, (self.grad - v * other.grad) * inv)
        return DiffScalar(self.val / other, self.grad / other)

    def __rtruediv__(self, other):
        v = other / self.val
        return DiffScalar(v, -v / self.val * self.grad)

    def __pow__(self, p):
        if p == 2:
            return DiffScalar(self.val * self.val, 2.0 * self.val * self.grad)
        return DiffScalar(
            self.val**p, p * self.val ** (p - 1) * self.grad
        )

    def __neg__(self):
        return DiffScalar(-self.val, -self.grad)

    def __abs__(self):
        # Subgradient 0 at the kink so minima of L1 terms have zero gradient.
        if self.val > 0.0:
            return DiffScalar(self.val, self.grad.copy())
        if self.val < 0.0:
            return DiffScalar(-self.val, -self.grad)
        return DiffScalar(0.0, np.zeros_like(self.grad))

    def __repr__(self):
        return f"DiffScalar({self.val!r}, grad={self.grad!r})"


def value(x):
    """Plain float value of a DiffScalar or number."""
    return x.val if isinstance(x, DiffScalar) else float(x)


def gradient(x, n):
    """Gradient of x as an n-vector (zeros for plain numbers)."""
    if isinstance(x, DiffScalar):
        return np.array(x.grad, dtype=float)
    return np.zeros(n)


def seed(values, n=None):
    """Lift parameter values into DiffScalars with identity seed gradients."""
    values = list(values)
    if n is None:
        n = len(values)
    out = []
    for i, v in enumerate(values):
        g = np.zeros(n)
        g[i] = 1.0
        out.append(DiffScalar(v, g))
    return out


# -- elementary functions, generic over floats and DiffScalars ------------

def sqrt(x):
    if isinstance(x, DiffScalar):
        r = math.sqrt(x.val)
        return DiffScalar(r, x.grad / (2.0 * r))
    return math.sqrt(x)


def exp(x):
    if isinstance(x, DiffScalar):
        e = math.exp(x.val)
        return DiffScalar(e, e * x.grad)
    return math.exp(x)


def acos(x):
    if isinstance(x, DiffScalar):
        d = -1.0 / math.sqrt(1.0 - x.val * x.val)
        return DiffScalar(math.acos(x.val), d * x.grad)
    return math.acos(x)


def sum_squares(vec):
    """Sum of squares; exact zero gradient when every component is zero."""
    acc = vec[0] * vec[0]
    for x in vec[1:]:
        acc = acc + x * x
    return acc


def norm2(vec):
    """Euclidean norm with a well-defined zero at the origin.

    The gradient of the L2 norm is undefined at 0; all pose losses expect a
    zero gradient at their global minimum, so the origin maps to an exact
    zero with zero gradient.
    """
    s = sum_squares(vec)
    if value(s) == 0.0:
        return s * 0.0
    return sqrt(s)


def norm1(vec):
    acc = abs(vec[0])
    for x in vec[1:]:
        acc = acc + abs(x)
    return acc


# -- rotation matrix and loss cores, generic over floats and DiffScalars -

def rotmat_elems(q):
    """Rotation matrix entries from a quaternion, as nested lists.

    Generic over floats and DiffScalars; the quaternion is normalized
    internally so non-unit inputs are valid.
    """
    qw, qx, qy, qz = q
    s = sum_squares([qw, qx, qy, qz])
    if value(s) == 0.0:
        raise InvalidInputError("zero-norm quaternion")
    inv = 1.0 / s
    w, x, y, z = qw, qx, qy, qz
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


def posenet_core(t_est, q_est, gt, beta):
    # Estimated quaternion enters raw; only the ground truth is normalized.
    qg = gt[3:] / np.linalg.norm(gt[3:])
    dt = [t_est[i] - gt[i] for i in range(3)]
    dq = [q_est[i] - qg[i] for i in range(4)]
    return norm2(dt) + beta * norm2(dq)


def homoscedastic_core(t_est, q_est, s_t, s_q, gt):
    norm = norm2(q_est)
    if value(norm) == 0.0:
        raise InvalidInputError("zero-norm estimated quaternion")
    qg = gt[3:] / np.linalg.norm(gt[3:])
    dt = [t_est[i] - gt[i] for i in range(3)]
    dq = [qg[i] - q_est[i] / norm for i in range(4)]
    return (
        norm1(dt) * exp(-s_t)
        + s_t
        + norm1(dq) * exp(-s_q)
        + s_q
    )


def maxerror_core(t_est, q_est, gt, reg_weight):
    qg = gt[3:] / np.linalg.norm(gt[3:])
    qn = norm2(q_est)
    reg = reg_weight * (qn - 1.0) ** 2
    trans_cm = norm2([(t_est[i] - gt[i]) * 100.0 for i in range(3)])
    if value(qn) == 0.0:
        # Degenerate attractor: the angle is undefined, only the regularizer
        # and translation terms act.
        return trans_cm + reg
    dot = sum(q_est[i] * qg[i] for i in range(4)) / qn
    absdot = abs(dot)
    if value(absdot) >= 1.0:
        angle = 0.0 * absdot  # acos clamped at 1; derivative taken as 0
    else:
        angle = acos(absdot) * (360.0 / math.pi)
    # Exact ties take the translation branch.
    err = trans_cm if value(trans_cm) >= value(angle) else angle
    return err + reg


def homography_core(t_est, q_est, gt, slab: SlabParams,
                    n=PLANE_NORMAL):
    """Closed form from the pose pair, using |t_rel| = |d| and
    R_e R_e^T = I: rot = 8|v|^2 / (|q_e|^2 |q_g|^2) with v the vector part
    of conj(q_e) * q_g, cross = d^T (R_e - R_g) n, tsq = |d|^2, where
    d = t_gt - t_est. Each component of v sums products that cancel pairwise,
    so v, d and R_e - R_g are exactly 0 when est == gt, for any gt
    quaternion, and so are the loss and its gradient."""
    q_gt = [float(c) for c in gt[3:]]
    R_e = rotmat_elems(q_est)  # normalizes internally
    R_g = rotmat_elems(q_gt)
    w1, x1, y1, z1 = q_est
    w2, x2, y2, z2 = q_gt
    v = [
        (w1 * x2 - x1 * w2) + (z1 * y2 - y1 * z2),
        (w1 * y2 - y1 * w2) + (x1 * z2 - z1 * x2),
        (w1 * z2 - z1 * w2) + (y1 * x2 - x1 * y2),
    ]
    rot = 8.0 * sum_squares(v) / (
        sum_squares(q_est) * sum_squares(q_gt)
    )
    n = [float(c) for c in n]
    d = [float(gt[i]) - t_est[i] for i in range(3)]
    cross = sum(
        d[i] * sum((R_e[i][j] - R_g[i][j]) * n[j] for j in range(3))
        for i in range(3)
    )
    k1, k2 = slab_weights(slab, n)
    return rot + k1 * cross + k2 * sum_squares(d)
