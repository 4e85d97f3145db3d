"""Value-and-gradient primitives shared by the loss kernels.

Each returns a plain float value with its partials, and the kernels in
`losses` chain them by hand. The forward-mode dual-number engine that these
closed forms replaced is kept in tests/diffscalar.py as the reference they
are checked against.
"""

from __future__ import annotations

import math

import numpy as np


def sum_squares(vec):
    """Sum of squares, accumulated left to right (loss values depend on the
    order)."""
    acc = vec[0] * vec[0]
    for x in vec[1:]:
        acc = acc + x * x
    return acc


def norm2(vec):
    """(|vec|, d|vec|/dvec), and (0, 0) at the origin, where the gradient is
    undefined: every pose loss has an exactly zero gradient at its minimum.
    """
    s = sum_squares(vec)
    if s == 0.0:
        return 0.0, np.zeros(len(vec))
    n = math.sqrt(s)
    return n, np.asarray(vec, dtype=float) / n


def norm1(vec):
    """(|vec|_1, sign(vec)); the subgradient of a zero component is 0, so
    minima of L1 terms have zero gradient."""
    acc = abs(vec[0])
    for x in vec[1:]:
        acc = acc + abs(x)
    return acc, np.sign(vec)


def rotation_grad(q, g):
    """Gradient w.r.t. a (possibly non-unit) quaternion q of a function whose
    gradient w.r.t. a body rotation w of q is g: a change dq turns the frame
    by w = 2 vec(conj(q) dq) / |q|^2, so the gradient is 2 q * (0, g) / |q|^2
    (quaternion product), orthogonal to q since scaling q does not rotate.
    Returned as 4 floats; the product keeps geometry.quat_multiply's terms
    and their order, the zero ones too (they decide signed zeros).
    """
    w, x, y, z = q
    gx, gy, gz = g
    qa = np.asarray(q, dtype=float)
    s = float(2.0 / (qa @ qa))
    return ((w * 0.0 - x * gx - y * gy - z * gz) * s,
            (w * gx + x * 0.0 + y * gz - z * gy) * s,
            (w * gy - x * gz + y * 0.0 + z * gx) * s,
            (w * gz + x * gy - y * gx + z * 0.0) * s)
