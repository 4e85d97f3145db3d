"""Two primitives shared by the loss kernels: a sum of squares in a fixed
order, and the chain rule from a body rotation to a quaternion. The kernels
in `losses` chain them by hand into closed-form gradients; the forward-mode
dual-number engine that these replaced is kept in tests/diffscalar.py as
the reference they are checked against.
"""


def sum_squares(vec):
    """Sum of squares, accumulated left to right (loss values depend on the
    order)."""
    acc = vec[0] * vec[0]
    for x in vec[1:]:
        acc = acc + x * x
    return acc


def rotation_grad(q, g, qq):
    """Gradient w.r.t. a (possibly non-unit) quaternion q of a function whose
    gradient w.r.t. a body rotation w of q is g: a change dq turns the frame
    by w = 2 vec(conj(q) dq) / |q|^2, so the gradient is 2 q * (0, g) / |q|^2
    (quaternion product), orthogonal to q since scaling q does not rotate.
    qq is the caller's |q|^2, non-zero. Returned as 4 floats; the product
    keeps geometry.quat_multiply's terms and their order, the zero ones too
    (they decide signed zeros).
    """
    w, x, y, z = q
    gx, gy, gz = g
    s = 2.0 / qq
    return ((w * 0.0 - x * gx - y * gy - z * gz) * s,
            (w * gx + x * 0.0 + y * gz - z * gy) * s,
            (w * gy - x * gz + y * 0.0 + z * gx) * s,
            (w * gz + x * gy - y * gx + z * 0.0) * s)
