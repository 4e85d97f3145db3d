"""Forward-mode dual numbers with a fixed-size gradient vector.

The pose losses depend on at most 9 scalar parameters (3 translation,
4 quaternion, plus 2 learnable log-variances for the homoscedastic loss),
so a dual number carrying a small dense gradient is simpler and exact
compared to any tape-based machinery.
"""

from __future__ import annotations

import math

import numpy as np


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


def lift(val, grad, inputs):
    """A value computed outside DiffScalar arithmetic, given its partials
    grad w.r.t. inputs, chained into the inputs' gradients; the plain value
    when no input is a DiffScalar."""
    duals = [(g, x) for g, x in zip(grad, inputs) if isinstance(x, DiffScalar)]
    if not duals:
        return val
    return DiffScalar(val, sum(g * x.grad for g, x in duals))


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
