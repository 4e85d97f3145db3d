"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes. run.py times this loop right before and after every
operation and divides the operation's wall time by the mean of the two, which
cancels most of that drift. The loop is self-contained and never imports
homoloss, so a change to the program cannot change it; it mixes the kinds of
work the program does (Python objects carrying small numpy gradient vectors,
nested-list matrix arithmetic, float formatting) so that host contention
slows it about as much as it slows the program.

Changing this file changes the unit of the normalised metrics: compare runs
only when they used the same calibrate.py.
"""

from __future__ import annotations

import math
import time

import numpy as np

N_GRAD = 7
ROUNDS = 300


class _Dual:
    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __add__(self, o):
        return _Dual(self.val + o.val, self.grad + o.grad)

    def __mul__(self, o):
        return _Dual(self.val * o.val, self.val * o.grad + o.val * self.grad)

    def sqrt(self):
        r = math.sqrt(self.val)
        return _Dual(r, self.grad / (2.0 * r))


def _mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _round(xs, M):
    acc = _Dual(0.0, np.zeros(N_GRAD))
    for x in xs:
        acc = acc + (x * x).sqrt() * x
    for _ in range(8):
        M = _mat_mul(M, M)
        s = sum(abs(v) for row in M for v in row)
        M = [[v / s for v in row] for row in M]
    text = ",".join(f"{v:.17g}" for row in M for v in row)
    return acc.val + float(acc.grad.sum()) + len(text)


def loop():
    """Runs the fixed calibration work once; returns its wall seconds."""
    rng = np.random.default_rng(0)
    xs = [_Dual(1.0 + float(v), g) for v, g in
          zip(rng.random(40), rng.standard_normal((40, N_GRAD)))]
    M = rng.random((3, 3)).tolist()
    t0 = time.perf_counter()
    check = 0.0
    for _ in range(ROUNDS):
        check += _round(xs, M)
    wall = time.perf_counter() - t0
    if not math.isfinite(check):
        raise ArithmeticError("calibration loop produced a non-finite sum")
    return wall
