"""One sha256 over every loss kernel's output on seeded random frames.

Usage:
    PYTHONPATH=src python tools/kernel_bits.py --seed N --frames M

For each of M frames drawn from seed N, the script evaluates every loss
kind through both entry points, diffgrad.loss_value and
diffgrad.evaluate_with_grad, and hashes each value and gradient entry as
float.hex (so -0.0 and 0.0 differ) and each raised exception as its type
and message. Two source trees whose kernels agree bit for bit print the
same line:

    PYTHONPATH=old/src python tools/kernel_bits.py --seed 1 --frames 3000
    PYTHONPATH=new/src python tools/kernel_bits.py --seed 1 --frames 3000

The draws cover unit, non-unit and zero estimated quaternions, quaternion
and translation entries of +0.0 and -0.0, estimates equal to the ground
truth and to its negated quaternion, empty point sets, points at zero gt
depth, and random clips, loss weights and slab bounds. Point sets of 0, 1,
5, 30, 200 or 2,000 points: the last two reach numpy's blocked pairwise
sum (more than 128 terms) and the BLAS dot's blocking.
"""

import argparse
import hashlib
import sys

import numpy as np

from homoloss import diffgrad
from homoloss.geometry import Intrinsics, Pose
from homoloss.losses import LossContext, LossHyperParams, SlabParams


def _signed_zeros(rng, x, frac):
    """x with each entry replaced, with probability frac, by +0.0 or -0.0."""
    zeros = np.where(rng.random(len(x)) < 0.5, 0.0, -0.0)
    return np.where(rng.random(len(x)) < frac, zeros, x)


def draw_frame(rng):
    """(LossContext, 9 estimate parameters) of one random frame: pose, then
    s_t and s_q, the homoscedastic loss's log-variances."""
    q_gt = _signed_zeros(rng, rng.normal(size=4), 0.2)
    if not q_gt.any():
        q_gt[0] = 1.0
    if rng.random() < 0.5:
        q_gt = q_gt / np.linalg.norm(q_gt)
    else:
        q_gt = q_gt * rng.uniform(0.2, 5.0)
    t_gt = _signed_zeros(rng, rng.normal(size=3) * 2.0, 0.2)
    gt = Pose(t_gt, q_gt)

    case = rng.choice(["perturbed", "gt", "-gt", "non-unit", "zeros",
                       "zero q"])
    t = t_gt + rng.normal(size=3) * rng.choice([1e-6, 1e-3, 0.3, 3.0])
    q = q_gt + rng.normal(size=4) * rng.choice([1e-6, 1e-3, 0.1, 1.0])
    if case == "gt":
        t, q = t_gt, q_gt
    elif case == "-gt":
        t, q = t_gt, -q_gt
    elif case == "non-unit":
        q = q * rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
    elif case == "zeros":
        t, q = _signed_zeros(rng, t, 0.4), _signed_zeros(rng, q, 0.4)
    elif case == "zero q":
        q = _signed_zeros(rng, np.ones(4), 1.0)
    s = rng.normal(size=2)

    n_points = int(rng.choice([0, 1, 5, 30, 200, 2000]))
    points = t_gt + rng.normal(size=(n_points, 3)) * 4.0
    if n_points and rng.random() < 0.1:
        points[0] = t_gt  # at zero gt depth
    f = rng.uniform(100.0, 800.0)
    K = Intrinsics(fx=f, fy=f * rng.uniform(0.8, 1.2), cx=320.0, cy=240.0,
                   w=640.0, h=480.0)
    x_min = rng.uniform(0.1, 10.0)
    hyper = LossHyperParams(beta=rng.uniform(1.0, 1000.0), s_t=s[0],
                            s_q=s[1], reproj_clip=rng.uniform(1.0, 1e3),
                            quat_reg_weight=rng.uniform(0.0, 2.0))
    ctx = LossContext(gt, hyper, points, K,
                      SlabParams(x_min, x_min + rng.uniform(1e-2, 100.0)))
    return ctx, np.concatenate([t, q, s])


def _record(h, out):
    """Hash a value, a gradient or None, with the sign bit of every zero."""
    if out is None:
        h.update(b"None;")
        return
    for x in np.atleast_1d(np.asarray(out, dtype=float)).tolist():
        h.update(x.hex().encode() + b",")
    h.update(b";")


def kernel_bits(seed, frames):
    """(sha256 hex digest, evaluations, exceptions) over `frames` frames."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    evaluations = exceptions = 0
    with np.errstate(all="ignore"):
        for _ in range(frames):
            ctx, params = draw_frame(rng)
            for kind in diffgrad.LOSS_KINDS:
                p = params[:diffgrad.param_count(kind)]
                for entry in (diffgrad.loss_value,
                              diffgrad.evaluate_with_grad):
                    evaluations += 1
                    try:
                        out = entry(kind, p, ctx)
                    except Exception as e:  # hashed, so a changed one shows
                        exceptions += 1
                        h.update(f"{type(e).__name__}: {e};".encode())
                        continue
                    for part in out if isinstance(out, tuple) else (out,):
                        _record(h, part)
    return h.hexdigest(), evaluations, exceptions


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    args = p.parse_args(argv)
    digest, evaluations, exceptions = kernel_bits(args.seed, args.frames)
    print(f"{digest}  {evaluations} evaluations, {exceptions} raised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
