"""Metamorphic properties of the losses and the slab bounds.

Scaling: with t, the points and the slab bounds scaled by 2^k, every
product of the homography and geometric kernels is scaled by a power of
two, so their values keep every bit, their gradients too once the
translation rows are scaled back, and local_slabs' bounds are scaled by
exactly 2^k.

Rigid motion: moving the whole world rigidly by (q0, d0) (points, gt and
estimates) leaves every camera's view unchanged, so the homography,
geometric and posenet values and the local slab bounds agree to rounding,
and each gradient turns with the world: its translation rows by R(q0),
its quaternion rows by the product q0 * g. The homoscedastic loss is left
out (its L1 norms are not rotation-invariant), and so is max-error, whose
acos amplifies rounding near a zero angle.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from conftest import random_unit_quat
from homoloss.diffgrad import evaluate_with_grad, loss_value
from homoloss.geometry import quat_multiply, quat_to_rotmat
from homoloss.losses import LossHyperParams
from homoloss.optim import frame_context, perturb_pose
from homoloss.scene import Frame, GenerationError, Scene, global_slab, \
    local_slabs, synth_scene

SCALED_KINDS = ("homography_local", "homography_global", "geometric")
RIGID_KINDS = ("homography_local", "geometric", "posenet")


def drawn_scene(seed):
    """A small synthetic scene and, per frame, a perturbed estimate."""
    try:
        scene = synth_scene(seed, n_points=30, n_frames=4)
    except GenerationError:  # a frame that sees fewer than 2 points
        assume(False)
    rng = np.random.default_rng(seed)
    return scene, [perturb_pose(row, rng, 0.3, 10.0) for row in scene.gt]


def moved(scene, rows, points, gt):
    """The scene with points and gt rows replaced, and its estimate rows."""
    frames = [Frame(fid, row, f.visible) for fid, row, f
              in zip(scene.ids, gt, scene.frames)]
    return Scene(points, frames, scene.intrinsics), rows


def slab_of(scene, kind):
    """The slab bounds that kind reads, None for a kind without a slab."""
    if kind == "homography_local":
        return local_slabs(scene)
    return global_slab(scene) if kind == "homography_global" else None


def results(scene, est, kind, grad):
    """Per frame: the value of kind at its estimate, with the gradient."""
    slab = slab_of(scene, kind)
    out = []
    for i, row in enumerate(est):
        ctx = frame_context(scene, i, kind, LossHyperParams(), slab)
        out.append(evaluate_with_grad(kind, row, ctx) if grad
                   else (loss_value(kind, row, ctx), None))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(-6, 6))
def test_scaling_by_a_power_of_two_keeps_every_bit(seed, k):
    scene, est = drawn_scene(seed)
    s = 2.0 ** k
    scaled_est = [np.concatenate([row[:3] * s, row[3:]]) for row in est]
    gt = np.hstack([scene.gt[:, :3] * s, scene.gt[:, 3:]])
    big, scaled_est = moved(scene, scaled_est, scene.points * s, gt)
    for fid in scene.ids:
        a = local_slabs(scene).for_frame(fid)
        b = local_slabs(big).for_frame(fid)
        assert (b.x_min, b.x_max) == (a.x_min * s, a.x_max * s)
    for kind in SCALED_KINDS:
        for (v, g), (w, h) in zip(results(scene, est, kind, True),
                                  results(big, scaled_est, kind, True)):
            assert w == v, kind
            assert (h[:3] * s).tolist() == g[:3].tolist(), kind
            assert h[3:].tolist() == g[3:].tolist(), kind


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9)


def close_rows(a, b):
    """a and b agree within 1e-9 of their largest entry."""
    return np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), motion=st.integers(0, 2**32 - 1))
def test_a_rigid_motion_of_the_world_keeps_the_values(seed, motion):
    scene, est = drawn_scene(seed)
    rng = np.random.default_rng(motion)
    q0 = random_unit_quat(rng)
    R0, d0 = quat_to_rotmat(q0), rng.uniform(-5.0, 5.0, size=3)

    def move(rows):
        rows = np.asarray(rows)
        return np.hstack([rows[:, :3] @ R0.T + d0,
                          quat_multiply(q0, rows[:, 3:].T).T])
    there, moved_est = moved(scene, move(est), scene.points @ R0.T + d0,
                             move(scene.gt))
    for fid in scene.ids:
        a = local_slabs(scene).for_frame(fid)
        b = local_slabs(there).for_frame(fid)
        assert close(a.x_min, b.x_min) and close(a.x_max, b.x_max)
    for kind in RIGID_KINDS:
        for (v, g), (w, h) in zip(results(scene, est, kind, True),
                                  results(there, moved_est, kind, True)):
            assert close(v, w), kind
            turned = np.concatenate([R0 @ g[:3], quat_multiply(q0, g[3:])])
            assert close_rows(h, turned), kind
