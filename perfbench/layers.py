"""Layer table and scaling curves on fixed inputs (synthetic scene seed 0,
frame 0), independent of the benchmark seed so that every run times the
same work: loss value and value+gradient per kind, the Adam step, the
per-epoch metric, one optimizer epoch, and how the homography epoch and the
geometric gradient grow with frames and points.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from homoloss import diffgrad, optim
from homoloss.diffgrad import LOSS_KINDS, LossContext
from homoloss.scene import global_slab, local_slabs, synth_scene

BATCH_S = 0.02     # each timed batch repeats the call for at least this long
REPS = 5           # batches per figure; the median is reported
SCALING_REPS = 3
EPOCH_FRAMES = (8, 64, 256, 1000)
GRAD_POINTS = (60, 500, 5000)


def _time_s(fn, reps=REPS, batch_s=BATCH_S):
    """Median seconds per call over `reps` batches of repeated calls."""
    fn()
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t
        if dt >= batch_s:
            break
        n *= 2
    per_call = [dt / n]
    for _ in range(reps - 1):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t) / n)
    return statistics.median(per_call)


def _slab(scene, kind):
    if kind == "homography_local":
        return local_slabs(scene)
    if kind == "homography_global":
        return global_slab(scene)
    return None


def _init_poses(scene):
    rng = np.random.default_rng(0)
    return [optim.perturb_pose(f.gt_pose, rng, 0.05, 2.0)
            for f in scene.frames]


def _epoch_s(scene, kind, reps):
    init = _init_poses(scene)
    cfg = optim.OptimConfig(loss_kind=kind, epochs=1,
                            slab=_slab(scene, kind))
    return _time_s(lambda: optim.optimize_poses(scene, init, cfg),
                   reps=reps, batch_s=0.0)


def _frame0(scene, kind):
    frame = scene.frames[0]
    slab = _slab(scene, kind)
    ctx = LossContext(gt=frame.gt_pose,
                      points=scene.visible_points(frame),
                      intrinsics=scene.intrinsics,
                      slab=slab.for_frame(frame.id) if slab else None)
    est = _init_poses(scene)[0]
    return diffgrad.params_for(kind, est, ctx), ctx


def measure():
    """{metric name: value} for the layer table and scaling curves."""
    m = {}
    scene = synth_scene(0)
    for kind in LOSS_KINDS:
        params, ctx = _frame0(scene, kind)
        value_s = _time_s(lambda: diffgrad.loss_value(kind, params, ctx))
        grad_s = _time_s(
            lambda: diffgrad.evaluate_with_grad(kind, params, ctx))
        m[f"losses.{kind}.value_us"] = value_s * 1e6
        m[f"diffgrad.{kind}.grad_us"] = grad_s * 1e6
        m[f"dual.{kind}.grad_over_value"] = grad_s / value_s

    n = 7 * len(scene.frames)
    rng = np.random.default_rng(0)
    params, grads = rng.normal(size=n), rng.normal(size=n)
    cfg = optim.OptimConfig(loss_kind="posenet")
    state = optim.AdamState.zeros(n)
    m[f"optim.adam_update.us_p{n}"] = 1e6 * _time_s(
        lambda: optim.adam_update(params, grads, state, cfg))

    est = [(f.id, p) for f, p in zip(scene.frames, _init_poses(scene))]
    m[f"optim.mean_reproj_distance.us_F{len(scene.frames)}"] = 1e6 * _time_s(
        lambda: optim.mean_reproj_distance(est, scene))

    for frames in EPOCH_FRAMES:
        big = synth_scene(0, n_frames=frames)
        m[f"optim.epoch_us_per_frame.homography_local.F{frames}"] = \
            1e6 * _epoch_s(big, "homography_local", SCALING_REPS) / frames

    f = len(scene.frames)  # the F8 scaling point is the same epoch
    m[f"optim.epoch_ms.homography_local.F{f}"] = \
        1e-3 * f * m[f"optim.epoch_us_per_frame.homography_local.F{f}"]
    for kind in ("posenet", "geometric"):
        m[f"optim.epoch_ms.{kind}.F{f}"] = 1e3 * _epoch_s(scene, kind, REPS)

    for points in GRAD_POINTS:
        big = synth_scene(0, n_points=points, n_frames=1)
        params, ctx = _frame0(big, "geometric")
        grad_s = _time_s(
            lambda: diffgrad.evaluate_with_grad("geometric", params, ctx),
            reps=SCALING_REPS)
        m[f"diffgrad.geometric.grad_us_per_point.N{points}"] = \
            1e6 * grad_s / len(ctx.points)
    return m
