"""Acceptance gate: one numbered pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print; otherwise they appear in the captured output section).
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import identity_pose, pose, random_pose, random_rotation, \
    random_unit_quat
from homoloss.cli import main as cli_main
from homoloss.diffgrad import LOSS_KINDS, LossContext, grad_report
from homoloss.geometry import (
    quat_from_axis_angle,
    quat_multiply,
    quat_to_rotmat,
)
from homoloss.losses import LossHyperParams, SlabParams
from oracles import (
    RelativePose,
    angle_between,
    homography,
    homography_loss_closed,
    homography_loss_numeric,
    percentile_bounds,
    scalar_form_oracle,
    sensor_grid_reproj,
    sensor_weighted_reproj,
)
from homoloss.optim import (
    OptimConfig,
    landscape_sweep,
    mean_reproj_distance,
    optimize_poses,
    perturb_pose,
)
from homoloss.scene import local_slabs, synth_scene


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def random_slab(rng):
    a = rng.uniform(0.2, 3.0)
    return SlabParams(a, a + rng.uniform(0.5, 8.0))


def test_criterion_01_closed_form_vs_quadrature():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        rel = RelativePose(random_rotation(rng), rng.normal(size=3))
        slab = random_slab(rng)
        closed = homography_loss_closed(rel, slab)
        numeric = homography_loss_numeric(rel, slab, 10**6)
        worst = max(worst,
                    abs(closed - numeric) / max(abs(closed), 1e-12))
    elapsed = time.perf_counter() - t0
    report(1, "closed form matches 1e6-sample quadrature (<1e-6 rel)",
           worst < 1e-6 and elapsed < 60.0,
           f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_scalar_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        rel = RelativePose(random_rotation(rng), rng.normal(size=3))
        slab = random_slab(rng)
        closed = homography_loss_closed(rel, slab)
        oracle = scalar_form_oracle(rel, slab)
        worst = max(worst,
                    abs(closed - oracle) / max(abs(closed), 1e-12))
    report(2, "closed form matches independent scalar oracle (<1e-12 rel)",
           worst < 1e-12, f"worst rel err {worst:.3e}")


def test_criterion_03_unique_minimum():
    rng = np.random.default_rng(103)
    slab0 = SlabParams(1.0, 4.0)
    at_identity = homography_loss_closed(
        RelativePose(np.eye(3), np.zeros(3)), slab0
    )
    positive = True
    for _ in range(10**4):
        angle = rng.uniform(1e-3, math.pi)
        axis = rng.normal(size=3)
        if rng.uniform() < 0.5:
            R = quat_to_rotmat(quat_from_axis_angle(axis, angle))
            t = rng.normal(size=3) * rng.uniform(0.0, 2.0)
        else:
            R = np.eye(3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            t = direction * rng.uniform(1e-3, 3.0)
        val = homography_loss_closed(RelativePose(R, t), random_slab(rng))
        if not val > 0.0:
            positive = False
            break
    report(3, "loss is 0 only at the superimposed pose",
           abs(at_identity) <= 1e-12 and positive,
           f"identity value {at_identity:.3e}")


def test_criterion_04_gradient_suite():
    # Central finite differences are only a valid oracle on a smooth piece
    # of these (piecewise-smooth) losses. A kink inside the stencil makes
    # the FD estimate step-dependent, so coordinates whose FD disagrees
    # across three step sizes are error-case probes and get excluded.
    from homoloss.diffgrad import (
        REL_ERR_FLOOR,
        evaluate_with_grad,
        finite_diff_grad,
        params_for,
    )

    scene = synth_scene(seed=0)
    slabs = local_slabs(scene)
    hyper = LossHyperParams()
    worst = {}
    excluded = 0
    for kind in LOSS_KINDS:
        rng = np.random.default_rng(104)
        w = 0.0
        for _ in range(200):
            frame = scene.frames[int(rng.integers(len(scene.frames)))]
            est = perturb_pose(frame.gt_pose, rng, 0.3, 10.0)
            ctx = LossContext(
                gt=frame.gt_pose, hyper=hyper,
                points=scene.visible_points(frame),
                intrinsics=scene.intrinsics,
                slab=slabs.for_frame(frame.id),
            )
            params = params_for(kind, est, ctx)
            _, analytic = evaluate_with_grad(kind, params, ctx)
            fds = np.stack([
                finite_diff_grad(kind, params, ctx, step=s)
                for s in (5e-7, 1e-6, 2e-6)
            ])
            spread = fds.max(axis=0) - fds.min(axis=0)
            smooth = spread <= 1e-6 * (1.0 + np.abs(analytic)
                                       + np.abs(fds[1]))
            excluded += int(np.sum(~smooth))
            denom = np.maximum(REL_ERR_FLOOR,
                               np.abs(analytic) + np.abs(fds[1]))
            rel = np.abs(analytic - fds[1]) / denom
            if np.any(smooth):
                w = max(w, float(rel[smooth].max()))
        worst[kind] = w
    ok = all(w < 1e-5 for w in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(4, "analytic gradients match finite differences (<1e-5)",
           ok, detail + f"; {excluded} kink-contaminated coords excluded")


def test_criterion_05_reprojection_limit():
    # The small-motion closed form is only a faithful limit for motions that
    # keep the scale row near 1 across the sensor; out-of-plane motion has
    # an O(1) relative-error floor, so sampling keeps s in [0.999, 1.001].
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(1.5, 4.0)
        qz = quat_from_axis_angle([0, 0, 1],
                                  math.radians(rng.uniform(1.0, 3.0)))
        t = np.array([
            rng.uniform(0.05, 0.12) * x,
            rng.uniform(0.05, 0.12) * x,
            rng.uniform(-3e-4, 3e-4) * x,
        ])
        q_oop = quat_from_axis_angle([1.0, 1.0, 0.0],
                                     rng.uniform(-5e-4, 5e-4))
        R = quat_to_rotmat(quat_multiply(q_oop, qz))
        H = homography(RelativePose(R, t), [0, 0, -1], x)
        svals = [
            H.H[2, 0] * px + H.H[2, 1] * py + H.H[2, 2]
            for px in (-0.5, 0.5) for py in (-0.5, 0.5)
        ]
        assert all(0.999 <= s <= 1.001 for s in svals)
        closed = sensor_weighted_reproj(H, 1.0, 1.0)
        grid = sensor_grid_reproj(H, 1.0, 1.0, 256)
        worst = max(worst, abs(closed - grid) / grid)
    report(5, "sensor-weighted form matches dense grid for s~1 (<1% rel)",
           worst < 0.01, f"worst rel err {worst:.3e}")


def _sweep_ctx(scene, slabs, frame):
    return LossContext(
        gt=frame.gt_pose, hyper=LossHyperParams(),
        points=scene.visible_points(frame),
        intrinsics=scene.intrinsics,
        slab=slabs.for_frame(frame.id),
    )


def test_criterion_06_rotation_sweep():
    scene = synth_scene(seed=0)
    slabs = local_slabs(scene)
    frame = scene.frames[0]
    ctx = _sweep_ctx(scene, slabs, frame)
    offsets = np.arange(-180.0, 181.0)  # 1 degree resolution
    grids = {kind: landscape_sweep(kind, ctx, "roty", offsets)
             for kind in ("geometric", "homography_local")}
    clip = ctx.hyper.reproj_clip
    geo = [v for _, v in grids["geometric"]]
    # longest contiguous run of exactly clip-valued (zero-gradient) samples
    run = best = 0
    for v in geo:
        run = run + 1 if v == clip else 0
        best = max(best, run)
    hom = [v for _, v in grids["homography_local"]]
    center = 180
    left_ok = all(hom[i] > hom[i + 1] for i in range(center))
    right_ok = all(hom[i] < hom[i + 1] for i in range(center, len(hom) - 1))
    report(6, "geometric plateau >= 60 deg; homography strictly unimodal",
           best >= 60 and left_ok and right_ok,
           f"plateau run {best} deg")


def test_criterion_07_posenet_landscapes(tmp_path):
    gt = identity_pose()
    tz = np.linspace(-10.0, 10.0, 41)
    roty = np.linspace(-10.0, 10.0, 41)
    ratios = {}
    argmin_ok = True
    for beta in (5.0, 500.0, 5000.0):
        ctx = LossContext(gt=gt, hyper=LossHyperParams(beta=beta))
        rows = landscape_sweep("posenet", ctx, "tz", tz,
                               axis2="roty", offsets2=roty)
        path = tmp_path / f"posenet_beta{beta:g}.csv"
        with open(path, "w") as f:
            f.write("tz,roty,loss_value\n")
            for o1, o2, v in rows:
                f.write(f"{o1:.17g},{o2:.17g},{v:.17g}\n")
        vals = np.array([v for _, _, v in rows]).reshape(41, 41)
        if not (np.unravel_index(np.argmin(vals), vals.shape) == (20, 20)):
            argmin_ok = False
        var_t = vals[:, 20].max() - vals[:, 20].min()   # along tz, roty=0
        var_r = vals[20, :].max() - vals[20, :].min()   # along roty, tz=0
        ratios[beta] = var_t / var_r
    ok = argmin_ok and ratios[5.0] > 10.0 and ratios[5000.0] < 0.1
    detail = ", ".join(f"beta={b:g}: ratio {r:.3g}"
                       for b, r in ratios.items())
    report(7, "weighting flips the landscape ridge with beta", ok, detail)


def test_criterion_08_convergence_contrast():
    scene = synth_scene(seed=0)
    slabs = local_slabs(scene)
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()

    # small perturbations, homography loss
    init = [perturb_pose(f.gt_pose, rng, 0.05, 2.0) for f in scene.frames]
    cfg = OptimConfig(loss_kind="homography_local", lr=1e-4, epochs=2000,
                      slab=slabs, seed=0)
    rec = optimize_poses(scene, init, cfg)
    small_mrd = rec.epochs[-1].train_mrd
    t_small = time.perf_counter() - t0

    # adversarial init: 180 degree Y rotation plus a small perturbation
    # (the exact 180 degree pose is a stationary saddle of every loss)
    adv = []
    for f in scene.frames:
        q = quat_multiply(f.gt_pose[3:],
                          quat_from_axis_angle([0, 1, 0], math.pi))
        adv.append(perturb_pose(pose(f.gt_pose[:3], q), rng, 0.05, 2.0))

    t1 = time.perf_counter()
    cfg_h = OptimConfig(loss_kind="homography_local", lr=3e-3, epochs=3000,
                        slab=slabs, seed=0)
    rec_h = optimize_poses(scene, adv, cfg_h)
    hom_angle = max(
        angle_between(row[3:], f.gt_pose[3:])
        for row, f in zip(rec_h.final_params, scene.frames)
    )
    t_adv = time.perf_counter() - t1

    cfg_g = OptimConfig(loss_kind="geometric", lr=3e-3, epochs=3000, seed=0)
    rec_g = optimize_poses(scene, adv, cfg_g)
    geo_angle = min(
        angle_between(row[3:], f.gt_pose[3:])
        for row, f in zip(rec_g.final_params, scene.frames)
    )
    clip = cfg_g.hyper.reproj_clip
    geo_saturated = (geo_angle > 170.0
                     and rec_g.epochs[-1].mean_loss > 0.5 * clip)

    ok = (small_mrd < 1.0 and hom_angle < 1.0 and geo_saturated
          and t_small < 300.0 and t_adv < 300.0)
    report(8, "homography converges where geometric stays clip-saturated",
           ok,
           f"small-perturb mrd {small_mrd:.2e} px, adversarial homography "
           f"max angle {hom_angle:.3f} deg, geometric min angle "
           f"{geo_angle:.1f} deg, mean loss {rec_g.epochs[-1].mean_loss:.1f}")


def test_criterion_09_percentile_contract():
    def oracle(values, p):
        s = sorted(values)
        pos = p * (len(s) - 1)
        i = int(math.floor(pos))
        frac = pos - i
        if i + 1 >= len(s):
            return s[-1]
        return s[i] * (1.0 - frac) + s[i + 1] * frac

    scene = synth_scene(seed=9, n_points=200, n_frames=8)
    rng = np.random.default_rng(109)
    worst = 0.0
    checked = 0
    while checked < 50:
        depths = scene.stacked.depths[int(rng.integers(len(scene.frames)))]
        depths = depths[depths > 0]
        # random subsample so the 50 "frames" differ
        keep = rng.integers(5, len(depths))
        sub = rng.choice(depths, size=keep, replace=False)
        slab = percentile_bounds(sub, 0.025, 0.975)
        worst = max(
            worst,
            abs(slab.x_min - oracle(sub, 0.025)),
            abs(slab.x_max - oracle(sub, 0.975)),
        )
        checked += 1
    report(9, "slab percentiles match sorted-list oracle (<1e-9)",
           worst < 1e-9, f"worst abs err {worst:.3e}")


def test_criterion_10_determinism(tmp_path):
    out = str(tmp_path / "run")
    argv = [
        "landscape", "--synthetic", "--axis", "roty", "--range=-30:30",
        "--steps", "61", "--losses", "geometric,homography", "--out", out,
    ]
    assert cli_main(argv) == 0
    files = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    before = {}
    for f in files:
        with open(os.path.join(out, f), "rb") as fh:
            before[f] = fh.read()
        os.remove(os.path.join(out, f))
    assert cli_main(
        ["--from-manifest", os.path.join(out, "manifest.json")]
    ) == 0
    same = all(
        open(os.path.join(out, f), "rb").read() == before[f] for f in files
    )
    report(10, "manifest replay reproduces outputs byte-identically",
           same and len(files) == 2, f"{len(files)} CSVs compared")
