"""The benchmark's workloads: seeded inputs, the CLI calls of one operation,
and the checks on each call's outputs.

Every input is derived from the benchmark seed; the program receives only
the generated inputs (CLI arguments and, for refine_geometric, pose and
point files). Importing this module imports homoloss, so the import is part
of the measured set-up time.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable, Optional

from homoloss import scene as scene_mod

# Why each workload is in the benchmark, and the layer it stresses or
# bypasses, is recorded in BENCHMARK.json.

# Sizes keep one operation at 1 to 3 s, so that run.py can interleave its
# calibration loop often enough to follow the host's speed. refine_homography
# keeps 4 Adam steps per epoch with a batch of 16 frames out of 64.
# refine_geometric averages its final MRD over 16 frames, which kept it
# below 0.84 px on 160 seeds; 8 frames x 100 points x 40 epochs ended at
# 1.005 px on seed 106.
REFINE_HOMOGRAPHY = dict(frames=64, points=60, epochs=25, lr="3e-3",
                         batch=16)
REFINE_GEOMETRIC = dict(frames=16, points=40, epochs=50, lr="3e-3")
PROBE_FRAMES = 64
PROBE_SAMPLES = 60
PROBE_KINDS = ("posenet", "homography", "geometric")
PROBE_GRID = (("roty", "-10:10", 41), ("tz", "-1:1", 41))
GRADCHECK_PARAMS = 7  # homography pose parameters: 2 * 7 value calls/sample

TARGET_MRD_PX = 1.0


@dataclass
class Call:
    """One CLI invocation: its argv, its --out directory, the calls each
    traced function must receive during it, and its output check (stdout ->
    a problem description, or None)."""

    label: str
    argv: list
    out: str
    expected_calls: dict
    check: Callable


@dataclass
class Workload:
    calls: list
    evals_per_op: int             # loss evaluations the inputs ask for
    epochs: Optional[int] = None  # optimizer epochs, refine_* only


def _seed(seed):
    """The benchmark seed as a seed numpy accepts."""
    return seed % 2**32


def read_mrd(out):
    """train_mrd_px per epoch from an optimize run's run.csv."""
    with open(os.path.join(out, "run.csv"), newline="") as f:
        return [float(row["train_mrd_px"]) for row in csv.DictReader(f)]


def epochs_to_target(mrd):
    """First epoch whose train MRD is below the target, or None."""
    return next((i for i, v in enumerate(mrd) if v < TARGET_MRD_PX), None)


def _check_refine(out, stdout):
    if "aborted=true" in stdout:
        return "run aborted"
    mrd = read_mrd(out)
    if not mrd[-1] < TARGET_MRD_PX:
        return f"final train MRD {mrd[-1]:.6g} px is not below " \
               f"{TARGET_MRD_PX:g} px"
    return None


def _optimize_call(loss, seed, out, scene_args, cfg):
    argv = ["optimize", *scene_args, "--loss", loss,
            "--lr", cfg["lr"], "--epochs", str(cfg["epochs"]),
            "--seed", str(_seed(seed)), "--out", out]
    if "batch" in cfg:
        argv += ["--batch-size", str(cfg["batch"])]
    expected = {
        "diffgrad.evaluate_with_grad": cfg["frames"] * cfg["epochs"],
        "optim.mean_reproj_distance": cfg["epochs"] + 1,
    }
    return Call("optimize", argv, out, expected,
                lambda stdout: _check_refine(out, stdout))


def refine_homography(seed, workdir):
    cfg = REFINE_HOMOGRAPHY
    scene_args = ["--synthetic", "--scene-seed", str(_seed(seed)),
                  "--n-frames", str(cfg["frames"]),
                  "--n-points", str(cfg["points"])]
    call = _optimize_call("homography", seed,
                          os.path.join(workdir, "out"), scene_args, cfg)
    return Workload([call], cfg["frames"] * cfg["epochs"], cfg["epochs"])


def refine_geometric(seed, workdir):
    cfg = REFINE_GEOMETRIC
    scene = scene_mod.synth_scene(_seed(seed), n_points=cfg["points"],
                                  n_frames=cfg["frames"])
    poses = os.path.join(workdir, "poses.txt")
    points = os.path.join(workdir, "points.txt")
    with open(poses, "w") as f:
        scene_mod.write_pose_list(f, [(fr.id, fr.gt_pose)
                                      for fr in scene.frames])
    with open(points, "w") as f:
        scene_mod.write_points(f, scene.points,
                               {fr.id: fr.visible for fr in scene.frames})
    call = _optimize_call("geometric", seed,
                          os.path.join(workdir, "out"),
                          ["--poses", poses, "--points", points], cfg)
    return Workload([call], cfg["frames"] * cfg["epochs"], cfg["epochs"])


def _check_gradcheck(stdout):
    if f"{PROBE_SAMPLES} samples" not in stdout \
            or ", 0 above tolerance" not in stdout:
        return f"gradcheck summary not clean: {stdout.strip()!r}"
    return None


def _check_landscape(out, cells):
    path = os.path.join(out, "landscape_homography_local.csv")
    with open(path, newline="") as f:
        rows = [tuple(map(float, r)) for r in list(csv.reader(f))[1:]]
    if len(rows) != cells:
        return f"{path}: {len(rows)} rows, expected {cells}"
    o1, o2, _ = min(rows, key=lambda r: r[2])
    if abs(o1) > 1e-12 or abs(o2) > 1e-12:
        return f"homography landscape minimum at ({o1:g}, {o2:g}), " \
               f"not at (0, 0)"
    return None


def probe(seed, workdir):
    s = str(_seed(seed))
    gc_out = os.path.join(workdir, "gradcheck")
    gradcheck = Call(
        "gradcheck",
        ["gradcheck", "--synthetic", "--scene-seed", s,
         "--n-frames", str(PROBE_FRAMES), "--loss", "homography",
         "--samples", str(PROBE_SAMPLES), "--seed", s, "--out", gc_out],
        gc_out,
        {
            "scene.local_slabs": PROBE_SAMPLES,
            "diffgrad.evaluate_with_grad": 2 * PROBE_SAMPLES,
            "diffgrad.finite_diff_grad": PROBE_SAMPLES,
            "diffgrad.loss_value": 2 * GRADCHECK_PARAMS * PROBE_SAMPLES,
        },
        _check_gradcheck,
    )
    (ax1, r1, n1), (ax2, r2, n2) = PROBE_GRID
    cells = n1 * n2
    ls_out = os.path.join(workdir, "landscape")
    landscape = Call(
        "landscape",
        ["landscape", "--synthetic", "--scene-seed", s,
         "--axis", ax1, f"--range={r1}", "--steps", str(n1),
         "--axis2", ax2, f"--range2={r2}", "--steps2", str(n2),
         "--losses", ",".join(PROBE_KINDS), "--out", ls_out],
        ls_out,
        {"diffgrad.loss_value": cells * len(PROBE_KINDS)},
        lambda stdout: _check_landscape(ls_out, cells),
    )
    evals = PROBE_SAMPLES * 2 * (1 + GRADCHECK_PARAMS) \
        + cells * len(PROBE_KINDS)
    return Workload([gradcheck, landscape], evals)


WORKLOADS = {
    "refine_homography": refine_homography,
    "refine_geometric": refine_geometric,
    "probe": probe,
}
