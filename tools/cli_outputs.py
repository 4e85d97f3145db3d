"""Run a fixed set of homoloss CLI commands and keep everything they leave.

Usage:
    PYTHONPATH=src python tools/cli_outputs.py OUT

OUT must not exist yet. Each run gets a directory under OUT that holds
the files it writes (its --out is the directory itself) and its
`exit_code`, `stdout` and `stderr`; OUT/inputs holds the pose and point
files that the file-scene runs read. The runs go through
`homoloss.cli.main` of whichever `homoloss` is on PYTHONPATH, and every
path they are given is relative to their directory, so the outputs of
two source trees compare with a plain `diff -r`:

    PYTHONPATH=old/src python tools/cli_outputs.py out_old
    PYTHONPATH=new/src python tools/cli_outputs.py out_new
    diff -r out_old out_new

The set: `optimize` for every loss kind on a synthetic scene (30 epochs)
and on a pose/point file scene (20 epochs); `gradcheck` for every kind (20
samples); a geometric `optimize` with a homoscedastic warm start; a
homography `optimize` on a 64-frame synthetic scene in batches of 16 (5
epochs); 1-D and 2-D `landscape` over every kind; local `slabs` with
histograms, also on a 32-frame synthetic scene seen by a 320 x 240 sensor
with a 40 degree field of view, and global `slabs` without and with
them; `eval` with points; on a file scene whose first frame has no V line, a
geometric `optimize` and a geometric and posenet `landscape` of that
frame, whose geometric cells are all NaN; and a posenet `optimize` whose
warm start diverges at lr 1e300, the one run that writes its outputs and
exits 2.
"""

import contextlib
import io
import os
import sys

import numpy as np

from homoloss import cli
from homoloss.diffgrad import LOSS_KINDS
from homoloss.optim import perturb_pose
from homoloss.scene import synth_scene, write_points, write_pose_list

PERTURB = ["--perturb-t", "0.2", "--perturb-deg", "5"]
FILES = ["--poses", "../inputs/poses.txt", "--points", "../inputs/points.txt"]


def write_inputs(out):
    """The file scene (synthetic seed 7, 40 points, 10 frames), the same
    points without the first frame's V line, and perturbed estimates."""
    scene = synth_scene(7, n_points=40, n_frames=10)
    poses = [(f.id, f.gt_pose) for f in scene.frames]
    visible = {f.id: f.visible for f in scene.frames}
    rng = np.random.default_rng(8)
    est = [(fid, perturb_pose(p, rng, 0.2, 5.0)) for fid, p in poses]
    os.makedirs(os.path.join(out, "inputs"))

    def write(name, writer, *data):
        with open(os.path.join(out, "inputs", name), "w") as f:
            writer(f, *data)
    write("poses.txt", write_pose_list, poses)
    write("est_poses.txt", write_pose_list, est)
    write("points.txt", write_points, scene.points, visible)
    write("points_no_f000.txt", write_points, scene.points,
          {k: v for k, v in visible.items() if k != "f000"})


def runs():
    """(name, argv) of each run in the set."""
    for kind in LOSS_KINDS:
        yield f"optimize_synthetic_{kind}", [
            "optimize", "--synthetic", "--loss", kind, "--epochs", "30",
            *PERTURB, "--seed", "3"]
        yield f"optimize_files_{kind}", [
            "optimize", *FILES, "--loss", kind, "--epochs", "20", *PERTURB,
            "--seed", "4"]
        yield f"gradcheck_{kind}", [
            "gradcheck", "--synthetic", "--loss", kind, "--samples", "20",
            "--seed", "5"]
    yield "optimize_warmstart", [
        "optimize", "--synthetic", "--loss", "geometric", "--epochs", "20",
        "--warmstart", "10"]
    yield "optimize_synthetic_64_frames", [
        "optimize", "--synthetic", "--n-frames", "64", "--batch-size", "16",
        "--loss", "homography", "--epochs", "5"]
    kinds = ",".join(LOSS_KINDS)
    yield "landscape_1d", [
        "landscape", "--synthetic", "--losses", kinds, "--axis", "roty",
        "--range=-30:30", "--steps", "61"]
    yield "landscape_2d", [
        "landscape", "--synthetic", "--losses", kinds, "--axis", "tz",
        "--range=-2:2", "--steps", "21", "--axis2", "rotx",
        "--range2=-20:20", "--steps2", "21"]
    yield "slabs_local_hist", ["slabs", "--synthetic", "--hist"]
    yield "slabs_local_hist_320x240", [
        "slabs", "--synthetic", "--n-frames", "32", "--fov", "40", "--width",
        "320", "--height", "240", "--hist"]
    yield "slabs_global", ["slabs", "--synthetic", "--mode", "global"]
    yield "slabs_global_hist", ["slabs", "--synthetic", "--mode", "global",
                                "--hist"]
    yield "eval_points", [
        "eval", "--gt-poses", "../inputs/poses.txt", "--est-poses",
        "../inputs/est_poses.txt", "--points", "../inputs/points.txt"]
    yield "optimize_files_no_v_line", [
        "optimize", "--poses", "../inputs/poses.txt", "--points",
        "../inputs/points_no_f000.txt", "--loss", "geometric", "--epochs",
        "20", *PERTURB, "--seed", "4"]
    yield "landscape_files_no_v_line", [
        "landscape", "--poses", "../inputs/poses.txt", "--points",
        "../inputs/points_no_f000.txt", "--losses", "geometric,posenet",
        "--frame", "0", "--axis", "roty", "--range=-10:10", "--steps", "11",
        "--axis2", "tz", "--range2=-1:1", "--steps2", "11"]
    yield "optimize_diverging_aborts", [
        "optimize", "--synthetic", "--n-frames", "3", "--loss", "posenet",
        "--epochs", "3", "--lr", "1e300", "--warmstart", "2"]


def run(directory, argv):
    """cli.main(argv + --out .) inside directory; its exit code, stdout and
    stderr go to files there. An exception that escapes main is recorded
    as its type and message."""
    os.makedirs(directory)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", "."])
    except Exception as e:  # recorded, so that the diff shows it
        code = f"raised {type(e).__name__}: {e}"
    finally:
        os.chdir(cwd)
    for name, text in [("exit_code", f"{code}\n"),
                       ("stdout", stdout.getvalue()),
                       ("stderr", stderr.getvalue())]:
        with open(os.path.join(directory, name), "w") as f:
            f.write(text)
    return code


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    out = argv[0]
    os.makedirs(out)
    write_inputs(out)
    for name, args in runs():
        print(f"{name}: exit {run(os.path.join(out, name), args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
