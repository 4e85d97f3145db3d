import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import identity_pose, pose
from homoloss import cli, diffgrad, optim
from homoloss.cli import main
from homoloss.geometry import quat_normalize
from homoloss.scene import (
    DepthSlab,
    focal_length,
    global_slab,
    parse_pose_list,
    synth_scene,
    write_pose_list,
    write_points,
)
from oracles import apply_offset, csv_line

LONG_ID = "f" * 300  # hist_<id>.csv is longer than a file name may be


def read(path):
    with open(path) as f:
        return f.read()


def landscape_args(out, **over):
    args = {
        "--synthetic": None,
        "--axis": "tx",
        "--range": "-1:1",
        "--steps": "361",
        "--losses": "posenet,homography",
        "--out": out,
    }
    args.update(over)
    argv = ["landscape"]
    for k, v in args.items():
        # --flag=value form so negative sweep ranges survive argparse
        argv.append(k if v is None else f"{k}={v}")
    return argv


class TestLandscape:
    def test_rows_and_minimum(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(landscape_args(out)) == 0
        for kind in ("posenet", "homography_local"):
            lines = read(
                os.path.join(out, f"landscape_{kind}.csv")
            ).splitlines()
            assert lines[0] == "offset,loss_value"
            assert len(lines) == 362
            vals = [float(r.split(",")[1]) for r in lines[1:]]
            assert int(np.argmin(vals)) == 180
            # the gt quaternion is only unit to rounding, so the center
            # value carries a ~1e-31 normalization residue
            assert vals[180] < 1e-20

    def test_2d_grid(self, tmp_path):
        out = str(tmp_path / "o")
        argv = landscape_args(
            out, **{"--losses": "homography", "--steps": "5",
                    "--axis2": "roty", "--range2": "-10:10", "--steps2": "3"}
        )
        assert main(argv) == 0
        lines = read(
            os.path.join(out, "landscape_homography_local.csv")
        ).splitlines()
        assert lines[0] == "offset,offset2,loss_value"
        assert len(lines) == 1 + 5 * 3

    def test_deterministic_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(landscape_args(out, **{"--steps": "51"})) == 0
            outs.append(read(os.path.join(out, "landscape_posenet.csv")))
        assert outs[0] == outs[1]

    def test_manifest_replay_byte_identical(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **{"--steps": "51"})) == 0
        csv_path = os.path.join(out, "landscape_posenet.csv")
        first = read(csv_path)
        os.remove(csv_path)
        assert main(
            ["--from-manifest", os.path.join(out, "manifest.json")]
        ) == 0
        assert read(csv_path) == first

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **{"--steps": "51"})) == 0
        m = json.loads(read(os.path.join(out, "manifest.json")))
        assert m["tool"] == "homoloss"
        assert m["command"] == "landscape"
        assert m["config"]["steps"] == 51

    @pytest.mark.parametrize("given", [{"--axis2": "roty"},
                                       {"--range2": "-10:10"}])
    def test_axis2_and_range2_go_together(self, tmp_path, capsys, given):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **given)) == 1
        assert "--axis2 and --range2 go together" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("axis", ["tz", "roty"])
    def test_repeated_axis_is_a_usage_error(self, tmp_path, capsys, axis):
        # Both offsets would move one parameter, so that each cell held the
        # value at offset + offset2 under two labels.
        out = str(tmp_path / "o")
        argv = landscape_args(out, **{"--axis": axis, "--steps": "3",
                                      "--axis2": axis, "--range2": "-1:1",
                                      "--steps2": "3", "--losses": "posenet"})
        assert main(argv) == 1
        assert f"--axis2 must differ from --axis, both are {axis}" in \
            capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("over", [
        {"--steps": "1"}, {"--steps": "-1"},
        *({"--axis2": "roty", "--range2": "-10:10", "--steps2": steps2}
          for steps2 in ("0", "1", "-2"))])
    def test_too_few_steps_exit_2(self, tmp_path, capsys, over):
        argv = landscape_args(str(tmp_path / "o"), **{"--steps": "5", **over})
        assert main(argv) == 2
        assert "at least 2 sweep steps" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # no numpy warning on the way
    @pytest.mark.parametrize("over, text", [
        ({"--range": "nan:1"}, "nan:1"), ({"--range": "inf:1"}, "inf:1"),
        ({"--range": "-1:-inf"}, "-1:-inf"),
        ({"--axis2": "roty", "--range2": "0:inf"}, "0:inf")])
    def test_non_finite_range_exit_2(self, tmp_path, capsys, over, text):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **over)) == 2
        assert f"range '{text}' must have finite ends" in \
            capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.filterwarnings("error")  # no numpy warning on the way
    @pytest.mark.parametrize("over, text", [
        ({"--range": "-1e308:1e308"}, "-1e308:1e308"),
        ({"--axis2": "roty", "--range2": "1.7e308:-1.7e308"},
         "1.7e308:-1.7e308")])
    def test_infinite_span_range_exit_2(self, tmp_path, capsys, over, text):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **over, **{"--steps": "3"})) == 2
        assert f"range '{text}' must have a finite span" in \
            capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("frame", ["99", "8", "-1"])
    def test_frame_out_of_range_exit_2(self, tmp_path, capsys, frame):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **{"--frame": frame})) == 2
        assert "scene of 8 frames" in capsys.readouterr().err

    def test_nan_cells_reported_on_stderr(self, tmp_path, capsys):
        # Frame f0 has no visible points, so every geometric cell raises and
        # is NaN; posenet needs no points. The exit code stays 0.
        poses = str(tmp_path / "poses.txt")
        pts = str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [("f0", identity_pose()),
                                ("f1", pose([1.0, 0.0, 0.0],
                                            [1.0, 0.0, 0.0, 0.0]))])
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f1": (0, 1)})
        out = str(tmp_path / "o")
        argv = ["landscape", "--poses", poses, "--points", pts,
                "--losses", "geometric,posenet", "--axis", "tx",
                "--range=-1:1", "--steps", "5", "--axis2", "roty",
                "--range2=-10:10", "--steps2", "3", "--out", out]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            "landscape geometric: 15 of 15 cells are NaN: geometric loss "
            "needs a non-empty point set"]
        rows = read(os.path.join(out, "landscape_geometric.csv")).splitlines()
        assert len(rows) == 16
        assert all(r.endswith(",nan") for r in rows[1:])
        rows = read(os.path.join(out, "landscape_posenet.csv")).splitlines()
        assert not any("nan" in r for r in rows)

    def test_no_stderr_without_nan_cells(self, tmp_path, capsys):
        assert main(landscape_args(str(tmp_path / "o"),
                                   **{"--steps": "5"})) == 0
        assert capsys.readouterr().err == ""


class TestGradcheck:
    def base(self, out, loss="homography", extra=()):
        return [
            "gradcheck", "--synthetic", "--loss", loss,
            "--samples", "20", "--out", out, *extra,
        ]

    def test_passes_default_tolerance(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(self.base(out)) == 0
        lines = read(os.path.join(out, "gradcheck.csv")).splitlines()
        assert lines[0] == "sample,loss_value,max_rel_err"
        assert len(lines) == 21
        assert "0 above tolerance" in capsys.readouterr().out

    def test_exit_3_on_unattainable_tolerance(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = main(self.base(out, extra=["--tolerance", "1e-15"]))
        assert code == 3
        assert "tolerance failure" in capsys.readouterr().err

    def test_nan_error_is_above_tolerance(self, tmp_path, capsys,
                                          monkeypatch):
        real, calls = diffgrad.finite_diff_grad, []

        def nan_first(*args, **kwargs):  # the first sample's error is NaN
            calls.append(None)
            grad = real(*args, **kwargs)
            return grad * np.nan if len(calls) == 1 else grad
        monkeypatch.setattr(diffgrad, "finite_diff_grad", nan_first)
        out = str(tmp_path / "o")
        assert main(self.base(out, extra=["--samples", "3"])) == 3
        assert "worst max_rel_err nan, 1 above tolerance 1e-05" in \
            capsys.readouterr().out
        rows = read(os.path.join(out, "gradcheck.csv")).splitlines()
        assert rows[1].endswith(",nan") and len(rows) == 4

    @pytest.mark.parametrize("loss", ["posenet", "geometric", "maxerror"])
    def test_other_losses(self, tmp_path, loss):
        out = str(tmp_path / loss)
        assert main(self.base(out, loss=loss)) == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_a_usage_error(self, tmp_path, capsys, samples):
        out = str(tmp_path / "o")
        assert main(self.base(out, extra=["--samples", samples])) == 1
        assert "--samples must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "gradcheck.csv"))


class TestOptimize:
    def test_homoscedastic_csv_starts_at_init(self, tmp_path):
        out = str(tmp_path / "o")
        argv = [
            "optimize", "--synthetic", "--n-frames", "3", "--n-points", "40",
            "--loss", "homoscedastic", "--epochs", "3", "--out", out,
        ]
        assert main(argv) == 0
        lines = read(os.path.join(out, "run.csv")).splitlines()
        assert lines[0] == "epoch,mean_loss,train_mrd_px,s_t,s_q"
        assert lines[1].endswith(",0,-3")
        first = lines[1].split(",")
        assert float(first[3]) == 0.0
        assert float(first[4]) == -3.0

    def test_two_runs_write_identical_run_csv(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["optimize", "--synthetic", "--n-frames", "3",
                         "--n-points", "40", "--loss", "posenet",
                         "--epochs", "20", "--seed", "5", "--out", out]) == 0
            runs.append(read(os.path.join(out, "run.csv")))
        assert runs[0] == runs[1]
        assert runs[0].splitlines()[0] == "epoch,mean_loss,train_mrd_px"
        assert len(runs[0].splitlines()) == 21

    @pytest.mark.parametrize("option", ["--epochs=-3", "--warmstart=-1"])
    def test_negative_epochs_exit_2(self, tmp_path, capsys, option):
        out = str(tmp_path / "o")
        argv = ["optimize", "--synthetic", "--n-frames", "2", "--loss",
                "geometric", "--epochs", "2", option, "--out", out]
        assert main(argv) == 2
        assert "epochs must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "run.csv"))

    def test_outputs_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        argv = [
            "optimize", "--synthetic", "--n-frames", "3", "--n-points", "40",
            "--loss", "homography", "--epochs", "50", "--lr", "1e-3",
            "--out", out,
        ]
        assert main(argv) == 0
        assert os.path.exists(os.path.join(out, "run.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))
        with open(os.path.join(out, "final_poses.txt")) as f:
            poses = parse_pose_list(f)
        assert len(poses) == 3
        msg = capsys.readouterr().out
        assert "final_train_mrd_px=" in msg
        assert "pct_2m_2deg=" in msg

    def test_replay_byte_identical(self, tmp_path):
        out = str(tmp_path / "o")
        argv = [
            "optimize", "--synthetic", "--n-frames", "2", "--n-points", "40",
            "--loss", "posenet", "--epochs", "10", "--out", out,
        ]
        assert main(argv) == 0
        run_csv = os.path.join(out, "run.csv")
        poses_txt = os.path.join(out, "final_poses.txt")
        first = (read(run_csv), read(poses_txt))
        assert main(
            ["--from-manifest", os.path.join(out, "manifest.json")]
        ) == 0
        assert (read(run_csv), read(poses_txt)) == first

    def test_no_visible_points_exit_2(self, tmp_path, capsys):
        # A points file without V lines leaves every frame without visible
        # points, so the per-epoch reprojection metric has nothing to average.
        poses = str(tmp_path / "poses.txt")
        pts = str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [("f0", identity_pose()),
                                ("f1", pose([1.0, 0.0, 0.0],
                                            [1.0, 0.0, 0.0, 0.0]))])
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]], {})
        out = str(tmp_path / "o")
        argv = ["optimize", "--poses", poses, "--points", pts,
                "--loss", "posenet", "--epochs", "2", "--out", out]
        assert main(argv) == 2
        assert "visible points" in capsys.readouterr().err


    def test_aborted_run_exits_2_and_writes_errors(self, tmp_path, capsys):
        # Only one of eight frames has visible points, so the geometric loss
        # fails on seven and the run aborts in its first epoch.
        poses = str(tmp_path / "poses.txt")
        pts = str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [(f"f{i}", pose([0.1 * i, 0.0, 0.0],
                                               [1.0, 0.0, 0.0, 0.0]))
                                for i in range(8)])
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f0": (0, 1)})
        out = str(tmp_path / "o")
        argv = ["optimize", "--poses", poses, "--points", pts,
                "--loss", "geometric", "--epochs", "3", "--out", out]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "aborted=true" in captured.out
        assert "aborted" in captured.err
        errors = read(os.path.join(out, "errors.txt")).splitlines()
        assert len(errors) == 8  # seven skipped frames and the abort
        assert "aborted" in errors[-1]
        for name in ("run.csv", "final_poses.txt", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_diverging_run_aborts_and_writes_finite_outputs(self, tmp_path,
                                                            capsys):
        # At lr 1e300 the first warm-start step takes |q|^2 past the float
        # range: the run aborts with the poses of that epoch's start, the
        # initial ones, and writes them, with no numpy warning on the way.
        out = str(tmp_path / "o")
        argv = ["optimize", "--synthetic", "--n-frames", "3", "--loss",
                "posenet", "--epochs", "3", "--lr", "1e300", "--warmstart",
                "2", "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert "aborted=true" in captured.out
        assert captured.err == f"error: run aborted, see {out}/errors.txt\n"
        assert read(os.path.join(out, "errors.txt")) == (
            "warm start: epoch 0: aborted, frame f000: a parameter is not "
            "finite or |q|^2 overflows\n")
        assert read(os.path.join(out, "run.csv")) == \
            "epoch,mean_loss,train_mrd_px\n"
        rows = read(os.path.join(out, "final_poses.txt")).splitlines()[1:]
        values = np.array([[float(v) for v in r.split()[1:]] for r in rows])
        assert values.shape == (3, 7) and np.isfinite(values).all()

    def test_optimize_and_eval_hand_the_metric_rows(self, tmp_path,
                                                    monkeypatch):
        metric, seen = cli.mean_reproj_distance, []
        monkeypatch.setattr(cli, "mean_reproj_distance",
                            lambda est, *a, **kw: seen.append(type(est))
                            or metric(est, *a, **kw))
        scene = synth_scene(seed=0, n_frames=3)
        paths = {name: str(tmp_path / f"{name}.txt")
                 for name in ("poses", "points")}
        with open(paths["poses"], "w") as f:
            write_pose_list(f, [(fr.id, fr.gt_pose) for fr in scene.frames])
        with open(paths["points"], "w") as f:
            write_points(f, scene.points,
                         {fr.id: fr.visible for fr in scene.frames})
        assert main(["optimize", "--synthetic", "--n-frames", "3", "--loss",
                     "posenet", "--epochs", "2", "--out",
                     str(tmp_path / "o1")]) == 0
        assert main(["eval", "--gt-poses", paths["poses"], "--est-poses",
                     paths["poses"], "--points", paths["points"], "--out",
                     str(tmp_path / "o2")]) == 0
        assert seen == [np.ndarray, np.ndarray]

    def test_adversarial_roty_rotates_every_init(self, tmp_path):
        # No perturbation and no epoch: the final poses are the gt poses
        # turned about their camera's y axis, normalized as every written q.
        out = str(tmp_path / "o")
        argv = ["optimize", "--synthetic", "--n-frames", "3", "--loss",
                "posenet", "--epochs", "0", "--perturb-t", "0",
                "--perturb-deg", "0", "--adversarial-roty", "7.5",
                "--out", out]
        assert main(argv) == 0
        final = []
        for f in synth_scene(seed=0, n_frames=3).frames:
            p = apply_offset(f.gt_pose, "roty", 7.5)
            final.append((f.id, pose(p[:3], quat_normalize(p[3:]))))
        expected = io.StringIO()
        write_pose_list(expected, final)
        assert read(os.path.join(out, "final_poses.txt")) == \
            expected.getvalue()

    def test_final_quaternions_are_unit(self, tmp_path):
        # Adam moves q off the unit sphere; the written poses are normalized.
        out = str(tmp_path / "o")
        argv = [
            "optimize", "--synthetic", "--n-frames", "3", "--n-points", "40",
            "--loss", "homography", "--epochs", "50", "--lr", "3e-3",
            "--out", out,
        ]
        assert main(argv) == 0
        assert not os.path.exists(os.path.join(out, "errors.txt"))
        # Raw columns: parse_pose_list would normalize q on read.
        rows = read(os.path.join(out, "final_poses.txt")).splitlines()[1:]
        qs = np.array([[float(v) for v in r.split()[4:8]] for r in rows])
        assert len(qs) == 3
        np.testing.assert_allclose(np.linalg.norm(qs, axis=1), 1.0,
                                   rtol=0, atol=1e-15)


class TestSlabs:
    def test_local_table(self, tmp_path):
        out = str(tmp_path / "o")
        argv = ["slabs", "--synthetic", "--out", out]
        assert main(argv) == 0
        lines = read(os.path.join(out, "slabs.csv")).splitlines()
        assert lines[0] == "frame_id,x_min,x_max"
        assert len(lines) == 9  # 8 synthetic frames
        for row in lines[1:]:
            _, a, b = row.split(",")
            assert 0.0 < float(a) < float(b)

    def test_no_manual_bounds(self, tmp_path, capsys):
        # the slab bounds are depth percentiles (--lo/--hi), as in the losses
        out = str(tmp_path / "o")
        argv = ["slabs", "--synthetic", "--mode", "global",
                "--xmin", "1.5", "--xmax", "4", "--out", out]
        assert main(argv) == 1
        assert "unrecognized arguments: --xmin 1.5 --xmax 4" in \
            capsys.readouterr().err
        assert not os.path.exists(out)

    def test_global_table_is_the_pooled_slab(self, tmp_path):
        out = str(tmp_path / "o")
        argv = ["slabs", "--synthetic", "--mode", "global", "--lo", "0.1",
                "--hi", "0.8", "--out", out]
        assert main(argv) == 0
        s = global_slab(synth_scene(0), 0.1, 0.8).single
        assert read(os.path.join(out, "slabs.csv")).splitlines()[1:] == \
            [f"global,{s.x_min:.17g},{s.x_max:.17g}"]

    def test_repeated_visibility_line_exit_2(self, tmp_path, capsys):
        poses = str(tmp_path / "poses.txt")
        with open(poses, "w") as f:
            f.write("f0 0 0 0 1 0 0 0\n")
        pts = str(tmp_path / "pts.txt")
        with open(pts, "w") as f:
            f.write("P 0 0 4\nP 0 0 5\nP 0 0 6\nP 0 0 9\n"
                    "V f0 0 1 2\nV f0 1 2 3\n")
        argv = ["slabs", "--poses", poses, "--points", pts,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "line 6: V line of frame 'f0' already on line 5" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("fid", ["a/b", "a\0b",
                                     pytest.param(LONG_ID, id="too long")])
    def test_hist_id_that_cannot_name_a_file_exit_2(self, tmp_path, capsys,
                                                    fid):
        # "/" and a name over the file system's limit made the histogram's
        # open fail after slabs.csv was written, and a NUL raised a
        # ValueError that escaped main
        poses, pts = str(tmp_path / "poses.txt"), str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [(fid, identity_pose())])
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, z] for z in (4.0, 5.0, 6.0, 9.0)],
                         {fid: [0, 1, 2, 3]})
        out = str(tmp_path / "o")
        argv = ["slabs", "--poses", poses, "--points", pts, "--hist",
                "--out", out]
        assert main(argv) == 2
        assert f"frame id {fid!r}" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert main(argv[:-3] + argv[-2:]) == 0  # without --hist

    def test_hist_id_at_the_name_limit_is_written(self, tmp_path):
        # the longest name the file system takes is no error
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        fid = "f" * (limit - len("hist_.csv"))
        poses, pts = str(tmp_path / "poses.txt"), str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [(fid, identity_pose())])
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, z] for z in (4.0, 5.0, 6.0, 9.0)],
                         {fid: [0, 1, 2, 3]})
        argv = ["slabs", "--poses", poses, "--points", pts, "--hist",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert os.path.exists(tmp_path / f"hist_{fid}.csv")

    def test_histograms_cdf_nondecreasing(self, tmp_path):
        out = str(tmp_path / "o")
        argv = ["slabs", "--synthetic", "--n-frames", "2", "--hist",
                "--out", out]
        assert main(argv) == 0
        for fid in ("f000", "f001"):
            lines = read(os.path.join(out, f"hist_{fid}.csv")).splitlines()
            assert lines[0] == "depth,cumulative_count"
            depths = [float(r.split(",")[0]) for r in lines[1:]]
            counts = [int(r.split(",")[1]) for r in lines[1:]]
            assert depths == sorted(depths)
            assert counts == list(range(1, len(counts) + 1))


class TestEval:
    def write_scene_files(self, tmp_path):
        gt = [
            ("f0", pose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])),
            ("f1", pose([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])),
        ]
        est = [
            ("f0", pose([0.1, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])),
            ("f1", pose([5.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])),
        ]
        gt_path = str(tmp_path / "gt.txt")
        est_path = str(tmp_path / "est.txt")
        with open(gt_path, "w") as f:
            write_pose_list(f, gt)
        with open(est_path, "w") as f:
            write_pose_list(f, est)
        return gt_path, est_path

    def test_pct_metrics(self, tmp_path, capsys):
        gt_path, est_path = self.write_scene_files(tmp_path)
        out = str(tmp_path / "o")
        argv = ["eval", "--gt-poses", gt_path, "--est-poses", est_path,
                "--out", out]
        assert main(argv) == 0
        lines = read(os.path.join(out, "eval.csv")).splitlines()
        assert lines[0] == "metric,value"
        table = dict(r.split(",") for r in lines[1:])
        assert float(table["pct_2m_2deg"]) == 0.5
        assert float(table["pct_3m_5deg"]) == 0.5

    def test_pct_rows_normalize_each_side_once(self, monkeypatch):
        # One pct_within call for the whole table, and in it one stacked
        # quat_normalize per side, whatever the number of threshold pairs;
        # the fractions are those of one pct_within call per pair.
        pct, normalize, calls = cli.pct_within, optim.quat_normalize, []
        monkeypatch.setattr(cli, "pct_within",
                            lambda *args: calls.append("pct") or pct(*args))
        monkeypatch.setattr(optim, "quat_normalize",
                            lambda q: calls.append(np.shape(q))
                            or normalize(q))
        rng = np.random.default_rng(3)
        gt = [f.gt_pose for f in synth_scene(0).frames]
        est = np.array([optim.perturb_pose(p, rng, 3.0, 6.0) for p in gt])
        gt = np.array(gt)
        rows = cli._pct_rows(est, gt)
        stacked = [(len(gt), 4)] * 2
        assert calls == ["pct"] + stacked
        pairs = optim.OUTDOOR_THRESHOLDS + optim.INDOOR_THRESHOLDS
        for n in (1, 4, 40):
            calls.clear()
            optim.pct_within(est, gt, (pairs * 10)[:n])
            assert calls == stacked
        assert [frac for _, frac in rows] == [
            optim.pct_within(est, gt, [pair])[0] for pair in pairs]

    def test_with_points_reports_mrd(self, tmp_path):
        gt_path, est_path = self.write_scene_files(tmp_path)
        pts_path = str(tmp_path / "pts.txt")
        with open(pts_path, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f0": (0, 1), "f1": (0, 1)})
        out = str(tmp_path / "o")
        argv = ["eval", "--gt-poses", gt_path, "--est-poses", est_path,
                "--points", pts_path, "--out", out]
        assert main(argv) == 0
        lines = read(os.path.join(out, "eval.csv")).splitlines()
        assert lines[1].startswith("mean_reproj_distance_px,")
        assert float(lines[1].split(",")[1]) > 0.0

    def test_nan_eval_clip_exit_2(self, tmp_path, capsys):
        gt_path, est_path = self.write_scene_files(tmp_path)
        pts_path = str(tmp_path / "pts.txt")
        with open(pts_path, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0]], {"f0": (0,), "f1": (0,)})
        out = str(tmp_path / "o")
        argv = ["eval", "--gt-poses", gt_path, "--est-poses", est_path,
                "--points", pts_path, "--eval-clip", "nan", "--out", out]
        assert main(argv) == 2
        assert "--eval-clip must not be nan" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("clip", ["-5", "0"])
    def test_non_positive_eval_clip_exit_2(self, tmp_path, capsys, clip):
        # est == gt: every distance is 0, which a clip of -5 or 0 would
        # have turned into the metric's value.
        gt_path, _ = self.write_scene_files(tmp_path)
        pts_path = str(tmp_path / "pts.txt")
        with open(pts_path, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0]], {"f0": (0,), "f1": (0,)})
        out = str(tmp_path / "o")
        argv = ["eval", "--gt-poses", gt_path, "--est-poses", gt_path,
                "--points", pts_path, "--eval-clip", clip, "--out", out]
        assert main(argv) == 2
        assert f"reprojection clip must be positive, got {float(clip)}" in \
            capsys.readouterr().err
        assert not os.path.exists(out)

    def test_zero_fy_exit_2(self, tmp_path, capsys):
        # --fy 0 is invalid intrinsics; only an absent --fy defaults to --fx
        gt_path, est_path = self.write_scene_files(tmp_path)
        pts_path = str(tmp_path / "pts.txt")
        with open(pts_path, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f0": (0, 1), "f1": (0, 1)})
        out = str(tmp_path / "o")
        argv = ["eval", "--gt-poses", gt_path, "--est-poses", est_path,
                "--points", pts_path, "--fx", "500", "--fy", "0",
                "--out", out]
        assert main(argv) == 2
        assert "fy" in capsys.readouterr().err

    def test_no_common_frames_exit_2(self, tmp_path, capsys):
        gt_path, _ = self.write_scene_files(tmp_path)
        other = str(tmp_path / "other.txt")
        with open(other, "w") as f:
            write_pose_list(f, [("zz", identity_pose())])
        out = str(tmp_path / "o")
        argv = ["eval", "--gt-poses", gt_path, "--est-poses", other,
                "--out", out]
        assert main(argv) == 2


class TestIntrinsics:
    """Synthetic and file scenes take the camera from the same options."""

    def visible_counts(self, tmp_path, name, extra):
        out = str(tmp_path / name)
        argv = ["slabs", "--synthetic", "--n-frames", "3", "--hist", *extra,
                "--out", out]
        assert main(argv) == 0
        return [len(read(os.path.join(out, f"hist_f00{i}.csv")).splitlines())
                for i in range(3)]

    def test_synthetic_scene_takes_the_camera(self, tmp_path):
        default = self.visible_counts(tmp_path, "default", [])
        # the same focal length given explicitly changes nothing
        f = str(focal_length(65.0, 640.0))
        assert self.visible_counts(tmp_path, "fx", ["--fx", f]) == default
        # a longer focal length, an off-centre principal point or a shorter
        # sensor each leave fewer of the 60 points inside the image
        for extra in (["--fx", "900"], ["--cx", "100"], ["--height", "300"]):
            counts = self.visible_counts(tmp_path, extra[0][2:], extra)
            assert all(c <= d for c, d in zip(counts, default)), extra
            assert counts != default, extra

    def test_principal_point_defaults_to_the_sensor_centre(self, tmp_path):
        tables = []
        for name, extra in (("default", []),
                            ("given", ["--cx", "640", "--cy", "320"])):
            out = str(tmp_path / name)
            assert main(["slabs", "--synthetic", "--width", "1280", *extra,
                         "--out", out]) == 0
            tables.append(read(os.path.join(out, "slabs.csv")))
        assert tables[0] == tables[1]
        manifest = json.loads(read(str(tmp_path / "default" /
                                       "manifest.json")))
        assert manifest["config"]["cx"] is None
        assert manifest["config"]["cy"] is None

    def test_narrow_synthetic_camera_exit_2(self, tmp_path, capsys):
        argv = ["slabs", "--synthetic", "--fx", "1e5",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "sees only" in capsys.readouterr().err

    @pytest.mark.parametrize("fov", ["0", "180", "-10", "5e-324"])
    def test_field_of_view_out_of_range_exit_2(self, tmp_path, capsys, fov):
        argv = ["slabs", "--synthetic", f"--fov={fov}",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "field of view" in capsys.readouterr().err
        # with --fx given, --fov is not used
        assert main(argv + ["--fx", "500"]) == 0

    @pytest.mark.parametrize("option", ["--fx=inf", "--fy=inf", "--cx=inf",
                                        "--cy=-inf", "--width=inf",
                                        "--height=inf"])
    def test_non_finite_camera_exit_2(self, tmp_path, capsys, option):
        poses, pts = str(tmp_path / "poses.txt"), str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [("f0", identity_pose())])
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f0": (0, 1)})
        out = str(tmp_path / "o")
        argv = ["optimize", "--poses", poses, "--points", pts, "--loss",
                "geometric", "--epochs", "2", "--fx", "500", option,
                "--out", out]
        assert main(argv) == 2
        assert "fx, fy, w, h must be positive and finite, cx, cy finite" \
            in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_file_scene_width_sets_the_default_focal_length(self, tmp_path):
        gt = [("f0", identity_pose())]
        est = [("f0", pose([0.1, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]))]
        paths = {}
        for name, poses in (("gt", gt), ("est", est)):
            paths[name] = str(tmp_path / f"{name}.txt")
            with open(paths[name], "w") as f:
                write_pose_list(f, poses)
        pts = str(tmp_path / "pts.txt")
        with open(pts, "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f0": (0, 1)})
        mrd = {}
        for width in ("640", "800"):
            out = str(tmp_path / width)
            argv = ["eval", "--gt-poses", paths["gt"], "--est-poses",
                    paths["est"], "--points", pts, "--width", width,
                    "--out", out]
            assert main(argv) == 0
            table = dict(r.split(",") for r in
                         read(os.path.join(out, "eval.csv")).splitlines())
            mrd[width] = float(table["mean_reproj_distance_px"])
        # all points lie on the x axis, so the distance scales with fx
        assert mrd["800"] == pytest.approx(
            mrd["640"] * focal_length(65.0, 800.0) / focal_length(65.0, 640.0),
            rel=1e-12)


class TestManifest:
    def replay(self, tmp_path, edit):
        out = str(tmp_path / "o")
        assert main(["slabs", "--synthetic", "--n-frames", "2",
                     "--out", out]) == 0
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        path = str(tmp_path / "edited.json")
        with open(path, "w") as f:
            json.dump(edit(manifest), f)
        return main(["--from-manifest", path])

    def test_missing_option_exit_2(self, tmp_path, capsys):
        def edit(m):
            del m["config"]["lo"], m["config"]["hist"]
            return m
        assert self.replay(tmp_path, edit) == 2
        assert "slabs config lacks lo, hist" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, option", [
        ("lo", "0.1", "--lo"),
        ("lo", None, "--lo"),
        ("lo", True, "--lo"),
        ("n_frames", 2.5, "--n-frames"),
        ("n_frames", True, "--n-frames"),
        ("mode", "bogus", "--mode"),
        ("hist", 0, "--hist"),
        ("poses", ["p.txt"], "--poses"),
        ("out", None, "--out"),
    ])
    def test_invalid_value_exit_2(self, tmp_path, capsys, key, value,
                                  option):
        assert self.replay(tmp_path, lambda m: {
            **m, "config": {**m["config"], key: value}}) == 2
        assert f"{value!r} is not a valid {option} value" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lo", 0), ("fx", None), ("cx", 320.0), ("mode", "global"),
        ("hist", True)])
    def test_valid_value_replays(self, tmp_path, key, value):
        assert self.replay(tmp_path, lambda m: {
            **m, "config": {**m["config"], key: value}}) == 0

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_setting_without_an_option_exit_2(self, tmp_path, capsys, mode):
        # slabs has no --xmin/--xmax: replay must not drop them silently
        assert self.replay(tmp_path, lambda m: {**m, "config": {
            **m["config"], "mode": mode, "xmin": 1.5, "xmax": 4.0}}) == 2
        assert "slabs has no option 'xmin', so it must be null" in \
            capsys.readouterr().err

    def test_null_setting_without_an_option_replays(self, tmp_path):
        # manifests written while slabs took --xmin/--xmax record them null
        table, before = os.path.join(str(tmp_path / "o"), "slabs.csv"), []

        def edit(m):
            before.append(read(table))
            return {**m, "config": {**m["config"], "xmin": None,
                                    "xmax": None}}
        assert self.replay(tmp_path, edit) == 0
        assert read(table) == before[0]

    def test_nul_in_a_path_exit_2(self, tmp_path, capsys):
        def edit(m):
            m["config"]["poses"] = "p\0.txt"
            return m
        assert self.replay(tmp_path, edit) == 2
        assert "'p\\x00.txt' is not a valid --poses value" in \
            capsys.readouterr().err

    def test_nan_value_exit_2(self, tmp_path, capsys):
        assert self.replay(tmp_path, lambda m: {
            **m, "config": {**m["config"], "depth_max": float("nan")}}) == 2
        assert "--depth-max must not be nan" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert self.replay(tmp_path, lambda m: {
            **m, "config": {**m["config"], "scene_seed": -3}}) == 2
        assert "--scene-seed must be >= 0, got -3" in capsys.readouterr().err

    def test_edited_input_file_exit_2(self, tmp_path, capsys):
        scene = synth_scene(0, n_frames=2)
        poses = str(tmp_path / "poses.txt")
        points = str(tmp_path / "points.txt")
        with open(poses, "w") as f:
            write_pose_list(f, [(fr.id, fr.gt_pose) for fr in scene.frames])
        with open(points, "w") as f:
            write_points(f, scene.points,
                         {fr.id: fr.visible for fr in scene.frames})
        out = str(tmp_path / "o")
        assert main(["slabs", "--poses", poses, "--points", points,
                     "--out", out]) == 0
        manifest = os.path.join(out, "manifest.json")
        assert main(["--from-manifest", manifest]) == 0
        with open(poses) as f:
            lines = f.read().splitlines()
        fields = lines[-1].split()
        fields[3] = repr(float(fields[3]) + 0.5)  # move the last frame's tz
        lines[-1] = " ".join(fields)
        with open(poses, "w") as f:
            f.write("\n".join(lines) + "\n")
        before = read(os.path.join(out, "slabs.csv"))
        assert main(["--from-manifest", manifest]) == 2
        assert f"input {poses} does not match its recorded sha256" in \
            capsys.readouterr().err
        assert read(os.path.join(out, "slabs.csv")) == before

    def test_unknown_command_exit_2(self, tmp_path, capsys):
        assert self.replay(tmp_path,
                           lambda m: {**m, "command": "frobnicate"}) == 2
        assert "command 'frobnicate' is not one of landscape, gradcheck" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("config", [[1, 2], "x", None])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, config):
        assert self.replay(tmp_path, lambda m: {**m, "config": config}) == 2
        assert "config is not an object" in capsys.readouterr().err

    def test_manifest_not_an_object_exit_2(self, tmp_path, capsys):
        assert self.replay(tmp_path, lambda m: [m]) == 2
        assert "command None is not one of" in capsys.readouterr().err

    def test_library_key_error_is_not_a_data_error(self, tmp_path,
                                                   monkeypatch):
        # A KeyError inside the library is a programming error: it must
        # surface, not be reported as bad input with exit 2.
        def broken(self, frame_id):
            raise KeyError(frame_id)
        monkeypatch.setattr(DepthSlab, "for_frame", broken)
        argv = ["gradcheck", "--synthetic", "--loss", "homography",
                "--samples", "1", "--out", str(tmp_path / "o")]
        with pytest.raises(KeyError):
            main(argv)


class TestExitCodes:
    def test_usage_error_unknown_loss(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        argv = ["gradcheck", "--synthetic", "--loss", "nope", "--out", out]
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--synthetic", "--loss", "posenet", "--step", "inf"],
        ["gradcheck", "--synthetic", "--loss", "posenet",
         "--perturb-t=-1"],
        ["landscape", "--synthetic", "--axis", "tz", "--range=-1:1",
         "--steps", "1", "--losses", "posenet"],
        ["slabs", "--synthetic", "--lo", "90", "--hi", "10"],
        # f001 sees one point, so the pooled depths have no global slab,
        # which fails after posenet's sweep of f001
        ["landscape", "--poses", "poses.txt", "--points", "one.txt",
         "--frame", "1", "--axis", "tz", "--range=-1:1",
         "--losses", "posenet,homography_global"],
        # no frame sees a point, so the final metric fails
        ["optimize", "--poses", "poses.txt", "--points", "none.txt",
         "--loss", "posenet", "--epochs", "0"],
        # a frame id too long for a histogram's file name
        ["slabs", "--poses", "long.txt", "--points", "long_points.txt",
         "--hist"],
        # the manifest hashes a --poses file that a synthetic run ignores
        ["gradcheck", "--synthetic", "--poses", "missing.txt", "--loss",
         "posenet", "--samples", "1", "--tolerance", "0"]])
    def test_failed_command_leaves_no_out_directory(self, tmp_path, capsys,
                                                    argv):
        # The directory is made just before the first write, after all
        # that can fail.
        with open(tmp_path / "poses.txt", "w") as f:
            write_pose_list(f, [("f000", identity_pose()),
                                ("f001", pose([1.0, 0.0, 0.0],
                                              [1.0, 0.0, 0.0, 0.0]))])
        with open(tmp_path / "long.txt", "w") as f:
            write_pose_list(f, [(LONG_ID, identity_pose())])
        for name, seen in (("one.txt", {"f001": [0]}), ("none.txt", {}),
                           ("long_points.txt", {LONG_ID: [0, 1]})):
            with open(tmp_path / name, "w") as f:
                write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]], seen)
        argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
        out = str(tmp_path / "o")
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("losses, kind", [
        ("posenet,posenet", "posenet"),
        ("homography,geometric,homography_local", "homography_local")])
    def test_usage_error_loss_named_twice(self, tmp_path, capsys, losses,
                                          kind):
        out = str(tmp_path / "o")
        assert main(landscape_args(out, **{"--losses": losses})) == 1
        assert f"loss {kind!r} is named twice" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("given", [["--poses"], ["--points"],
                                       ["--poses", "--points"]])
    def test_synthetic_with_an_input_file_exit_2(self, tmp_path, capsys,
                                                 given):
        # The file exists and would be hashed into the manifest, but a
        # synthetic scene never reads it.
        path = tmp_path / "poses.txt"
        with open(path, "w") as f:
            write_pose_list(f, [("f000", identity_pose())])
        out = str(tmp_path / "o")
        argv = ["gradcheck", "--synthetic", "--loss", "posenet", "--samples",
                "2", "--out", out]
        for option in given:
            argv += [option, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --synthetic generates the scene, so "
            f"{' and '.join(given)} would go unread\n")
        assert not os.path.exists(out)

    def test_usage_error_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_usage_error_missing_scene(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        argv = ["gradcheck", "--loss", "posenet", "--out", out]
        assert main(argv) == 1

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as f:
            f.write("f0 1 2 3\n")
        pts = str(tmp_path / "pts.txt")
        with open(pts, "w") as f:
            f.write("P 0 0 4\nV f0 0\n")
        out = str(tmp_path / "o")
        argv = ["slabs", "--poses", bad, "--points", pts, "--out", out]
        assert main(argv) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["slabs", "eval"])
    def test_duplicate_frame_name_exit_2(self, tmp_path, capsys, command):
        poses = str(tmp_path / "poses.txt")
        with open(poses, "w") as f:
            f.write("f0 0 0 0 1 0 0 0\nf1 1 0 0 1 0 0 0\n"
                    "f0 0 0 -1 1 0 0 0\n")
        pts = str(tmp_path / "pts.txt")
        with open(pts, "w") as f:
            f.write("P 0 0 4\nP 1 0 5\nP 0 1 6\nV f0 0 1 2\nV f1 0 1 2\n")
        argv = (["slabs", "--poses", poses, "--points", pts]
                if command == "slabs"
                else ["eval", "--gt-poses", poses, "--est-poses", poses])
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "line 3: frame name 'f0' already on line 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["geometric", "homography", "posenet"])
    @pytest.mark.parametrize("bad", ["pose", "point"])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, loss, bad):
        poses = str(tmp_path / "poses.txt")
        with open(poses, "w") as f:
            f.write("f0 0 0 0 1 0 0 0\n" if bad == "point"
                    else "f0 inf 0 0 1 0 0 0\n")
        pts = str(tmp_path / "pts.txt")
        with open(pts, "w") as f:
            f.write("P 0 0 4\nP 1 0 5\nP 0 1 6\n")
            f.write("P nan 0 1\n" if bad == "point" else "")
            f.write("V f0 0 1 2\n")
        out = str(tmp_path / "o")
        argv = ["optimize", "--poses", poses, "--points", pts, "--loss", loss,
                "--epochs", "2", "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("line 4" if bad == "point" else "line 1") in err
        assert "non-finite" in err

    @pytest.mark.parametrize("command", [
        "optimize", "eval", "landscape", "gradcheck_geometric",
        "gradcheck_posenet", "slabs"])
    def test_non_finite_gt_pixel_rejected_without_a_warning(
            self, tmp_path, capsys, command):
        # Point 0 lies at gt depth 1e-310, so its gt pixel overflows: the
        # scene build rejects f000 as for a point at zero gt depth, so every
        # command that reads the scene exits 2, whatever its loss.
        poses = str(tmp_path / "poses.txt")
        pts = str(tmp_path / "pts.txt")
        with open(poses, "w") as f:
            f.write("f000 0 0 0 1 0 0 0\n")
        with open(pts, "w") as f:
            f.write("P 1 0 1e-310\nP 0.5 0.2 3\nP -0.3 0.1 4\n"
                    "V f000 0 1 2\n")
        out = str(tmp_path / "o")
        scene = ["--poses", poses, "--points", pts]
        argv = {"optimize": ["optimize", *scene, "--loss", "geometric",
                             "--epochs", "2"],
                "eval": ["eval", "--gt-poses", poses, "--est-poses", poses,
                         "--points", pts],
                "landscape": ["landscape", *scene, "--losses",
                              "geometric,posenet", "--axis", "tx",
                              "--range=-0.1:0.1", "--steps", "3"],
                "gradcheck_geometric": ["gradcheck", *scene, "--loss",
                                        "geometric", "--samples", "2"],
                "gradcheck_posenet": ["gradcheck", *scene, "--loss",
                                      "posenet", "--samples", "2"],
                "slabs": ["slabs", *scene]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: frame f000: a visible point lies at zero gt " \
            "depth or has a non-finite gt pixel\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--loss", "homography", "--tolerance", "nan"],
        ["gradcheck", "--loss", "homography", "--step", "nan"],
        ["optimize", "--loss", "posenet", "--lr", "nan"],
        ["optimize", "--loss", "posenet", "--beta", "nan"],
        ["optimize", "--loss", "posenet", "--adam-eps", "nan"],
        ["optimize", "--loss", "geometric", "--clip", "nan"],
        ["optimize", "--loss", "homoscedastic", "--s-q", "NaN"],
    ])
    def test_nan_option_exit_2(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main([*argv, "--synthetic", "--out", out]) == 2
        assert f"{argv[-2]} must not be nan" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_infinite_step_exit_2(self, tmp_path, capsys):
        # Central differences over an infinite step are NaN: invalid input,
        # as --step nan is, not a tolerance failure with outputs.
        out = str(tmp_path / "o")
        argv = ["gradcheck", "--synthetic", "--loss", "homography", "--step",
                "inf", "--out", out]
        assert main(argv) == 2
        assert "step must be positive and finite, got inf" in \
            capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "gradcheck.csv"))
        assert not os.path.exists(os.path.join(out, "manifest.json"))

    @pytest.mark.parametrize("argv", [
        ["landscape", "--losses", "posenet", "--axis", "tz",
         "--range=-1:1", "--steps", "3", "--scene-seed", "-1"],
        ["gradcheck", "--loss", "posenet", "--samples", "2", "--seed", "-1"],
        ["gradcheck", "--loss", "posenet", "--samples", "2",
         "--scene-seed", "-1"],
        ["optimize", "--loss", "posenet", "--epochs", "2", "--seed", "-1"],
        ["optimize", "--loss", "posenet", "--epochs", "2",
         "--scene-seed", "-1"],
        ["slabs", "--scene-seed", "-1"],
    ])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        out = str(tmp_path / "o")
        assert main([*argv, "--synthetic", "--out", out]) == 2
        assert f"{argv[-2]} must be >= 0, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("option, message", [
        ("--lr=inf", "lr must be positive and finite"),
        ("--beta=inf", "beta must be positive and finite"),
        ("--adam-eps=-1", "adam_eps must be >= 0 and finite"),
        ("--adam-eps=inf", "adam_eps must be >= 0 and finite"),
        ("--quat-reg=-1", "quat_reg_weight must be >= 0 and finite, got -1"),
        ("--quat-reg=inf", "quat_reg_weight must be >= 0 and finite, got inf"),
        ("--s-t=inf", "s_t must be finite, got inf"),
        ("--s-q=-inf", "s_q must be finite, got -inf"),
    ])
    def test_non_finite_hyperparameter_exit_2(self, tmp_path, capsys, option,
                                              message):
        out = str(tmp_path / "o")
        argv = ["optimize", "--synthetic", "--loss", "posenet", "--epochs",
                "3", option, "--out", out]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["optimize", "slabs"])
    def test_infinite_depth_range_exit_2(self, tmp_path, capsys, command):
        out = str(tmp_path / "o")
        argv = [command, "--synthetic", "--depth-max=inf", "--out", out]
        assert main(argv + (["--loss", "posenet"] if command == "optimize"
                            else [])) == 2
        assert "0 < lo < hi < inf" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_infinite_clip_is_no_clip(self, tmp_path):
        argv = ["optimize", "--synthetic", "--loss", "geometric", "--epochs",
                "1", "--clip", "inf", "--out", str(tmp_path / "o")]
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["optimize", "gradcheck"])
    @pytest.mark.parametrize("option", ["--perturb-t=-1", "--perturb-deg=-2"])
    def test_negative_perturbation_exit_2(self, tmp_path, capsys, command,
                                          option):
        argv = [command, "--synthetic", "--loss", "posenet", option,
                "--epochs" if command == "optimize" else "--samples", "1",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "perturbation bounds must be >= 0" in capsys.readouterr().err

    def test_homoscedastic_weight_overflow_exit_2(self, tmp_path, capsys):
        # math.exp(-s) overflows below s = -709.78: an lr of 800 drives s_t
        # and s_q there in the first step, and every frame then errs.
        out = str(tmp_path / "o")
        argv = ["optimize", "--synthetic", "--n-frames", "3", "--loss",
                "homoscedastic", "--epochs", "3", "--lr", "800", "--out", out]
        assert main(argv) == 2
        assert "homoscedastic weight e^-s overflows" in \
            read(os.path.join(out, "errors.txt"))
        argv = ["gradcheck", "--synthetic", "--loss", "homoscedastic",
                "--samples", "2", "--s-t=-800", "--out", str(tmp_path / "g")]
        assert main(argv) == 2
        assert "overflows at s_t = -800.0, s_q = -3.0" in \
            capsys.readouterr().err
        assert not os.path.exists(tmp_path / "g")

    @pytest.mark.parametrize("tolerance", ["-1e-09", "-inf"])
    def test_negative_tolerance_exit_2(self, tmp_path, capsys, tolerance):
        # No sample can meet it; 0 and inf stay valid.
        out = str(tmp_path / "o")
        argv = ["gradcheck", "--synthetic", "--loss", "posenet", "--samples",
                "2", "--out", out]
        assert main(argv + [f"--tolerance={tolerance}"]) == 2
        assert f"--tolerance must be >= 0, got {float(tolerance):g}" in \
            capsys.readouterr().err
        assert not os.path.exists(out)
        assert main(argv + ["--tolerance=0"]) == 3
        assert main(argv + ["--tolerance=inf"]) == 0

    @pytest.mark.parametrize("command", ["optimize", "gradcheck"])
    @pytest.mark.parametrize("option", ["--perturb-t", "--perturb-deg"])
    def test_negative_zero_perturbation_is_zero(self, tmp_path, capsys,
                                                command, option):
        # -0 draws as 0 does, from the same random stream: every output is
        # the same bytes, and the manifest records the bound as given.
        out = str(tmp_path / "o")
        written = []
        for value in ("0", "-0"):
            argv = [command, "--synthetic", "--n-frames", "3", "--loss",
                    "homography", f"{option}={value}",
                    "--epochs" if command == "optimize" else "--samples",
                    "3", "--out", out]
            assert main(argv) == 0
            written.append(({name: read(os.path.join(out, name))
                             for name in os.listdir(out)},
                            capsys.readouterr().out))
            shutil.rmtree(out)
        (zero, zero_out), (neg, neg_out) = written
        manifests = [json.loads(d.pop("manifest.json")) for d in (zero, neg)]
        assert neg == zero and neg_out == zero_out
        key = option[2:].replace("-", "_")
        assert math.copysign(1.0, manifests[1]["config"][key]) == -1.0
        manifests[1]["config"][key] = 0.0
        assert manifests[1] == manifests[0]

    @pytest.mark.parametrize("argv", [
        ["slabs", "--poses=a\0b", "--points=p.txt"],
        ["slabs", "--synthetic", "--out=o\0"],
        ["eval", "--gt-poses=g.txt", "--est-poses=e\0.txt"],
        ["--from-manifest=m\0.json"]])
    def test_nul_in_a_value_exit_2(self, tmp_path, capsys, argv):
        # open() would raise ValueError on the NUL
        out = str(tmp_path / "o")
        if argv[0] in cli.COMMANDS and "--out=o\0" not in argv:
            argv = argv + ["--out", out]
        assert main(argv) == 2
        assert "must not hold a NUL character" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command, option, message", [
        ("optimize", "--perturb-t=inf", "got inf m and 2.0 deg"),
        ("optimize", "--perturb-deg=inf", "got 0.05 m and inf deg"),
        ("gradcheck", "--perturb-deg=inf", "got 0.3 m and inf deg"),
        ("optimize", "--adversarial-roty=inf",
         "rotation angle must be finite, got inf rad")])
    def test_infinite_perturbation_exit_2(self, tmp_path, capsys, command,
                                          option, message):
        argv = [command, "--synthetic", "--loss", "posenet", option,
                "--epochs" if command == "optimize" else "--samples", "1",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        argv = ["slabs", "--poses", str(tmp_path / "none.txt"),
                "--points", str(tmp_path / "none2.txt"), "--out", out]
        assert main(argv) == 2

    def test_bad_manifest_exit_2(self, tmp_path, capsys):
        bad = str(tmp_path / "m.json")
        with open(bad, "w") as f:
            f.write("{not json")
        assert main(["--from-manifest", bad]) == 2

    def test_bad_range_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        argv = landscape_args(out, **{"--range": "oops"})
        assert main(argv) == 1


# Cells of every kind the commands write: floats (signed zeros, infinities,
# NaN, subnormals, np.float64), ints, numpy ints and strings.
csv_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(width=64).map(np.float64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -2.2250738585072009e-308, np.float64(-0.0)]),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    # Lone surrogates (category Cs) have no UTF-8 bytes, so neither the
    # file nor the oracle's .encode() can hold them.
    st.text(alphabet=st.characters(blacklist_characters=",\n\r",
                                   blacklist_categories=("Cs",))),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(csv_cells, max_size=6), max_size=5))
@example(rows=[[-0.0, math.inf, -math.inf, math.nan, 5e-324,
                np.float64(1 / 3), 7, "f000"]])
def test_csv_bytes_equal_the_format_generator(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_csv(path, "h", rows)
    with open(path, "rb") as f:
        got = f.read()
    assert got == ("h\n" + "".join(csv_line(r) for r in rows)).encode()


@pytest.fixture(scope="module")
def no_v_line_scene(tmp_path_factory):
    """--poses/--points of a 3-frame synthetic scene whose first frame has
    no V line, so that its geometric cells are NaN."""
    d = tmp_path_factory.mktemp("no_v_line")
    scene = synth_scene(7, n_points=10, n_frames=3)
    with open(d / "poses.txt", "w") as f:
        write_pose_list(f, [(fr.id, fr.gt_pose) for fr in scene.frames])
    with open(d / "points.txt", "w") as f:
        write_points(f, scene.points, {fr.id: fr.visible
                                       for fr in scene.frames[1:]})
    return ["--poses", str(d / "poses.txt"), "--points", str(d / "points.txt")]


sweep_ends = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-12, 1e6, -1e6]))


@st.composite
def sweep_axes(draw):
    """(--axis, --range, --steps) of 1 or 2 distinct axes, 2 to 6 steps."""
    names = draw(st.lists(st.sampled_from(optim.SWEEP_AXES), min_size=1,
                          max_size=2, unique=True))
    return [(name, f"{draw(sweep_ends)!r}:{draw(sweep_ends)!r}",
             draw(st.integers(2, 6))) for name in names]


@settings(max_examples=150, deadline=None)
@given(axes=sweep_axes(), files=st.booleans(),
       kinds=st.lists(st.sampled_from(diffgrad.LOSS_KINDS), min_size=1,
                      unique=True))
@example(axes=[("tx", "-0.5:0.5", 3), ("rotz", "-1:-0", 3)], files=True,
         kinds=["posenet", "geometric", "homography_global"])
@example(axes=[("roty", "-1:-0", 2)], files=False,
         kinds=list(diffgrad.LOSS_KINDS))
def test_landscape_csv_is_the_sweep_rows(tmp_path_factory, no_v_line_scene,
                                         axes, files, kinds):
    # Each landscape_<kind>.csv is its header, then csv_line of each row
    # that landscape_sweep returned, a -0 offset written as -0. A frame
    # without points has no geometric constants and no local slab, so
    # those kinds write NaN cells there.
    out = str(tmp_path_factory.mktemp("landscape") / "o")
    argv = ["landscape", *(no_v_line_scene if files else ["--synthetic",
            "--n-frames", "2", "--n-points", "10"]),
            "--losses", ",".join(kinds), "--out", out]
    for suffix, (axis, text, steps) in zip(["", "2"], axes):
        argv += [f"--axis{suffix}", axis, f"--range{suffix}={text}",
                 f"--steps{suffix}", str(steps)]
    swept = {}

    def sweep(kind, *args):
        swept[kind] = optim.landscape_sweep(kind, *args)
        return swept[kind]
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(cli, "landscape_sweep", sweep)
        assert main(argv) == 0
    assert list(swept) == kinds
    header = "offset,offset2,loss_value" if len(axes) == 2 \
        else "offset,loss_value"
    for kind, rows in swept.items():
        assert len(rows) == math.prod(steps for _, _, steps in axes)
        assert read(os.path.join(out, f"landscape_{kind}.csv")) == \
            header + "\n" + "".join(csv_line(r) for r in rows)
    for kind in ("geometric", "homography_local"):
        if files and kind in kinds:
            assert all(math.isnan(r[-1]) for r in swept[kind])
    shutil.rmtree(out)


class TestFrameWithoutSlab:
    """A frame with fewer than 2 positive-depth points has no local slab:
    the homography loss fails for that frame alone, as the geometric loss
    does for a frame without points. Only the slab table fails whole."""

    NO_SLAB = "needs at least 2 positive-depth points, got 0"

    def test_optimize_skips_the_frame_as_geometric_does(self, tmp_path,
                                                        no_v_line_scene):
        for kind, why in (("homography", self.NO_SLAB), (
                "geometric", "geometric loss needs a non-empty point set")):
            out = str(tmp_path / kind)
            assert main(["optimize", *no_v_line_scene, "--loss", kind,
                         "--epochs", "4", "--out", out]) == 0
            assert read(os.path.join(out, "errors.txt")) == \
                f"frame f000: {why} (skipped from epoch 0, 4 steps)\n"

    def test_optimize_aborts_when_half_the_frames_have_none(self, tmp_path,
                                                            capsys):
        scene = synth_scene(7, n_points=10, n_frames=3)
        with open(tmp_path / "poses.txt", "w") as f:
            write_pose_list(f, [(fr.id, fr.gt_pose) for fr in scene.frames])
        with open(tmp_path / "points.txt", "w") as f:
            write_points(f, scene.points, {"f002": scene.frames[2].visible})
        out = str(tmp_path / "o")
        assert main(["optimize", "--poses", str(tmp_path / "poses.txt"),
                     "--points", str(tmp_path / "points.txt"), "--loss",
                     "homography", "--epochs", "4", "--out", out]) == 2
        assert read(os.path.join(out, "errors.txt")) == "".join(
            f"frame {fid}: {self.NO_SLAB} (skipped from epoch 0, 1 steps)\n"
            for fid in ("f000", "f001")) + \
            "epoch 0: aborted, 2/3 frames errored\n"
        assert "aborted=true" in capsys.readouterr().out

    def test_landscape_of_each_frame(self, tmp_path, capsys,
                                     no_v_line_scene):
        def landscape(frame):
            out = str(tmp_path / f"o{frame}")
            assert main(["landscape", *no_v_line_scene, "--frame", frame,
                         "--losses", "homography_local", "--axis", "tz",
                         "--range=-1:1", "--steps", "5", "--out", out]) == 0
            csv = read(os.path.join(out, "landscape_homography_local.csv"))
            return [float(line.split(",")[-1])
                    for line in csv.splitlines()[1:]], capsys.readouterr()
        values, captured = landscape("1")
        assert len(values) == 5 and all(map(math.isfinite, values))
        assert captured.err == ""
        values, captured = landscape("0")
        assert len(values) == 5 and all(map(math.isnan, values))
        assert captured.err == ("landscape homography_local: 5 of 5 cells "
                                f"are NaN: {self.NO_SLAB}\n")

    def test_gradcheck_fails_only_when_it_draws_the_frame(
            self, tmp_path, capsys, monkeypatch, no_v_line_scene):
        drawn = []

        def spy(scene, i, *args):
            drawn.append(scene.ids[i])
            return optim.frame_context(scene, i, *args)
        monkeypatch.setattr(cli, "frame_context", spy)
        outcomes = set()
        for kind, why in (("homography", self.NO_SLAB), (
                "geometric", "geometric loss needs a non-empty point set")):
            for seed in range(6):
                drawn.clear()
                code = main(["gradcheck", *no_v_line_scene, "--loss", kind,
                             "--samples", "2", "--seed", str(seed), "--out",
                             str(tmp_path / f"{kind}{seed}")])
                err = capsys.readouterr().err
                if "f000" in drawn:  # the first draw of f000 ends the run
                    assert (code, drawn[-1], err) == \
                        (2, "f000", f"error: frame f000: {why}\n")
                else:
                    assert (code, err) == (0, "")
                outcomes.add((kind, code))
        assert outcomes == {(k, c) for k in ("homography", "geometric")
                            for c in (0, 2)}

    def test_slab_table_fails_naming_the_frame(self, tmp_path, capsys,
                                               no_v_line_scene):
        out = str(tmp_path / "o")
        assert main(["slabs", *no_v_line_scene, "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"error: frame f000: {self.NO_SLAB}\n"
        assert not os.path.exists(out)


class TestComputeThenWrite:
    """Each run_<cmd> computes and writes nothing; _emit of what it returns
    writes the bytes that main writes, and main prints its lines."""

    @pytest.mark.parametrize("argv, code", [
        (["landscape", "--synthetic", "--losses", "posenet,geometric",
          "--axis", "tz", "--range=-1:1", "--steps", "5", "--axis2", "rotx",
          "--range2=-5:5", "--steps2", "3"], 0),
        (["gradcheck", "--synthetic", "--loss", "homography", "--samples",
          "3"], 0),
        (["gradcheck", "--synthetic", "--loss", "posenet", "--samples", "3",
          "--tolerance", "0"], 3),
        (["optimize", "--synthetic", "--n-frames", "3", "--loss",
          "homoscedastic", "--epochs", "3"], 0),
        # one of eight frames sees points, so the geometric run aborts
        (["optimize", "--poses", "poses.txt", "--points", "f000.txt",
          "--loss", "geometric", "--epochs", "2"], 2),
        (["slabs", "--synthetic", "--n-frames", "3", "--hist"], 0),
        (["eval", "--gt-poses", "poses.txt", "--est-poses", "est.txt",
          "--points", "f000.txt"], 0)])
    def test_emit_writes_what_main_writes(self, tmp_path, capsys, argv,
                                          code):
        with open(tmp_path / "poses.txt", "w") as f:
            write_pose_list(f, [(f"f00{i}", pose([0.1 * i, 0.0, 0.0],
                                                 [1.0, 0.0, 0.0, 0.0]))
                                for i in range(8)])
        with open(tmp_path / "est.txt", "w") as f:
            write_pose_list(f, [("f000", pose([0.1, 0.0, 0.0],
                                              [1.0, 0.0, 0.0, 0.0]))])
        with open(tmp_path / "f000.txt", "w") as f:
            write_points(f, [[0.0, 0.0, 4.0], [0.5, 0.0, 5.0]],
                         {"f000": [0, 1]})
        argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
        out = str(tmp_path / "run" / "o")
        argv += ["--out", out]
        config = {k: v for k, v in vars(cli.build_parser().parse_args(
            argv)).items() if k not in ("command", "from_manifest")}
        files, lines, failure = getattr(cli, f"run_{argv[0]}")(config)
        assert not os.path.exists(tmp_path / "run")
        assert capsys.readouterr().out == ""
        assert (failure is None) == (code == 0)
        cli._emit(out, argv[0], config, files)
        emitted = {name: read(os.path.join(out, name))
                   for name in os.listdir(out)}
        shutil.rmtree(tmp_path / "run")
        assert main(argv) == code
        assert capsys.readouterr().out == "".join(f"{line}\n"
                                                  for line in lines)
        assert {name: read(os.path.join(out, name))
                for name in os.listdir(out)} == emitted


class TestParserOnce:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_reused_parser_keeps_no_state(self, tmp_path, capsys):
        # Run 3 leaves --lr at its default after run 1 set it and run 2
        # failed in the middle of its parse, and writes what a fresh
        # interpreter writes.
        out = str(tmp_path / "o")
        argv = ["optimize", "--synthetic", "--n-frames", "3", "--loss",
                "homography", "--epochs", "3", "--out", out]
        fresh = subprocess.run(
            [sys.executable, "-m", "homoloss.cli", *argv],
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(__file__), os.pardir, "src")},
            capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        shutil.move(out, tmp_path / "fresh")
        assert main([*argv, "--lr", "0.1"]) == 0
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["lr"] == 0.1
        shutil.rmtree(out)
        assert main([*argv, "--batch-size", "2", "--lr", "abc"]) == 1
        assert "invalid float value: 'abc'" in capsys.readouterr().err
        assert main(argv) == 0
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["lr"] == 1e-4
        assert manifest["config"]["batch_size"] == 64
        names = sorted(os.listdir(out))
        assert names == sorted(os.listdir(tmp_path / "fresh"))
        for name in names:
            with open(os.path.join(out, name), "rb") as a, \
                    open(tmp_path / "fresh" / name, "rb") as b:
                assert a.read() == b.read(), name
