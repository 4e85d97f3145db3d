"""Command-line front end: reproducible CSV-emitting runs for landscape
sweeps, gradient checks, pose optimization, slab tables, and evaluation.

Every command writes a manifest.json alongside its outputs; re-running via
--from-manifest reproduces the outputs byte-identically.

`optimize` writes errors.txt (one line per skipped frame and message, with
its first epoch and step count, plus the abort) into --out whenever the run
records an error, and exits 2 after writing all its outputs if the run
aborted.

Exit codes: 0 success, 1 usage error, 2 data/parse error or aborted run,
3 numeric-tolerance failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, diffgrad, optim, scene as scene_mod
from .geometry import InvalidInputError, Intrinsics, Pose, quat_normalize
from .losses import LossHyperParams
from .optim import (
    INDOOR_THRESHOLDS,
    OUTDOOR_THRESHOLDS,
    OptimConfig,
    apply_offset,
    frame_context,
    landscape_sweep,
    mean_reproj_distance,
    pct_within,
    perturb_pose,
)
from .scene import (
    DegenerateDepthError,
    GenerationError,
    ParseError,
    Scene,
    frame_depths,
    global_slab,
    local_slabs,
    parse_pose_list,
    scene_from_files,
    synth_scene,
    write_pose_list,
)

LOSS_ALIASES = {"homography": "homography_local"}


class UsageError(Exception):
    pass


class ToleranceFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(v):
    return format(float(v), ".17g")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, config):
    inputs = {}
    for key in ("poses", "points", "gt_poses", "est_poses"):
        path = config.get(key)
        if path:
            inputs[key] = _sha256(path)
    manifest = {
        "tool": "homoloss",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# -- scene construction ----------------------------------------------------

def _add_intrinsics_args(p):
    p.add_argument("--fov", type=float, default=65.0)
    p.add_argument("--fx", type=float, default=None)
    p.add_argument("--fy", type=float, default=None)
    p.add_argument("--cx", type=float, default=320.0)
    p.add_argument("--cy", type=float, default=320.0)
    p.add_argument("--width", type=float, default=640.0)
    p.add_argument("--height", type=float, default=640.0)


def _add_scene_args(p):
    p.add_argument("--poses", help="pose-list text file")
    p.add_argument("--points", help="points/visibility text file")
    p.add_argument("--synthetic", action="store_true",
                   help="generate a synthetic scene instead of reading files")
    p.add_argument("--scene-seed", type=int, default=0)
    p.add_argument("--n-points", type=int, default=60)
    p.add_argument("--n-frames", type=int, default=8)
    p.add_argument("--depth-min", type=float, default=2.0)
    p.add_argument("--depth-max", type=float, default=8.0)
    _add_intrinsics_args(p)


def _intrinsics(config) -> Intrinsics:
    if config.get("fx") is None:
        return scene_mod.default_intrinsics(config["fov"])
    return Intrinsics(fx=config["fx"], fy=config["fy"] or config["fx"],
                      cx=config["cx"], cy=config["cy"],
                      w=config["width"], h=config["height"])


def _build_scene(config) -> Scene:
    if config.get("synthetic"):
        return synth_scene(
            seed=config["scene_seed"],
            n_points=config["n_points"],
            n_frames=config["n_frames"],
            depth_range=(config["depth_min"], config["depth_max"]),
            fov=config["fov"],
        )
    if not config.get("poses") or not config.get("points"):
        raise UsageError("need --synthetic or both --poses and --points")
    with open(config["poses"]) as pf, open(config["points"]) as xf:
        return scene_from_files(pf, xf, _intrinsics(config))


def _add_hyper_args(p):
    p.add_argument("--beta", type=float, default=500.0)
    p.add_argument("--clip", type=float, default=100.0,
                   help="geometric-loss reprojection clip in px")
    p.add_argument("--quat-reg", type=float, default=1.0)
    p.add_argument("--s-t", type=float, default=0.0)
    p.add_argument("--s-q", type=float, default=-3.0)


def _hyper(config) -> LossHyperParams:
    return LossHyperParams(
        beta=config["beta"],
        s_t=config["s_t"],
        s_q=config["s_q"],
        reproj_clip=config["clip"],
        quat_reg_weight=config["quat_reg"],
    )


def _resolve_loss(name):
    name = LOSS_ALIASES.get(name, name)
    if name not in diffgrad.LOSS_KINDS:
        raise UsageError(f"unknown loss {name!r}")
    return name


def _depth_slab(scene, kind, config):
    """Slab bounds for the homography kinds, None for the others."""
    lo, hi = config.get("lo", 0.025), config.get("hi", 0.975)
    if kind == "homography_global":
        return global_slab(scene, lo=lo, hi=hi)
    if kind == "homography_local":
        return local_slabs(scene, lo=lo, hi=hi)
    return None


def _parse_range(text):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as e:
        raise UsageError(f"bad range {text!r}, expected lo:hi") from e


# -- commands --------------------------------------------------------------

def run_landscape(config):
    scene = _build_scene(config)
    frame = scene.frames[config["frame"]]
    lo, hi = _parse_range(config["range"])
    offsets = np.linspace(lo, hi, config["steps"])
    kinds = [_resolve_loss(s) for s in config["losses"].split(",")]
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    axis2 = config.get("axis2")
    offsets2 = None
    if axis2:
        lo2, hi2 = _parse_range(config["range2"])
        offsets2 = np.linspace(lo2, hi2, config["steps2"])
    for kind in kinds:
        ctx = frame_context(scene, frame, kind, _hyper(config),
                            _depth_slab(scene, kind, config))
        grids = landscape_sweep(frame.gt_pose, config["axis"], offsets,
                                [kind], ctx, axis2=axis2, offsets2=offsets2)
        path = os.path.join(out, f"landscape_{kind}.csv")
        with open(path, "w") as f:
            if axis2:
                f.write("offset,offset2,loss_value\n")
                for o1, o2, v in grids[kind]:
                    f.write(f"{_fmt(o1)},{_fmt(o2)},{_fmt(v)}\n")
            else:
                f.write("offset,loss_value\n")
                for o, v in grids[kind]:
                    f.write(f"{_fmt(o)},{_fmt(v)}\n")
    _write_manifest(out, "landscape", config)
    print(f"wrote {len(kinds)} landscape CSV(s) to {out}")
    return 0


def run_gradcheck(config):
    scene = _build_scene(config)
    kind = _resolve_loss(config["loss"])
    rng = np.random.default_rng(config["seed"])
    tol = config["tolerance"]
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    rows = []
    worst = 0.0
    for s in range(config["samples"]):
        frame = scene.frames[int(rng.integers(len(scene.frames)))]
        est = perturb_pose(frame.gt_pose, rng,
                           config["perturb_t"], config["perturb_deg"])
        ctx = frame_context(scene, frame, kind, _hyper(config),
                            _depth_slab(scene, kind, config))
        report = diffgrad.grad_report(kind, est, ctx, step=config["step"])
        val, _ = diffgrad.evaluate_with_grad(kind, est, ctx)
        rows.append((s, val, report.max_rel_err))
        worst = max(worst, report.max_rel_err)
    with open(os.path.join(out, "gradcheck.csv"), "w") as f:
        f.write("sample,loss_value,max_rel_err\n")
        for s, val, err in rows:
            f.write(f"{s},{_fmt(val)},{_fmt(err)}\n")
    _write_manifest(out, "gradcheck", config)
    n_fail = sum(1 for _, _, err in rows if err > tol)
    print(f"gradcheck {kind}: {len(rows)} samples, worst max_rel_err "
          f"{worst:.3e}, {n_fail} above tolerance {tol:g}")
    if n_fail:
        raise ToleranceFailure(
            f"{n_fail} gradient samples exceed tolerance {tol:g}"
        )
    return 0


def run_optimize(config):
    scene = _build_scene(config)
    kind = _resolve_loss(config["loss"])
    rng = np.random.default_rng(config["seed"])
    init = []
    for frame in scene.frames:
        pose = frame.gt_pose
        if config.get("adversarial_roty"):
            pose = apply_offset(pose, "roty", config["adversarial_roty"])
        pose = perturb_pose(pose, rng, config["perturb_t"],
                            config["perturb_deg"])
        init.append(pose)
    cfg = OptimConfig(
        loss_kind=kind,
        lr=config["lr"],
        adam_eps=config.get("adam_eps"),
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        seed=config["seed"],
        hyper=_hyper(config),
        slab=_depth_slab(scene, kind, config),
        warmstart_epochs=config.get("warmstart", 0),
    )
    record = optim.optimize_poses(scene, init, cfg)
    final = [(fid, Pose(p.t, quat_normalize(p.q)))
             for fid, p in record.final_poses]
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "run.csv"), "w") as f:
        record.write_csv(f)
    with open(os.path.join(out, "final_poses.txt"), "w") as f:
        write_pose_list(f, final)
    if record.errors:
        with open(os.path.join(out, "errors.txt"), "w") as f:
            f.writelines(e + "\n" for e in record.errors)
    _write_manifest(out, "optimize", config)
    est = [p for _, p in final]
    gt = [f.gt_pose for f in scene.frames]
    mrd = mean_reproj_distance(final, scene)
    parts = [f"loss={kind}", f"final_train_mrd_px={mrd:.6g}"]
    for t_th, r_th in OUTDOOR_THRESHOLDS + INDOOR_THRESHOLDS:
        frac = pct_within(est, gt, t_th, r_th)
        parts.append(f"pct_{t_th:g}m_{r_th:g}deg={100 * frac:.1f}%")
    if record.aborted:
        parts.append("aborted=true")
    print(" ".join(parts))
    if record.aborted:
        raise InvalidInputError(f"run aborted, see {out}/errors.txt")
    return 0


def run_slabs(config):
    scene = _build_scene(config)
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    rows = []
    if config["mode"] == "global":
        if config.get("xmin") is not None:
            slab = global_slab(x_min=config["xmin"], x_max=config["xmax"])
        else:
            slab = global_slab(scene, lo=config["lo"], hi=config["hi"])
        rows.append(("global", slab.single.x_min, slab.single.x_max))
    else:
        slab = local_slabs(scene, lo=config["lo"], hi=config["hi"])
        for f in scene.frames:
            sp = slab.per_frame[f.id]
            rows.append((f.id, sp.x_min, sp.x_max))
    with open(os.path.join(out, "slabs.csv"), "w") as f:
        f.write("frame_id,x_min,x_max\n")
        for fid, a, b in rows:
            f.write(f"{fid},{_fmt(a)},{_fmt(b)}\n")
    if config.get("hist"):
        for frame in scene.frames:
            depths = np.sort(frame_depths(scene, frame))
            depths = depths[depths > 0]
            path = os.path.join(out, f"hist_{frame.id}.csv")
            with open(path, "w") as f:
                f.write("depth,cumulative_count\n")
                for i, d in enumerate(depths, start=1):
                    f.write(f"{_fmt(d)},{i}\n")
    _write_manifest(out, "slabs", config)
    print(f"wrote slab table ({len(rows)} row(s)) to {out}")
    return 0


def run_eval(config):
    with open(config["gt_poses"]) as f:
        gt = parse_pose_list(f)
    with open(config["est_poses"]) as f:
        est = parse_pose_list(f)
    gt_map = dict(gt)
    est_map = dict(est)
    common = [name for name, _ in gt if name in est_map]
    if not common:
        raise ParseError("no common frame ids between gt and estimate files")
    gt_list = [gt_map[n] for n in common]
    est_list = [est_map[n] for n in common]
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    lines = []
    if config.get("points"):
        with open(config["gt_poses"]) as pf, open(config["points"]) as xf:
            scene = scene_from_files(pf, xf, _intrinsics(config))
        keep = [f for f in scene.frames if f.id in est_map]
        sub = Scene(points=scene.points, frames=keep,
                    intrinsics=scene.intrinsics)
        pairs = [(f.id, est_map[f.id]) for f in keep]
        mrd = mean_reproj_distance(pairs, sub, clip=config["eval_clip"])
        lines.append(("mean_reproj_distance_px", mrd))
    for t_th, r_th in OUTDOOR_THRESHOLDS + INDOOR_THRESHOLDS:
        frac = pct_within(est_list, gt_list, t_th, r_th)
        lines.append((f"pct_{t_th:g}m_{r_th:g}deg", frac))
    with open(os.path.join(out, "eval.csv"), "w") as f:
        f.write("metric,value\n")
        for name, v in lines:
            f.write(f"{name},{_fmt(v)}\n")
    _write_manifest(out, "eval", config)
    for name, v in lines:
        print(f"{name}={v:.6g}")
    return 0


COMMANDS = {
    "landscape": run_landscape,
    "gradcheck": run_gradcheck,
    "optimize": run_optimize,
    "slabs": run_slabs,
    "eval": run_eval,
}


def build_parser():
    parser = _Parser(prog="homoloss", description=__doc__)
    parser.add_argument("--from-manifest", metavar="FILE",
                        help="replay a previously written manifest")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("landscape", help="loss-landscape sweep CSVs")
    _add_scene_args(p)
    _add_hyper_args(p)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--axis", required=True, choices=optim.SWEEP_AXES)
    p.add_argument("--range", required=True, help="lo:hi")
    p.add_argument("--steps", type=int, default=181)
    p.add_argument("--axis2", choices=optim.SWEEP_AXES)
    p.add_argument("--range2", help="lo:hi for the second axis")
    p.add_argument("--steps2", type=int, default=41)
    p.add_argument("--losses", required=True,
                   help="comma-separated loss kinds")
    p.add_argument("--lo", type=float, default=0.025)
    p.add_argument("--hi", type=float, default=0.975)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="analytic vs finite-diff gradients")
    _add_scene_args(p)
    _add_hyper_args(p)
    p.add_argument("--loss", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--perturb-t", type=float, default=0.3)
    p.add_argument("--perturb-deg", type=float, default=10.0)
    p.add_argument("--lo", type=float, default=0.025)
    p.add_argument("--hi", type=float, default=0.975)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("optimize", help="gradient-based pose refinement")
    _add_scene_args(p)
    _add_hyper_args(p)
    p.add_argument("--loss", required=True)
    p.add_argument("--epochs", type=int, default=5000)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--adam-eps", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--perturb-t", type=float, default=0.05)
    p.add_argument("--perturb-deg", type=float, default=2.0)
    p.add_argument("--adversarial-roty", type=float, default=0.0,
                   help="rotate every init by this many degrees about Y")
    p.add_argument("--warmstart", type=int, default=0,
                   help="homoscedastic warm-start epochs")
    p.add_argument("--lo", type=float, default=0.025)
    p.add_argument("--hi", type=float, default=0.975)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("slabs", help="depth-percentile slab table")
    _add_scene_args(p)
    p.add_argument("--mode", choices=("local", "global"), default="local")
    p.add_argument("--lo", type=float, default=0.025)
    p.add_argument("--hi", type=float, default=0.975)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--hist", action="store_true",
                   help="also write per-frame cumulative depth histograms")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="metrics on provided pose files")
    p.add_argument("--gt-poses", required=True)
    p.add_argument("--est-poses", required=True)
    p.add_argument("--points", default=None)
    p.add_argument("--eval-clip", type=float, default=1000.0)
    _add_intrinsics_args(p)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.from_manifest:
            with open(args.from_manifest) as f:
                manifest = json.load(f)
            command = manifest["command"]
            config = manifest["config"]
        else:
            if not args.command:
                raise UsageError("a subcommand is required")
            command = args.command
            config = {k: v for k, v in vars(args).items()
                      if k not in ("command", "from_manifest")}
        return COMMANDS[command](config)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ParseError, InvalidInputError, DegenerateDepthError,
            GenerationError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ToleranceFailure as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
