"""Command-line front end: reproducible CSV-emitting runs for landscape
sweeps, gradient checks, pose optimization, slab tables, and evaluation.

Every command writes a manifest.json alongside its outputs; re-running via
--from-manifest checks each config value (a key that is no option of the
command must be null) and input file sha256, then reproduces the outputs
byte-identically. Synthetic and file scenes take one camera: --fx defaults
to the focal length of --fov across --width, --fy to --fx, and --cx/--cy to
the sensor centre. `slabs` writes the slab the homography losses use.

A failed command leaves no --out: only an aborted `optimize` (exit 2) and
a `gradcheck` over tolerance (exit 3) write their outputs, then fail.
`optimize` writes errors.txt (one line per skipped frame and message, with
its first epoch and step count, plus the abort, after those of a --warmstart
phase) whenever the run records an error; a homography frame without a
local slab is skipped so.

Exit codes: 0 success, 1 usage error (such as --axis2 without --range2,
or the same axis as --axis), 2 data/parse error (a NaN option value, a
negative seed, a non-finite range, a NUL in a value, --poses or --points
with --synthetic, a V line of --points naming no frame of the poses, an
input file that is not UTF-8 text, a bad manifest or a changed input file,
too), or aborted run,
3 numeric-tolerance failure (a NaN gradient error included).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, diffgrad, optim, scene as scene_mod
from .geometry import InvalidInputError, Intrinsics, quat_normalize
from .losses import LossHyperParams
from .optim import (
    INDOOR_THRESHOLDS,
    OUTDOOR_THRESHOLDS,
    OptimConfig,
    frame_context,
    landscape_sweep,
    mean_reproj_distance,
    offset_rows,
    pct_within,
    perturb_pose,
)
from .scene import (
    ParseError,
    Scene,
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


def _write_csv(path, header, rows):
    """A CSV file: the header line, then one line per row with floats in
    round-trip form (.17g) and every other cell as str()."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(["%.17g" % v if isinstance(v, float)
                              else str(v) for v in row]) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_hashes(config):
    """{option: sha256} of each input file the config names."""
    return {key: _sha256(config[key])
            for key in ("poses", "points", "gt_poses", "est_poses")
            if config.get(key)}


def _emit(out, command, config, files):
    """Make out and write a command's files (name -> (header, rows) of a
    CSV, or text) and its manifest: the one place that writes outputs."""
    manifest = _manifest(command, config)  # input hashes, before any write
    os.makedirs(out, exist_ok=True)
    for name, content in {**files, "manifest.json": manifest}.items():
        if isinstance(content, str):
            with open(os.path.join(out, name), "w") as f:
                f.write(content)
        else:
            _write_csv(os.path.join(out, name), *content)


def _manifest(command, config):
    """manifest.json's text: the command, its config and its inputs' sha256."""
    return json.dumps({
        "tool": "homoloss",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": _input_hashes(config),
    }, indent=2, sort_keys=True) + "\n"


# -- scene construction ----------------------------------------------------

def _add_intrinsics_args(p):
    p.add_argument("--fov", type=float, default=65.0)
    p.add_argument("--fx", type=float, default=None)
    p.add_argument("--fy", type=float, default=None)
    p.add_argument("--cx", type=float, default=None)
    p.add_argument("--cy", type=float, default=None)
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
    p.add_argument("--lo", type=float, default=scene_mod.DEFAULT_PERCENTILE_LO)
    p.add_argument("--hi", type=float, default=scene_mod.DEFAULT_PERCENTILE_HI)
    _add_intrinsics_args(p)


def _intrinsics(config) -> Intrinsics:
    """The camera of both scene sources: --fx defaults to the focal length
    of --fov across --width, --fy to --fx and --cx/--cy to the centre."""
    w, h, fx, fy, cx, cy = (config[k] for k in ("width", "height", "fx",
                                                "fy", "cx", "cy"))
    if fx is None:
        fx = scene_mod.focal_length(config["fov"], w)
    return Intrinsics(fx=fx, fy=fx if fy is None else fy,
                      cx=w / 2 if cx is None else cx,
                      cy=h / 2 if cy is None else cy, w=w, h=h)


def _build_scene(config) -> Scene:
    if config["synthetic"]:
        unread = [f"--{key}" for key in ("poses", "points") if config[key]]
        if unread:  # a file that is never read, but hashed into the manifest
            raise InvalidInputError(f"--synthetic generates the scene, so "
                                    f"{' and '.join(unread)} would go unread")
        return synth_scene(
            seed=config["scene_seed"],
            n_points=config["n_points"],
            n_frames=config["n_frames"],
            depth_range=(config["depth_min"], config["depth_max"]),
            intrinsics=_intrinsics(config),
        )
    if not config["poses"] or not config["points"]:
        raise UsageError("need --synthetic or both --poses and --points")
    with open(config["poses"]) as pf, open(config["points"]) as xf:
        return scene_from_files(parse_pose_list(pf), xf, _intrinsics(config))


def _add_hyper_args(p):
    d = LossHyperParams()
    p.add_argument("--beta", type=float, default=d.beta)
    p.add_argument("--clip", type=float, default=d.reproj_clip,
                   help="geometric-loss reprojection clip in px")
    p.add_argument("--quat-reg", type=float, default=d.quat_reg_weight)
    p.add_argument("--s-t", type=float, default=d.s_t)
    p.add_argument("--s-q", type=float, default=d.s_q)


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
    lo, hi = config["lo"], config["hi"]
    if kind == "homography_global":
        return global_slab(scene, lo=lo, hi=hi)
    if kind == "homography_local":
        return local_slabs(scene, lo=lo, hi=hi)
    return None


def _parse_range(text):
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError as e:
        raise UsageError(f"bad range {text!r}, expected lo:hi") from e
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"range {text!r} must have finite ends")
    if not math.isfinite(hi - lo):  # np.linspace's step would overflow
        raise InvalidInputError(f"range {text!r} must have a finite span")
    return lo, hi


def _pct_rows(est, gt):
    """(pct_<t>m_<r>deg, fraction within) per outdoor and indoor pair."""
    pairs = OUTDOOR_THRESHOLDS + INDOOR_THRESHOLDS
    return [(f"pct_{t:g}m_{r:g}deg", frac) for (t, r), frac
            in zip(pairs, pct_within(est, gt, pairs))]


# -- commands --------------------------------------------------------------
# Each run_<cmd>(config) computes and writes nothing: it returns its files
# (name -> (header, rows) of a CSV, or text), its stdout lines and the
# failure that main raises after _emit has written them, or None.

def run_landscape(config):
    axis2 = config["axis2"]
    if bool(axis2) != bool(config["range2"]):
        raise UsageError("--axis2 and --range2 go together")
    if axis2 == config["axis"]:
        raise UsageError(f"--axis2 must differ from --axis, both are {axis2}")
    scene = _build_scene(config)
    i, F = config["frame"], len(scene.ids)
    if not 0 <= i < F:
        raise InvalidInputError(f"--frame {i} is out of range for a scene of "
                                f"{F} frames (0 to {F - 1})")
    lo, hi = _parse_range(config["range"])
    # a negative step count reaches landscape_sweep's check as no steps
    offsets = np.linspace(lo, hi, max(config["steps"], 0))
    kinds = []
    for name in config["losses"].split(","):
        kind = _resolve_loss(name)
        if kind in kinds:
            raise UsageError(f"loss {kind!r} is named twice in --losses")
        kinds.append(kind)
    offsets2 = None
    if axis2:
        lo2, hi2 = _parse_range(config["range2"])
        offsets2 = np.linspace(lo2, hi2, max(config["steps2"], 0))
    # Each cell's offsets as _write_csv formats a float, formatted once per
    # axis; the cells in the order of landscape_sweep's values.
    cells = ["%.17g," % v for v in offsets.tolist()]
    if axis2:
        labels2 = ["%.17g," % v for v in offsets2.tolist()]
        cells = [a + b for a in cells for b in labels2]
    header = "offset,offset2,loss_value" if axis2 else "offset,loss_value"
    files = {}
    for kind in kinds:
        ctx = frame_context(scene, i, kind, _hyper(config),
                            _depth_slab(scene, kind, config))
        values, errors = landscape_sweep(kind, ctx, config["axis"], offsets,
                                         axis2, offsets2)
        if errors:
            print(f"landscape {kind}: {len(errors)} of {len(values)} cells "
                  f"are NaN: {errors[0]}", file=sys.stderr)
        files[f"landscape_{kind}.csv"] = header + "\n" + "".join([
            "%s%.17g\n" % cell for cell in zip(cells, values)])
    return files, [f"wrote {len(kinds)} landscape CSV(s) to "
                   f"{config['out']}"], None


def run_gradcheck(config):
    if config["samples"] < 1:
        raise UsageError(
            f"--samples must be at least 1, got {config['samples']}")
    tol = config["tolerance"]
    if tol < 0:  # no sample can meet it; 0 demands exact agreement
        raise InvalidInputError(f"--tolerance must be >= 0, got {tol:g}")
    scene = _build_scene(config)
    kind = _resolve_loss(config["loss"])
    rng = np.random.default_rng(config["seed"])
    rows = []
    for s in range(config["samples"]):
        i = int(rng.integers(len(scene.ids)))
        est = perturb_pose(scene.gt[i], rng,
                           config["perturb_t"], config["perturb_deg"])
        ctx = frame_context(scene, i, kind, _hyper(config),
                            _depth_slab(scene, kind, config))
        params = diffgrad.params_for(kind, est, ctx)
        try:  # a frame fails at its first evaluation, named as in optimize
            val, _ = diffgrad.evaluate_with_grad(kind, params, ctx)
        except InvalidInputError as e:
            raise InvalidInputError(f"frame {scene.ids[i]}: {e}") from e
        err = diffgrad.grad_report(kind, params, ctx, step=config["step"])
        rows.append((s, val, err))
    errs = np.array([err for _, _, err in rows])
    worst = errs.max()  # NaN if any error is, and a NaN is above tolerance
    n_fail = int(np.sum(~(errs <= tol)))
    failure = ToleranceFailure(f"{n_fail} gradient samples exceed "
                               f"tolerance {tol:g}") if n_fail else None
    return ({"gradcheck.csv": ("sample,loss_value,max_rel_err", rows)},
            [f"gradcheck {kind}: {len(rows)} samples, worst max_rel_err "
             f"{worst:.3e}, {n_fail} above tolerance {tol:g}"], failure)


def run_optimize(config):
    scene = _build_scene(config)
    kind = _resolve_loss(config["loss"])
    rng = np.random.default_rng(config["seed"])
    init = offset_rows(scene.gt, "roty", [config["adversarial_roty"]]) \
        if config["adversarial_roty"] else scene.gt
    init = [perturb_pose(row, rng, config["perturb_t"], config["perturb_deg"])
            for row in init]
    cfg = OptimConfig(
        loss_kind=kind,
        lr=config["lr"],
        adam_eps=config["adam_eps"],
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        seed=config["seed"],
        hyper=_hyper(config),
        slab=_depth_slab(scene, kind, config),
        warmstart_epochs=config["warmstart"],
    )
    record = optim.optimize_poses(scene, init, cfg)
    final = record.final_params
    final[:, 3:] = quat_normalize(final[:, 3:])
    mrd = mean_reproj_distance(final, scene)
    pct = _pct_rows(final, scene.gt)
    cols = ["epoch", "mean_loss", "train_mrd_px"]
    cols += ["s_t", "s_q"] if kind == "homoscedastic" else []  # epoch start
    poses = io.StringIO()
    write_pose_list(poses, zip(scene.ids, final))
    files = {"run.csv": (",".join(cols), [
        (e.epoch, e.mean_loss, e.train_mrd, e.s_t, e.s_q)[:len(cols)]
        for e in record.epochs]), "final_poses.txt": poses.getvalue()}
    if record.errors:
        files["errors.txt"] = "".join(e + "\n" for e in record.errors)
    parts = [f"loss={kind}", f"final_train_mrd_px={mrd:.6g}"]
    parts += [f"{name}={100 * frac:.1f}%" for name, frac in pct]
    if not record.aborted:
        return files, [" ".join(parts)], None
    return files, [" ".join(parts + ["aborted=true"])], InvalidInputError(
        f"run aborted, see {config['out']}/errors.txt")


def run_slabs(config):
    scene = _build_scene(config)
    slab = _depth_slab(scene, f"homography_{config['mode']}", config)
    slabs = slab.per_frame or {"global": slab.single}
    for name, sp in slabs.items():  # the table is the output: no row missing
        if isinstance(sp, scene_mod.DegenerateDepthError):
            raise scene_mod.DegenerateDepthError(f"frame {name}: {sp}")
    rows = [(name, sp.x_min, sp.x_max) for name, sp in slabs.items()]
    files = {"slabs.csv": ("frame_id,x_min,x_max", rows)}
    if config["hist"]:
        parent = os.path.abspath(config["out"])  # nearest existing ancestor
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        name_max = os.pathconf(parent, "PC_NAME_MAX")
        values, n = scene.positive_depths
        for fid, depths in zip(scene.ids,
                               np.split(values, np.cumsum(n)[:-1])):
            name = f"hist_{fid}.csv"
            if {"/", os.sep, "\0"} & set(fid) or \
                    len(os.fsencode(name)) > name_max:
                raise InvalidInputError(
                    f"frame id {fid!r} cannot be part of a --hist file "
                    f"name (no '/' or NUL, at most {name_max} bytes)")
            files[name] = ("depth,cumulative_count",
                           [(d, i) for i, d in enumerate(depths, 1)])
    return files, [f"wrote slab table ({len(rows)} row(s)) to "
                   f"{config['out']}"], None


def run_eval(config):
    with open(config["gt_poses"]) as f:
        gt = parse_pose_list(f)
    with open(config["est_poses"]) as f:
        est = parse_pose_list(f)
    gt_map, est_map = dict(gt), dict(est)
    common = [name for name, _ in gt if name in est_map]
    if not common:
        raise ParseError("no common frame ids between gt and estimate files")
    est_rows = np.array([est_map[n] for n in common])
    lines = []
    if config["points"]:
        with open(config["points"]) as f:
            scene = scene_from_files(gt, f, _intrinsics(config), est_map)
        mrd = mean_reproj_distance(est_rows, scene, clip=config["eval_clip"])
        lines.append(("mean_reproj_distance_px", mrd))
    lines += _pct_rows(est_rows, np.array([gt_map[n] for n in common]))
    return ({"eval.csv": ("metric,value", lines)},
            [f"{name}={v:.6g}" for name, v in lines], None)


COMMANDS = {
    "landscape": run_landscape,
    "gradcheck": run_gradcheck,
    "optimize": run_optimize,
    "slabs": run_slabs,
    "eval": run_eval,
}


@functools.cache
def build_parser():
    """The one parser of the process, built on first use: parse_args keeps
    no state in it between calls."""
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

    p = sub.add_parser("gradcheck", help="analytic vs finite-diff gradients")
    _add_scene_args(p)
    _add_hyper_args(p)
    p.add_argument("--loss", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--perturb-t", type=float, default=0.3)
    p.add_argument("--perturb-deg", type=float, default=10.0)
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
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("slabs", help="depth-percentile slab table")
    _add_scene_args(p)
    p.add_argument("--mode", choices=("local", "global"), default="local")
    p.add_argument("--hist", action="store_true",
                   help="also write per-frame cumulative depth histograms")

    p = sub.add_parser("eval", help="metrics on provided pose files")
    p.add_argument("--gt-poses", required=True)
    p.add_argument("--est-poses", required=True)
    p.add_argument("--points", default=None)
    p.add_argument("--eval-clip", type=float, default=optim.EVAL_REPROJ_CLIP)
    _add_intrinsics_args(p)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    parser.commands = sub.choices
    return parser


def _read_manifest(parser, path):
    """(command, config) of a manifest whose config holds a valid value of
    every option of its command and whose input files kept their sha256."""
    with open(path) as f:
        manifest = json.load(f)
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if command not in COMMANDS:
        raise InvalidInputError(f"manifest {path}: command {command!r} is "
                                f"not one of {', '.join(COMMANDS)}")
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise InvalidInputError(f"manifest {path}: config is not an object")
    options = [a for a in parser.commands[command]._actions
               if a.dest != "help"]
    missing = [a.dest for a in options if a.dest not in config]
    if missing:
        raise InvalidInputError(f"manifest {path}: {command} config lacks "
                                f"{', '.join(missing)}")
    unknown = [k for k, v in config.items() if v is not None
               and k not in {a.dest for a in options}]
    if unknown:  # a setting replay would drop may only be null
        raise InvalidInputError(f"manifest {path}: {command} has no option "
                                f"{unknown[0]!r}, so it must be null")
    for a in options:  # null only where an optional option defaults to it
        value = config[a.dest]
        types = (bool,) if a.nargs == 0 else \
            {float: (int, float), int: (int,)}.get(a.type, (str,))
        if value is None and a.default is None and not a.required or \
                type(value) in types and value in (a.choices or [value]) \
                and "\0" not in str(value):
            continue
        raise InvalidInputError(f"manifest {path}: {value!r} is not a valid "
                                f"{a.option_strings[0]} value")
    recorded = manifest.get("inputs")
    for key, digest in _input_hashes(config).items():
        if not isinstance(recorded, dict) or recorded.get(key) != digest:
            raise InvalidInputError(f"manifest {path}: input {config[key]} "
                                    f"does not match its recorded sha256")
    return command, config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for key, value in vars(args).items():  # open() raises on a NUL
            if isinstance(value, str) and "\0" in value:
                raise InvalidInputError(f"--{key.replace('_', '-')} must "
                                        f"not hold a NUL character")
        if args.from_manifest:
            command, config = _read_manifest(parser, args.from_manifest)
        else:
            if not args.command:
                raise UsageError("a subcommand is required")
            command = args.command
            config = {k: v for k, v in vars(args).items()
                      if k not in ("command", "from_manifest")}
        for key, value in config.items():  # inf stays: --clip inf, no clip
            option = "--" + key.replace("_", "-")
            if isinstance(value, float) and np.isnan(value):
                raise InvalidInputError(f"{option} must not be nan")
            if key.endswith("seed") and value < 0:
                raise InvalidInputError(f"{option} must be >= 0, got {value}")
        files, lines, failure = COMMANDS[command](config)
        _emit(config["out"], command, config, files)
        for line in lines:
            print(line)
        if failure:
            raise failure
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (InvalidInputError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as e:  # an input that is not UTF-8 text
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ToleranceFailure as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
