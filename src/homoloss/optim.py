"""Direct gradient-based refinement of per-frame pose parameters under any
registered loss, with the evaluation metrics used to compare losses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffgrad
from .diffgrad import HOMOGRAPHY_KINDS, LossContext, param_count
from .geometry import (
    DEPTH_EPS,
    InvalidInputError,
    Pose,
    angle_between,
    project_points,
    quat_from_axis_angle,
    quat_multiply,
)
from .losses import LossHyperParams
from .scene import DepthSlab, Scene

EVAL_REPROJ_CLIP = 1000.0  # px, outlier clip of the evaluation metric

# Threshold pairs (meters, degrees) for the localization-percentage metric.
OUTDOOR_THRESHOLDS = ((2.0, 2.0), (3.0, 5.0))
INDOOR_THRESHOLDS = ((0.25, 10.0), (0.5, 15.0))


def default_adam_eps(loss_kind: str) -> float:
    """1e-14 for the homography losses (they reach ~1e-4 values where the
    default 1e-8 epsilon distorts steps), 1e-8 otherwise."""
    if loss_kind in HOMOGRAPHY_KINDS:
        return 1e-14
    return 1e-8


@dataclass
class OptimConfig:
    loss_kind: str
    lr: float = 1e-4
    adam_eps: float = None  # resolved per loss kind when None
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 5000
    batch_size: int = 64
    seed: int = 0
    hyper: LossHyperParams = field(default_factory=LossHyperParams)
    slab: DepthSlab = None           # required for homography kinds
    warmstart_epochs: int = 0        # homoscedastic pre-phase (geometric runs)

    def __post_init__(self):
        if self.lr <= 0:
            raise InvalidInputError("lr must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise InvalidInputError("Adam betas must lie in (0, 1)")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.adam_eps is None:
            self.adam_eps = default_adam_eps(self.loss_kind)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def zeros(n):
        return AdamState(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_update(params, grads, state: AdamState, config: OptimConfig):
    """One bias-corrected Adam step; returns (new params, new state)."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise InvalidInputError(
            f"dimension mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    t = state.step + 1
    m = config.adam_beta1 * state.m + (1.0 - config.adam_beta1) * grads
    v = config.adam_beta2 * state.v + (1.0 - config.adam_beta2) * grads**2
    m_hat = m / (1.0 - config.adam_beta1**t)
    v_hat = v / (1.0 - config.adam_beta2**t)
    new_params = params - config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return new_params, AdamState(m=m, v=v, step=t)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    train_mrd: float
    s_t: float = None
    s_q: float = None


@dataclass
class RunRecord:
    loss_kind: str
    epochs: list
    final_poses: list  # (frame id, Pose) pairs
    errors: list = field(default_factory=list)
    aborted: bool = False

    def write_csv(self, stream):
        with_s = self.loss_kind == "homoscedastic"
        header = "epoch,mean_loss,train_mrd_px"
        if with_s:
            header += ",s_t,s_q"
        stream.write(header + "\n")
        for e in self.epochs:
            row = (
                f"{e.epoch},{format(e.mean_loss, '.17g')},"
                f"{format(e.train_mrd, '.17g')}"
            )
            if with_s:
                row += f",{format(e.s_t, '.17g')},{format(e.s_q, '.17g')}"
            stream.write(row + "\n")


# -- evaluation metrics ----------------------------------------------------

def mean_reproj_distance(est_poses, scene: Scene,
                         clip: float = EVAL_REPROJ_CLIP) -> float:
    """Mean over frames of the mean clipped L2 pixel distance between gt and
    estimated projections of the frame's visible points. Projections to
    infinity count as the clip. Frames without visible points are skipped;
    raises InvalidInputError when no frame has one, or when a visible point
    lies at zero gt depth."""
    K = scene.intrinsics
    per_frame = []
    for (fid, est), frame in zip(est_poses, scene.frames):
        pts = scene.visible_points(frame)
        if len(pts) == 0:
            continue
        uv_gt, z_gt = project_points(frame.gt_pose, K, pts)
        if np.any(z_gt == 0.0):
            raise InvalidInputError(
                f"frame {frame.id}: a visible point lies at zero gt depth"
            )
        uv, z = project_points(est, K, pts)
        dist = np.minimum(clip, np.hypot(*(uv - uv_gt).T))
        d = np.where(np.abs(z) >= DEPTH_EPS, dist, clip)
        per_frame.append(float(np.mean(d)))
    if not per_frame:
        raise InvalidInputError(
            "mean reprojection distance needs a frame with visible points"
        )
    return float(np.mean(per_frame))


def pct_within(est_poses, gt_poses, t_thresh: float,
               r_thresh: float) -> float:
    """Fraction of frames with translation error <= t_thresh (m) and rotation
    error <= r_thresh (deg). Exactly-at-threshold counts as within."""
    if len(est_poses) != len(gt_poses):
        raise InvalidInputError(
            f"pose list length mismatch: {len(est_poses)} vs {len(gt_poses)}"
        )
    ok = 0
    for est, gt in zip(est_poses, gt_poses):
        dt = float(np.linalg.norm(est.t - gt.t))
        dr = angle_between(est.q, gt.q)
        if dt <= t_thresh and dr <= r_thresh:
            ok += 1
    return ok / len(est_poses)


# -- pose perturbation and sweeps ------------------------------------------

SWEEP_AXES = ("tx", "ty", "tz", "rotx", "roty", "rotz")


def apply_offset(gt: Pose, axis: str, offset: float) -> Pose:
    """Perturb a pose along one sweep axis. Translations are in meters,
    rotations in degrees about the camera's own axis."""
    if axis in ("tx", "ty", "tz"):
        i = ("tx", "ty", "tz").index(axis)
        t = gt.t.copy()
        t[i] += offset
        return Pose(t, gt.q.copy())
    if axis in ("rotx", "roty", "rotz"):
        unit = np.zeros(3)
        unit[("rotx", "roty", "rotz").index(axis)] = 1.0
        dq = quat_from_axis_angle(unit, math.radians(offset))
        return Pose(gt.t.copy(), quat_multiply(gt.q, dq))
    raise InvalidInputError(f"unknown sweep axis {axis!r}")


def perturb_pose(pose: Pose, rng, max_t: float, max_deg: float) -> Pose:
    """Random perturbation: translation within a ball of radius max_t, and a
    rotation of at most max_deg about a random axis."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = pose.t + direction * rng.uniform(0.0, max_t)
    axis = rng.normal(size=3)
    dq = quat_from_axis_angle(axis, math.radians(rng.uniform(0.0, max_deg)))
    return Pose(t, quat_multiply(pose.q, dq))


def landscape_sweep(gt: Pose, axis: str, offsets, loss_kinds,
                    ctx: LossContext, axis2: str = None, offsets2=None):
    """Loss values over a 1-D or 2-D grid of pose offsets around gt.

    Returns {loss_kind: list of rows}, each row (offset[, offset2], value);
    a cell whose evaluation raises InvalidInputError records a NaN value;
    any other exception propagates.
    """
    offsets = np.asarray(offsets, dtype=float)
    if len(offsets) < 2:
        raise InvalidInputError("need at least 2 sweep steps")
    grids = {}
    for kind in loss_kinds:
        rows = []
        for off in offsets:
            est1 = apply_offset(gt, axis, off)
            if axis2 is None:
                rows.append((off, _safe_value(kind, est1, ctx)))
            else:
                for off2 in np.asarray(offsets2, dtype=float):
                    est = apply_offset(est1, axis2, off2)
                    rows.append((off, off2, _safe_value(kind, est, ctx)))
        grids[kind] = rows
    return grids


def _safe_value(kind, est: Pose, ctx: LossContext) -> float:
    try:
        params = diffgrad.params_for(kind, est, ctx)
        return diffgrad.loss_value(kind, params, ctx)
    except InvalidInputError:
        return float("nan")


# -- the optimization loop -------------------------------------------------

def frame_context(scene: Scene, frame, kind: str, hyper: LossHyperParams,
                  slab: DepthSlab = None) -> LossContext:
    """The LossContext of one scene frame; the homography kinds take their
    bounds for the frame from slab."""
    frame_slab = None
    if kind in HOMOGRAPHY_KINDS:
        if slab is None:
            raise InvalidInputError(f"{kind} requires slab parameters")
        frame_slab = slab.for_frame(frame.id)
    return LossContext(
        gt=frame.gt_pose,
        hyper=hyper,
        points=scene.visible_points(frame),
        intrinsics=scene.intrinsics,
        slab=frame_slab,
    )


def _epoch_batches(order, batch_size):
    """Batches of frame indices; the last smaller batch is dropped when more
    than one batch exists."""
    n = len(order)
    if n <= batch_size:
        return [list(order)]
    batches = [list(order[i:i + batch_size])
               for i in range(0, n, batch_size)]
    if len(batches) > 1 and len(batches[-1]) < batch_size:
        batches.pop()
    return batches


def optimize_poses(scene: Scene, init_poses, config: OptimConfig) -> RunRecord:
    """Refine one 7-parameter pose per frame (plus global s_t, s_q for the
    homoscedastic loss) with mini-batched Adam.

    init_poses: list of Pose, one per scene frame, in frame order.
    Deterministic given the config seed. Frames whose loss evaluation fails
    with InvalidInputError in a step are skipped (any other exception
    propagates) and logged once per frame and message, with the first epoch
    and the number of steps skipped; the run aborts if more than half the
    frames error within one epoch.
    """
    frames = scene.frames
    if len(init_poses) != len(frames):
        raise InvalidInputError("need one initial pose per frame")
    if config.warmstart_epochs > 0:
        warm_cfg = replace(
            config,
            loss_kind="homoscedastic",
            adam_eps=default_adam_eps("homoscedastic"),
            warmstart_epochs=0,
            epochs=config.warmstart_epochs,
        )
        warm = optimize_poses(scene, init_poses, warm_cfg)
        init_poses = [pose for _, pose in warm.final_poses]

    kind = config.loss_kind
    with_s = param_count(kind) == 9
    F = len(frames)
    params = np.concatenate(
        [p.params() for p in init_poses]
        + ([[config.hyper.s_t, config.hyper.s_q]] if with_s else [])
    )
    n_params = len(params)
    ctxs = [frame_context(scene, f, kind, config.hyper, config.slab)
            for f in frames]
    state = AdamState.zeros(n_params)
    rng = np.random.default_rng(config.seed)
    record = RunRecord(loss_kind=kind, epochs=[], final_poses=[])
    skipped = {}  # (frame id, message) -> [first epoch, steps skipped]

    def frame_params(i):
        p = params[7 * i:7 * i + 7]
        if with_s:
            return np.concatenate([p, params[7 * F:]])
        return p

    def current_poses():
        return [
            (frames[i].id, Pose.from_params(params[7 * i:7 * i + 7]))
            for i in range(F)
        ]

    for epoch in range(config.epochs):
        # s_t/s_q are reported at epoch start so the first row shows the init.
        s_start = (float(params[7 * F]), float(params[7 * F + 1])) \
            if with_s else (None, None)
        order = rng.permutation(F)
        epoch_losses = []
        epoch_errors = 0
        for batch in _epoch_batches(order, config.batch_size):
            grads = np.zeros(n_params)
            ok = 0
            batch_loss = 0.0
            for i in sorted(batch):  # fixed reduction order per batch
                try:
                    val, g = diffgrad.evaluate_with_grad(
                        kind, frame_params(i), ctxs[i]
                    )
                except InvalidInputError as e:
                    key = (frames[i].id, str(e))
                    skipped.setdefault(key, [epoch, 0])[1] += 1
                    epoch_errors += 1
                    continue
                grads[7 * i:7 * i + 7] += g[:7]
                if with_s:
                    grads[7 * F:] += g[7:]
                batch_loss += val
                ok += 1
            if ok == 0:
                continue
            grads /= len(batch)  # batch-mean loss
            params, state = adam_update(params, grads, state, config)
            epoch_losses.append(batch_loss / ok)
        if epoch_errors > 0.5 * F:
            record.aborted = True
            record.errors.append(
                f"epoch {epoch}: aborted, {epoch_errors}/{F} frames errored"
            )
            break
        mrd = mean_reproj_distance(current_poses(), scene)
        stats = EpochStats(
            epoch=epoch,
            mean_loss=float(np.mean(epoch_losses)) if epoch_losses
            else float("nan"),
            train_mrd=mrd,
        )
        if with_s:
            stats.s_t, stats.s_q = s_start
        record.epochs.append(stats)
    record.errors[:0] = [  # the skipped frames, before any abort line
        f"frame {fid}: {msg} (skipped from epoch {first}, {steps} steps)"
        for (fid, msg), (first, steps) in skipped.items()
    ]
    record.final_poses = current_poses()
    return record
