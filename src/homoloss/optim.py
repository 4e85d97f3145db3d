"""Direct gradient-based refinement of per-frame pose parameters under any
registered loss, with the evaluation metrics used to compare losses."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffgrad
from .diffgrad import HOMOGRAPHY_KINDS, param_count
from .geometry import (
    DEPTH_EPS,
    InvalidInputError,
    pose_row,
    project_points,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_rotmat,
)
from .losses import LossContext, LossHyperParams
from .scene import DepthSlab, Scene

EVAL_REPROJ_CLIP = 1000.0  # px, outlier clip of the evaluation metric
ZERO_Q = "frame {}: zero-norm quaternion"
DIVERGED = "frame {}: a parameter is not finite or |q|^2 overflows"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999

# Threshold pairs (meters, degrees) for the localization-percentage metric.
OUTDOOR_THRESHOLDS = ((2.0, 2.0), (3.0, 5.0))
INDOOR_THRESHOLDS = ((0.25, 10.0), (0.5, 15.0))


@dataclass
class OptimConfig:
    loss_kind: str
    lr: float = 1e-4
    adam_eps: float = None  # None: 1e-14 for the homography losses (their
    # ~1e-4 values make the usual 1e-8 distort the steps), 1e-8 otherwise
    epochs: int = 5000
    batch_size: int = 64
    seed: int = 0
    hyper: LossHyperParams = field(default_factory=LossHyperParams)
    slab: DepthSlab = None           # required for homography kinds
    warmstart_epochs: int = 0        # homoscedastic pre-phase (geometric runs)

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise InvalidInputError("lr must be positive and finite")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if min(self.epochs, self.warmstart_epochs) < 0:
            raise InvalidInputError("epochs and warmstart_epochs must be >= 0")
        if self.adam_eps is None:
            self.adam_eps = 1e-14 if self.loss_kind in HOMOGRAPHY_KINDS \
                else 1e-8
        if not 0 <= self.adam_eps < math.inf:
            raise InvalidInputError("adam_eps must be >= 0 and finite")


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
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads**2
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
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
    epochs: list
    final_params: np.ndarray  # (F, 7) rows (t, q), in scene frame order
    errors: list = field(default_factory=list)
    aborted: bool = False


# -- evaluation metrics ----------------------------------------------------

def mean_reproj_distance(est_poses, scene: Scene,
                         clip: float = EVAL_REPROJ_CLIP) -> float:
    """Mean over frames of the mean clipped L2 pixel distance between gt and
    estimated projections of the frame's visible points. est_poses holds one
    estimate per scene frame, in order: (F, 7) pose rows (t, q), or
    (frame id, row) pairs, which only perfbench/layers.py passes; they go
    with ROADMAP item 1. Projections to infinity count as the clip, which must
    be positive. Frames without visible points are skipped;
    InvalidInputError when no frame has one, or naming the first with one
    whose estimate q has zero norm; the scene has checked every gt pixel.
    One projection and one np.add.reduce, np.mean's sum, per visible-count
    bucket of scene.stacked, which give each frame the bits of its own."""
    if not clip > 0:
        raise InvalidInputError(f"reprojection clip must be positive, got "
                                f"{clip}")
    if not isinstance(est_poses, np.ndarray):
        if tuple(fid for fid, _ in est_poses) != scene.ids:
            raise InvalidInputError("need one estimate per scene frame, in "
                                    "order")
        est_poses = np.array([p for _, p in est_poses]).reshape(-1, 7)
    if est_poses.shape != scene.gt.shape:
        raise InvalidInputError(f"need {scene.gt.shape} parameter "
                                f"rows, got shape {est_poses.shape}")
    view = scene.stacked
    seen = view.counts > 0
    t, q = est_poses[:, :3], est_poses[:, 3:]
    zero_q = ~np.any(q * q, axis=1)  # |q|^2 == 0 in rotmat_elems
    for i in np.flatnonzero(seen & zero_q)[:1]:
        raise InvalidInputError(ZERO_Q.format(scene.ids[i]))
    if not seen.any():
        raise InvalidInputError(
            "mean reprojection distance needs a frame with visible points"
        )
    means = np.zeros(len(seen))
    for rows, points, gt_uv in view.buckets:
        uv, z = project_points(t[rows], quat_to_rotmat(q[rows]),
                               scene.intrinsics, points)
        duv = uv - gt_uv
        dist = np.minimum(clip, np.hypot(duv[:, 0], duv[:, 1]))
        means[rows] = np.add.reduce(np.where(np.abs(z) >= DEPTH_EPS, dist,
                                             clip), axis=1) / z.shape[1]
    return float(np.add.reduce(means[seen]) / np.count_nonzero(seen))


def pct_within(est, gt, thresholds) -> list:
    """Per (t_thresh, r_thresh) pair of thresholds, the fraction of (n, 7)
    parameter rows (t, q) est, n >= 1, with translation error <= t_thresh (m)
    and rotation error <= r_thresh (deg) from gt's rows. Exactly-at-threshold
    counts as within. The errors are computed once, over the rows."""
    if est.shape != gt.shape or est.shape[1:] != (7,) or not len(est):
        raise InvalidInputError(f"need one estimate row per gt row, (n, 7) "
                                f"with n >= 1: {est.shape} vs {gt.shape}")
    d = est[:, :3] - gt[:, :3]
    dt = np.sqrt(np.vecdot(d, d))  # per row the ddot of np.linalg.norm
    dots = np.vecdot(quat_normalize(est[:, 3:]), quat_normalize(gt[:, 3:]))
    # math.acos per frame: np.arccos is not bit-equal to it; min keeps a NaN
    dr = np.array([2.0 * math.acos(min(abs(x), 1.0)) * 180.0 / math.pi
                   for x in dots.tolist()])
    return [np.count_nonzero((dt <= t) & (dr <= r)) / len(dt)
            for t, r in thresholds]


# -- pose perturbation and sweeps ------------------------------------------

SWEEP_AXES = ("tx", "ty", "tz", "rotx", "roty", "rotz")


def offset_rows(rows, axis: str, offsets) -> np.ndarray:
    """(k, n) parameter rows (t, q first, as pose rows and params_for lay
    them out), each perturbed along one sweep axis by every offset in turn:
    (k * len(offsets), n) rows. Translations are in meters, rotations in
    degrees about the camera's own axis, each computed once per offset."""
    if axis not in SWEEP_AXES:
        raise InvalidInputError(f"unknown sweep axis {axis!r}")
    i = SWEEP_AXES.index(axis)
    k, m = len(rows), len(offsets)
    out = np.repeat(rows, m, axis=0)
    if i < 3:
        out[:, i] += np.tile(offsets, k)
    else:
        e = np.eye(3)[i - 3]
        dq = np.array([quat_from_axis_angle(e, math.radians(off))
                       for off in offsets]).reshape(m, 4)
        out[:, 3:7] = quat_multiply(out[:, 3:7].T, np.tile(dq.T, k)).T
    return out


def perturb_pose(pose, rng, max_t: float, max_deg: float) -> np.ndarray:
    """Random perturbation of a pose row: translation within a ball of
    radius max_t, and a rotation of at most max_deg about a random axis."""
    pose = pose_row(pose)
    if not (0 <= max_t < math.inf and 0 <= max_deg < math.inf):
        raise InvalidInputError(f"perturbation bounds must be >= 0 and "
                                f"finite, got {max_t} m and {max_deg} deg")
    # t + (d / |d|) u and q dq in floats, each entry rounded as by arrays
    direction = rng.normal(size=3)
    n = float(np.linalg.norm(direction))
    # abs: a bound of -0.0 draws as 0.0 does, with the same random draws
    u = rng.uniform(0.0, abs(max_t))
    dq = quat_from_axis_angle(rng.normal(size=3),
                              math.radians(rng.uniform(0.0, abs(max_deg))))
    (d0, d1, d2), (t0, t1, t2, *q) = direction.tolist(), pose.tolist()
    return np.array([t0 + d0 / n * u, t1 + d1 / n * u, t2 + d2 / n * u,
                     *quat_multiply(q, dq.tolist())])


def landscape_sweep(kind: str, ctx: LossContext, axis: str, offsets,
                    axis2: str = None, offsets2=None, errors: list = None):
    """Values of one loss kind over a 1-D or 2-D grid of pose offsets
    around ctx.gt, at least 2 per axis.

    Returns the rows (offset[, offset2], value); a cell whose evaluation
    raises InvalidInputError records a NaN value, and its message is
    appended to errors when a list is given; any other exception
    propagates. Every offset must be finite.
    """
    offsets = np.asarray(offsets, dtype=float)
    if axis2 is not None:
        offsets2 = np.asarray(offsets2, dtype=float)
    if len(offsets) < 2 or (axis2 is not None and len(offsets2) < 2):
        raise InvalidInputError("need at least 2 sweep steps per axis")
    every = np.concatenate([offsets, [] if axis2 is None else offsets2])
    for off in every[~np.isfinite(every)][:1]:
        raise InvalidInputError(f"sweep offsets must be finite, got {off}")
    offs = offsets.tolist()  # floats, once per axis, shared by every row
    grid = offset_rows(diffgrad.params_for(kind, ctx.gt, ctx)[None], axis,
                       offs)
    cells = zip(offs)
    if axis2 is not None:
        offs2 = offsets2.tolist()
        grid = offset_rows(grid, axis2, offs2)
        cells = itertools.product(offs, offs2)
    return [(*cell, _safe_value(kind, est, ctx, errors))
            for cell, est in zip(cells, grid)]


def _safe_value(kind, est, ctx: LossContext, errors) -> float:
    try:
        return diffgrad.loss_value(kind, est, ctx)
    except InvalidInputError as e:
        if errors is not None:
            errors.append(str(e))
        return float("nan")


# -- the optimization loop -------------------------------------------------

def frame_context(scene: Scene, i: int, kind: str, hyper: LossHyperParams,
                  slab: DepthSlab = None) -> LossContext:
    """The LossContext of the scene's frame in row i; the homography kinds
    take their bounds for the frame from slab."""
    frame_slab = None
    if kind in HOMOGRAPHY_KINDS:
        if slab is None:
            raise InvalidInputError(f"{kind} requires slab parameters")
        frame_slab = slab.for_frame(scene.ids[i])
    return LossContext(gt=scene.gt[i], hyper=hyper,
                       points=scene.points[scene.visible[i]],
                       intrinsics=scene.intrinsics, slab=frame_slab)


def _epoch_batches(order, batch_size):
    """Batches of frame indices; the last smaller batch is dropped when more
    than one batch exists."""
    batches = [list(order[i:i + batch_size])
               for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) < batch_size:
        batches.pop()
    return batches


def optimize_poses(scene: Scene, init_poses, config: OptimConfig) -> RunRecord:
    """Refine one 7-parameter pose per frame (plus global s_t, s_q for the
    homoscedastic loss) with mini-batched Adam.

    init_poses: (F, 7) pose rows, one per scene frame, in frame order.
    Deterministic given the config seed. Frames whose loss evaluation fails
    with InvalidInputError in a step are skipped (any other exception
    propagates) and logged once per frame and message, with the first epoch
    and the number of steps skipped; the run aborts if more than half the
    frames error within one epoch, or, with the parameters of that epoch's
    start, if after its last step a frame reads a parameter that is not
    finite or has a |q|^2 that overflows. A warm start's error lines come
    first, marked as such, and its abort ends the run with the warm-start
    poses. An initial pose with a zero quaternion, which the per-epoch
    metric rejects, raises before the first step and before any warm start.
    """
    ids = scene.ids
    P = np.array(init_poses, dtype=float)  # (F, 7) rows (t, q), a copy
    if P.shape != scene.gt.shape:
        raise InvalidInputError("need one initial pose per frame")
    for i in np.flatnonzero(~np.any(P[:, 3:] * P[:, 3:], axis=1))[:1]:
        raise InvalidInputError(ZERO_Q.format(ids[i]))  # as the metric
    warm_errors = []
    if config.warmstart_epochs > 0:
        warm_cfg = replace(
            config,
            loss_kind="homoscedastic",
            adam_eps=None,
            warmstart_epochs=0,
            epochs=config.warmstart_epochs,
        )
        warm = optimize_poses(scene, P, warm_cfg)
        warm_errors = [f"warm start: {e}" for e in warm.errors]
        if warm.aborted:  # no epoch of config.loss_kind ran
            return RunRecord([], warm.final_params, warm_errors, aborted=True)
        P = warm.final_params

    kind = config.loss_kind
    with_s = param_count(kind) == 9
    F = len(ids)
    params = np.concatenate(
        [P.ravel()]
        + ([[config.hyper.s_t, config.hyper.s_q]] if with_s else [])
    )
    ctxs = [frame_context(scene, i, kind, config.hyper, config.slab)
            for i in range(F)]
    state = AdamState.zeros(len(params))
    rng = np.random.default_rng(config.seed)
    record = RunRecord(epochs=[], final_params=P)
    skipped = {}  # (frame id, message) -> [first epoch, steps skipped]
    # frame i reads row P[i] of its pose and the shared s = (s_t, s_q)
    P, s = params[:7 * F].reshape(F, 7), params[7 * F:]

    for epoch in range(config.epochs):
        # s_t/s_q are reported at epoch start so the first row shows the init.
        s_start = (float(s[0]), float(s[1])) if with_s else (None, None)
        P_start = P  # adam_update makes new arrays, so this is not written
        order = rng.permutation(F)
        epoch_losses = []
        epoch_errors = 0
        for batch in _epoch_batches(order, config.batch_size):
            grads = np.zeros_like(params)
            G, Gs = grads[:7 * F].reshape(F, 7), grads[7 * F:]
            ok = 0
            batch_loss = 0.0
            for i in sorted(batch):  # fixed reduction order per batch
                try:
                    val, g = diffgrad.evaluate_with_grad(
                        kind, np.concatenate([P[i], s]) if with_s else P[i],
                        ctxs[i])
                except InvalidInputError as e:
                    key = (ids[i], str(e))
                    skipped.setdefault(key, [epoch, 0])[1] += 1
                    epoch_errors += 1
                    continue
                G[i] += g[:7]
                if with_s:
                    Gs += g[7:]
                batch_loss += val
                ok += 1
            if ok == 0:
                continue
            grads /= len(batch)  # batch-mean loss
            params, state = adam_update(params, grads, state, config)
            P, s = params[:7 * F].reshape(F, 7), params[7 * F:]
            epoch_losses.append(batch_loss / ok)
        abort = (epoch_errors > 0.5 * F
                 and f"{epoch_errors}/{F} frames errored")
        for i in _diverged(params, F)[:1]:  # back to finite rows
            abort, P = DIVERGED.format(ids[i]), P_start
        if abort:
            record.aborted = True
            record.errors.append(f"epoch {epoch}: aborted, {abort}")
            break
        record.epochs.append(EpochStats(
            epoch, float(np.mean(epoch_losses)),
            mean_reproj_distance(P, scene), *s_start))
    # the warm start's lines, then the skipped frames, before any abort line
    record.errors[:0] = warm_errors + [
        f"frame {fid}: {msg} (skipped from epoch {first}, {steps} steps)"
        for (fid, msg), (first, steps) in skipped.items()
    ]
    record.final_params = P.copy()
    return record


def _diverged(params, F) -> np.ndarray:
    """Indices of the frames that read a parameter that is not finite, in
    their row of the (F, 7) head of params or in its shared tail, or whose
    |q|^2 overflows; no numpy warning."""
    if np.abs(params).max() < 1e153:  # each |q|^2 is finite, and no NaN
        return np.zeros(0, dtype=np.intp)
    P, s = params[:7 * F].reshape(F, 7), params[7 * F:]
    with np.errstate(over="ignore"):
        q2 = np.vecdot(P[:, 3:], P[:, 3:])
    return np.flatnonzero(~(np.isfinite(P[:, :3]).all(axis=1)
                            & np.isfinite(q2) & np.isfinite(s).all()))
