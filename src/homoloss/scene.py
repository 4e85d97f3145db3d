"""Scene representation, text ingestion, synthetic scene generation, and the
depth-percentile slab parameterization (local and global variants).

A Scene validates its points and frames once, into read-only columns, ids,
gt and visible, which the library reads by row index, and its stacked gt
view; a Frame checks nothing.

File formats (plain text, UTF-8, whitespace separated, '#' comments):
    poses:   name tx ty tz qw qx qy qz      (meters, unit quaternion)
    points:  P x y z                        (world point, meters)
             V frame_id idx idx ...         (visibility set of a posed frame)
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (
    InvalidInputError,
    Intrinsics,
    _point_rows,
    pose_row,
    project_points,
    quat_canonical,
    quat_multiply,
    quat_to_rotmat,
    rotmat_to_quat,
)
from .losses import SlabParams

DEFAULT_PERCENTILE_LO = 0.025
DEFAULT_PERCENTILE_HI = 0.975
BEYOND_INT64 = "frame {}: visibility index beyond int64"


class ParseError(InvalidInputError):
    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line else message)


class GenerationError(InvalidInputError):
    pass


class DegenerateDepthError(InvalidInputError):
    pass


@dataclass(frozen=True, eq=False)  # numpy fields: identity equality
class Frame:
    id: str
    gt_pose: np.ndarray  # (7,) pose row (t, q)
    visible: np.ndarray  # indices into the scene points


@dataclass(frozen=True, eq=False)  # numpy fields: identity equality
class Scene:
    points: np.ndarray  # (N, 3) world points, meters
    frames: tuple       # a Frame view of each row of the columns below
    intrinsics: Intrinsics
    ids: tuple = field(init=False)      # the frame ids, each once
    gt: np.ndarray = field(init=False)  # (F, 7) gt pose rows, read-only
    visible: tuple = field(init=False)  # per frame, read-only int64 indices
    stacked: StackedFrames = field(init=False, repr=False)  # see _stack
    _slabs: dict = field(init=False, default_factory=dict)  # slab bounds

    def __post_init__(self):
        points = _point_rows(self.points)
        frames = tuple(self.frames)
        if len(frames) < 1:
            raise InvalidInputError("scene needs at least one frame")
        ids = tuple(f.id for f in frames)
        for fid in [k for k, n in Counter(ids).items() if n > 1][:1]:
            raise InvalidInputError(f"frame id {fid!r} is repeated")
        gt = np.array([pose_row(f.gt_pose) for f in frames])
        q = np.ascontiguousarray(gt[:, 3:])  # quat_normalize's rule per row
        with np.errstate(over="ignore"):
            qq = np.vecdot(q, q)
        ok = np.isfinite(gt[:, :3]).all(axis=1) & (0 < qq) & (qq < math.inf)
        for i in np.flatnonzero(~ok)[:1]:
            raise InvalidInputError(f"frame {ids[i]}: gt pose has a "
                                    f"non-finite entry or a quaternion whose "
                                    f"norm is zero or overflows")
        visible = tuple(map(_indices, ids, (f.visible for f in frames)))
        gt.flags.writeable = False
        idx = np.concatenate(visible)
        for k in np.flatnonzero((idx < 0) | (idx >= len(points)))[:1]:
            i = np.searchsorted(np.cumsum(list(map(len, visible))), k, "right")
            raise InvalidInputError(f"frame {ids[i]}: visibility index "
                                    f"{idx[k]} out of range")
        for name, value in [("points", points), ("ids", ids), ("gt", gt),
                            ("visible", visible),
                            ("frames", tuple(map(Frame, ids, gt, visible)))]:
            object.__setattr__(self, name, value)
        object.__setattr__(self, "stacked", self._stack())

    def visible_points(self, frame: Frame) -> np.ndarray:
        return self.points[frame.visible]

    def _stack(self) -> StackedFrames:
        """The frames grouped by visible count, unpadded: per count n > 0 a
        Bucket of the frames' indices rows (k,), their points (k, 3, n) as
        x, y and z rows and gt projections gt_uv (k, 2, n), u and v rows; per
        frame, counts (F,) and depths, its (n,) gt depths.
        Each product has one frame's shape, so its bits are those of the frame
        alone. Built with the scene, whose first frame with a visible point
        without a finite gt pixel, as at zero gt depth, is an
        InvalidInputError; the arrays are read-only."""
        counts = np.array([len(v) for v in self.visible])
        t, q = self.gt[:, :3], self.gt[:, 3:]
        no_pixel = np.zeros(len(counts), dtype=bool)
        depths = [np.zeros(0)] * len(counts)
        buckets = []
        for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            rows = np.flatnonzero(counts == n)
            gathered = self.points[np.stack([self.visible[i] for i in rows])]
            points = gathered.transpose(0, 2, 1).copy()
            R = quat_to_rotmat(q[rows])
            gt_uv, _ = project_points(t[rows], R, self.intrinsics, points)
            no_pixel[rows] = ~np.isfinite(gt_uv).all(axis=(1, 2))
            # not z: the depths keep the bits of (n, 3) @ R[:, 2]
            d = ((gathered - t[rows, None, :]) @ R[:, :, 2:3])[..., 0]
            for i, row in zip(rows.tolist(), d):
                depths[i] = row
            buckets.append(Bucket(rows, points, gt_uv))
        for i in np.flatnonzero(no_pixel)[:1]:
            raise InvalidInputError(f"frame {self.ids[i]}: a visible point "
                                    f"lies at zero gt depth or has a "
                                    f"non-finite gt pixel")
        for a in (counts, *depths, *(x for b in buckets for x in b)):
            a.flags.writeable = False
        return StackedFrames(counts, tuple(depths), tuple(buckets))

    @cached_property
    def positive_depths(self):
        """_sorted_positive of the stacked depths, the input of local_slabs
        and of the `slabs --hist` tables. Built on its first use, so a run
        without them never sorts; the arrays are read-only."""
        positive = _sorted_positive(self.stacked.depths)
        for a in positive:
            a.flags.writeable = False
        return positive


def _indices(fid, visible) -> np.ndarray:
    """A frame's visibility as read-only int64 indices, of a 1-D sequence of
    integers (not bools), empty included; InvalidInputError naming the
    frame otherwise, for an index beyond int64 too."""
    try:
        given, idx = np.asarray(visible), np.array(visible, np.int64)
    except OverflowError as e:  # a Python int
        raise InvalidInputError(BEYOND_INT64.format(fid)) from e
    except (TypeError, ValueError):  # None, a ragged nesting, a string
        idx = None
    if idx is None or idx.ndim != 1 or len(idx) and \
            given.dtype.kind not in "iu":
        raise InvalidInputError(f"frame {fid}: visibility needs a 1-D "
                                f"sequence of integer indices")
    if given.dtype.kind == "u" and np.any(idx < 0):  # a uint64 wrapped
        raise InvalidInputError(BEYOND_INT64.format(fid))
    idx.flags.writeable = False
    return idx


StackedFrames = namedtuple("StackedFrames", "counts depths buckets")
Bucket = namedtuple("Bucket", "rows points gt_uv")


@dataclass(frozen=True, eq=False)  # dict field: identity equality and hash
class DepthSlab:
    """Per-frame (local, per_frame set) or shared (global) slab bounds."""

    per_frame: dict = None      # frame id -> SlabParams or error, local
    single: SlabParams = None   # shared bounds, global

    def for_frame(self, frame_id: str) -> SlabParams:
        if self.per_frame is not None:
            return self.per_frame[frame_id]
        return self.single


# -- depths and percentiles ------------------------------------------------

def _sorted_positive(groups):
    """(values, n): the positive depths of each group, sorted within it, one
    group after the other, and the count n of them per group."""
    flat = np.concatenate([np.zeros(0), *groups])
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    flat, group = flat[flat > 0], group[flat > 0]
    return (flat[np.lexsort((flat, group))],
            np.bincount(group, minlength=len(groups)))


def _group_percentiles(positive, lo, hi):
    """Per group of _sorted_positive's (values, n), in one numpy pass: the
    count n and the lo and hi quantiles, bit for bit those of np.quantile(...,
    method="linear") of the group's positive depths; NaN for fewer than 2."""
    flat, n = positive
    ok = n >= 2
    m, start = n[ok], (np.cumsum(n) - n)[ok]
    virtual = (m - 1) * np.array([[lo], [hi]])  # at most m - 1 as p <= 1
    i = np.floor(virtual)
    a = flat[start + i.astype(np.intp)]
    b = flat[start + np.minimum(i + 1, m - 1).astype(np.intp)]
    g = virtual - i
    bounds = np.full((2, len(n)), np.nan)
    # numpy's _lerp, which interpolates from the nearer end
    bounds[:, ok] = np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)
    return n, bounds


def _slab_params(positive, lo, hi):
    """Per group of _sorted_positive's (values, n): its SlabParams, or a
    DegenerateDepthError at fewer than 2 positive depths or x_min >= x_max."""
    if not 0.0 <= lo < hi <= 1.0:
        raise InvalidInputError("need 0 <= lo < hi <= 1")
    n, (x_min, x_max) = _group_percentiles(positive, lo, hi)
    return [SlabParams(x_min=a, x_max=b) if a < b else DegenerateDepthError(
        f"needs at least 2 positive-depth points, got {k}" if k < 2 else
        f"degenerate depth distribution, x_min={a} >= x_max={b}")
        for k, a, b in zip(n.tolist(), x_min.tolist(), x_max.tolist())]


def local_slabs(scene: Scene, lo: float = DEFAULT_PERCENTILE_LO,
                hi: float = DEFAULT_PERCENTILE_HI) -> DepthSlab:
    """Per-frame slab bounds from each frame's own depth distribution, or
    the frame's DegenerateDepthError, which a loss raises for it alone;
    computed once per scene and (lo, hi); each call gets its own dict."""
    key = ("local", lo, hi)  # lo = 0.0 and -0.0 give the same bounds
    if key not in scene._slabs:  # a call that raises caches nothing
        scene._slabs[key] = dict(zip(scene.ids, _slab_params(
            scene.positive_depths, lo, hi)))
    return DepthSlab(per_frame=dict(scene._slabs[key]))


def global_slab(scene: Scene, lo: float = DEFAULT_PERCENTILE_LO,
                hi: float = DEFAULT_PERCENTILE_HI) -> DepthSlab:
    """Shared slab bounds from the depths pooled over every frame, computed
    once per scene and (lo, hi)."""
    key = ("global", lo, hi)
    if key not in scene._slabs:
        pooled = _sorted_positive([np.concatenate(scene.stacked.depths)])
        (bounds,) = _slab_params(pooled, lo, hi)
        if isinstance(bounds, DegenerateDepthError):
            raise DegenerateDepthError(f"global slab: {bounds}")
        scene._slabs[key] = bounds
    return DepthSlab(single=scene._slabs[key])


# -- text ingestion --------------------------------------------------------

def _records(stream):
    """(line number, fields) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def _numbers(fields, count, lineno):
    """The `count` finite floats that follow a line's first field."""
    if len(fields) != count + 1:
        raise ParseError(f"{fields[0]!r} needs {count} numbers, got "
                         f"{len(fields) - 1}", line=lineno)
    try:
        vals = [float(x) for x in fields[1:]]
    except ValueError as e:
        raise ParseError(f"non-numeric field: {e}", line=lineno) from e
    for x, v in zip(fields[1:], vals):
        if not math.isfinite(v):
            raise ParseError(f"non-finite field {x!r}", line=lineno)
    return vals


def parse_pose_list(stream):
    """Parse `name tx ty tz qw qx qy qz` lines into (id, pose row) pairs.

    Quaternions are normalized and canonicalized (qw >= 0); a zero norm or
    one that overflows is an error. '#'-prefixed and blank lines are
    skipped. Errors carry the 1-based line number; a repeated name is an
    error naming both lines.
    """
    out = []
    seen = {}  # name -> line number
    for lineno, fields in _records(stream):
        vals = _numbers(fields, 7, lineno)
        if fields[0] in seen:
            raise ParseError(f"frame name {fields[0]!r} already on line "
                             f"{seen[fields[0]]}", line=lineno)
        seen[fields[0]] = lineno
        try:
            q = quat_canonical(np.array(vals[3:7]))
        except InvalidInputError as e:  # a zero or overflowing norm
            raise ParseError(str(e), line=lineno) from e
        out.append((fields[0], np.concatenate([vals[:3], q])))
    return out


def write_pose_list(stream, poses):
    """Write (id, pose row) pairs in the pose-list text format."""
    stream.write("# name tx ty tz qw qx qy qz\n")
    for name, pose in poses:
        vals = " ".join(format(v, ".17g") for v in pose)
        stream.write(f"{name} {vals}\n")


def parse_points(stream):
    """Parse `P x y z` and `V frame_id idx...` lines.

    Returns (points array, {frame_id: visibility tuple}). Visibility indices
    are validated against the point count after the whole file is read, so
    P/V line order does not matter; a second V line for one frame is an
    error naming both lines.
    """
    points = []
    vis = {}  # frame id -> (line number, visibility tuple)
    for lineno, fields in _records(stream):
        tag = fields[0]
        if tag == "P":
            points.append(_numbers(fields, 3, lineno))
        elif tag == "V":
            if len(fields) < 2:
                raise ParseError("V line expects a frame id", line=lineno)
            if fields[1] in vis:
                raise ParseError(f"V line of frame {fields[1]!r} already on "
                                 f"line {vis[fields[1]][0]}", line=lineno)
            try:
                vis[fields[1]] = (lineno, tuple(int(x) for x in fields[2:]))
            except ValueError as e:
                raise ParseError(f"non-integer index: {e}", line=lineno) from e
        else:
            raise ParseError(f"unknown record tag {tag!r}", line=lineno)
    n = len(points)
    for fid, (lineno, idx) in vis.items():
        bad = [i for i in idx if not 0 <= i < n]
        if bad:
            raise ParseError(f"frame {fid}: visibility index {bad[0]} out of "
                             f"range (have {n} points)", line=lineno)
    vis = {fid: idx for fid, (_, idx) in vis.items()}
    return np.asarray(points, dtype=float).reshape(-1, 3), vis


def write_points(stream, points, visibility):
    stream.write("# P x y z / V frame_id idx...\n")
    for p in points:
        coords = " ".join(format(v, ".17g") for v in p)
        stream.write(f"P {coords}\n")
    for fid in visibility:
        idx = " ".join(str(i) for i in visibility[fid])
        stream.write(f"V {fid} {idx}\n")


def scene_from_files(poses, points_stream, intrinsics: Intrinsics,
                     only=None) -> Scene:
    """The scene of parsed (id, pose row) pairs and a points file, each of
    whose V lines must name one of those frames; a frame without a V line
    sees no point. Given only, the scene keeps just the frames it names."""
    points, vis = parse_points(points_stream)
    frames = [Frame(name, pose, vis.get(name, ())) for name, pose in poses]
    named = {f.id for f in frames}
    for fid in [fid for fid in vis if fid not in named][:1]:
        raise ParseError(f"a V line names frame {fid!r}, which has no pose")
    return Scene(points, [f for f in frames if only is None or f.id in only],
                 intrinsics)


# -- synthetic scenes ------------------------------------------------------

def focal_length(fov_deg: float, w: float) -> float:
    """Pinhole focal length (px) of a horizontal field of view across w px.
    The field of view must give a finite focal length per pixel of width:
    5e-324 degrees lies in (0, 180) but its half angle's tangent is 0."""
    if 0.0 < fov_deg < 180.0:
        tan = math.tan(math.radians(fov_deg) / 2.0)
        if tan and 0.5 / tan < math.inf:
            return (w / 2.0) / tan
    raise InvalidInputError(f"field of view must lie in (0, 180) degrees and "
                            f"give a finite focal length, got {fov_deg}")


def default_intrinsics(fov_deg: float = 65.0, w: int = 640,
                       h: int = 640) -> Intrinsics:
    f = focal_length(fov_deg, w)
    return Intrinsics(fx=f, fy=f, cx=w / 2.0, cy=h / 2.0, w=w, h=h)


def _norms(x):
    """(F, 1) row norms of (F, k) x: per row the ddot of a 1-D
    np.linalg.norm, which np.linalg.norm(x, axis=1) does not reproduce."""
    return np.sqrt(np.vecdot(x, x))[:, None]


def _look_at_origin(positions, rolls):
    """Canonical world-from-camera quaternions (F, 4) of cameras at positions
    (F, 3) with +z toward the origin and y up, each then rolled by its angle
    in rolls (rad) about its +z. Row by row these are the operations of one
    look-at per camera."""
    turns = []
    for roll in rolls:  # quat_from_axis_angle((0, 0, 1), roll)'s terms, in
        h = 0.5 * roll  # math's cos and sin, whatever numpy's SIMD dispatch
        s = math.sin(h)
        turns.append((math.cos(h), s * 0.0, s * 0.0, s))
    z = 0.0 - positions  # not -positions: 0.0 - 0.0 is +0.0
    z = z / _norms(z)
    x = np.cross([0.0, 1.0, 0.0], z)
    nx = _norms(x)
    along = nx[:, 0] < 1e-12  # looking straight along up: any perpendicular
    x[along] = np.cross([1.0, 0.0, 0.0], z[along])
    nx[along] = _norms(x[along])
    x = x / nx
    q = rotmat_to_quat(np.stack([x, np.cross(z, x), z], axis=-1))
    rolled = np.stack(quat_multiply(q.T, np.array(turns).T), axis=-1)
    # a roll of exactly 0.0 (a uniform draw of 0.5) is not applied
    return quat_canonical(np.where((np.array(rolls) != 0.0)[:, None],
                                   rolled, q))


def synth_scene(seed: int, n_points: int = 60, n_frames: int = 8,
                depth_range=(2.0, 8.0),
                intrinsics: Intrinsics = None) -> Scene:
    """Deterministic desk-scale scene: a point cloud in a box and cameras
    looking at it from random directions.

    Visibility is the set of points with positive depth that project inside
    the sensor of intrinsics (default_intrinsics() when None). Camera
    distances are chosen so each frame's depths fall inside depth_range;
    a range whose squared camera distances are no normal floats (about
    1.5e-154 to 1.3e154) is an InvalidInputError.
    """
    if seed < 0:  # np.random.default_rng's own error is a ValueError
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if n_points < 10:
        raise InvalidInputError("need at least 10 points")
    if n_frames < 1:
        raise InvalidInputError("need at least 1 frame")
    lo, hi = float(depth_range[0]), float(depth_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise InvalidInputError("depth_range must satisfy 0 < lo < hi < inf")
    span = hi - lo
    mid = 0.5 * (lo + hi)
    near, far = mid - 0.05 * span, mid + 0.05 * span  # camera distances
    if not (sys.float_info.min <= near * near and far * far < math.inf):
        raise InvalidInputError(f"depth_range ({lo:g}, {hi:g}) puts cameras "
                                f"where their squared distances overflow or "
                                f"underflow")
    rng = np.random.default_rng(seed)
    extent = 0.25 * span            # half-extent of the point box
    points = rng.uniform(-extent, extent, size=(n_points, 3))
    K = default_intrinsics() if intrinsics is None else intrinsics
    # the draws stay per frame, in one frame's order, so the stream is kept
    directions, offsets, rolls = [], [], []
    for _ in range(n_frames):
        directions.append(rng.normal(size=3))
        offsets.append(rng.uniform(-0.05, 0.05))
        rolls.append(rng.uniform(-math.pi, math.pi))
    directions = np.array(directions)
    positions = directions / _norms(directions) \
        * (mid + np.array(offsets) * span)[:, None]
    q = _look_at_origin(positions, rolls)
    uv, z = project_points(positions, quat_to_rotmat(q), K, points.T)
    u, v = uv[:, 0], uv[:, 1]
    seen = (z > 0) & (0.0 <= u) & (u <= K.w) & (0.0 <= v) & (v <= K.h)
    counts = seen.sum(axis=1)
    for i in np.flatnonzero(counts < 2)[:1]:
        raise GenerationError(
            f"frame {i} sees only {counts[i]} points; adjust the "
            f"intrinsics, depth_range, or n_points"
        )
    gt = np.hstack([positions, q])
    frames = [Frame(id=f"f{i:03d}", gt_pose=gt[i], visible=np.flatnonzero(row))
              for i, row in enumerate(seen)]
    return Scene(points=points, frames=frames, intrinsics=K)
