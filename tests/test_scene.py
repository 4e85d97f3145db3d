import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import identity_pose, pose
from homoloss import scene as scene_module
from homoloss.geometry import InvalidInputError, Intrinsics, \
    quat_to_rotmat
from homoloss.losses import LossHyperParams, SlabParams
from homoloss.optim import frame_context
from homoloss.scene import (
    DegenerateDepthError,
    DepthSlab,
    Frame,
    GenerationError,
    ParseError,
    Scene,
    default_intrinsics,
    focal_length,
    global_slab,
    local_slabs,
    parse_points,
    parse_pose_list,
    scene_from_files,
    synth_scene,
    write_points,
    write_pose_list,
    _group_percentiles,
    _slab_params,
    _sorted_positive,
)
from oracles import frame_depths_loop, look_at, percentile_bounds, \
    point_depth, quantile_bounds, slab_loop, synth_scene_loop


def view_arrays(view):
    """Every array of a scene's stacked view."""
    return [view.counts, *view.depths,
            *(a for bucket in view.buckets for a in bucket)]


# Ragged groups of depths: empty groups, non-positive, NaN and infinite
# depths, and depths rounded to one decimal so that groups have ties.
depth = st.one_of(
    st.floats(1e-3, 100.0),
    st.floats(0.5, 4.0).map(lambda x: round(x, 1)),
    st.sampled_from([0.0, -2.5, math.nan, math.inf]),
)
depth_groups = st.lists(st.lists(depth, max_size=30), min_size=1, max_size=8)
# 0, 0.25, 0.5, 0.75 and 1 give integer virtual indices for many sizes
percentiles = st.lists(
    st.one_of(st.sampled_from([0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0]),
              st.floats(0.0, 1.0)),
    min_size=2, max_size=2,
).map(sorted)


def sorted_percentile_oracle(values, p):
    """Brute-force linear interpolation between sorted order statistics."""
    s = sorted(values)
    pos = p * (len(s) - 1)
    i = int(math.floor(pos))
    frac = pos - i
    if i + 1 >= len(s):
        return s[-1]
    return s[i] * (1.0 - frac) + s[i + 1] * frac


class TestPercentileBounds:
    def test_one_to_hundred_example(self):
        depths = np.arange(1.0, 101.0)
        slab = percentile_bounds(depths, 0.025, 0.975)
        assert slab.x_min == pytest.approx(3.475)
        assert slab.x_max == pytest.approx(97.525)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            depths = rng.uniform(0.5, 20.0, size=rng.integers(5, 200))
            lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
            if hi - lo < 0.05:
                continue
            slab = percentile_bounds(depths, lo, hi)
            assert slab.x_min == pytest.approx(
                sorted_percentile_oracle(depths, lo), rel=1e-12
            )
            assert slab.x_max == pytest.approx(
                sorted_percentile_oracle(depths, hi), rel=1e-12
            )

    def test_extreme_percentiles_bracket(self):
        depths = np.array([4.0, 1.0, 9.0, 2.5])
        slab = percentile_bounds(depths, 0.0, 1.0)
        assert slab.x_min == 1.0
        assert slab.x_max == 9.0

    def test_negative_depths_excluded(self):
        depths = np.array([-5.0, -1.0, 2.0, 4.0])
        slab = percentile_bounds(depths, 0.0, 1.0)
        assert (slab.x_min, slab.x_max) == (2.0, 4.0)

    def test_too_few_positive_raises(self):
        with pytest.raises(DegenerateDepthError):
            percentile_bounds([3.0, -1.0], 0.025, 0.975, frame_id="f000")

    def test_constant_depths_degenerate(self):
        with pytest.raises(DegenerateDepthError) as e:
            percentile_bounds([2.0, 2.0, 2.0], 0.025, 0.975, frame_id="f001")
        assert str(e.value).startswith("frame f001: degenerate depth")

    def test_bounds_monotone_in_percentile(self):
        rng = np.random.default_rng(1)
        depths = rng.uniform(1.0, 10.0, size=100)
        mins = [
            percentile_bounds(depths, lo, 0.99).x_min
            for lo in (0.0, 0.1, 0.3, 0.5)
        ]
        assert mins == sorted(mins)


class TestBatchedPercentiles:
    """The one-pass percentile routine against per-frame np.quantile."""

    @settings(deadline=None, max_examples=300)
    @given(groups=depth_groups, p=percentiles)
    @example(groups=[[], [3.0, 1.5], [2.0, -1.0, math.nan, 2.0],
                     [5.0, 1.0, 4.0, 2.0, 3.0]], p=[0.0, 1.0])
    @example(groups=[[5.0, 1.0, 4.0, 2.0, 3.0], [0.5, 0.5, 0.7]],
             p=[0.25, 0.5])
    def test_bounds_equal_quantile(self, groups, p):
        lo, hi = p
        arrays = [np.asarray(g, dtype=float) for g in groups]
        with np.errstate(invalid="ignore"):
            n, (x_min, x_max) = _group_percentiles(
                _sorted_positive(arrays), lo, hi)
            ref = [quantile_bounds(g, lo, hi) for g in arrays]
        assert n.tolist() == [r[0] for r in ref]
        # exact, with NaN equal to NaN
        np.testing.assert_array_equal(x_min, [r[1] for r in ref])
        np.testing.assert_array_equal(x_max, [r[2] for r in ref])

    @settings(deadline=None, max_examples=300)
    @given(groups=depth_groups, p=percentiles)
    @example(groups=[[1.0, 2.0], [2.0, 2.0, 2.0], [7.0]], p=[0.025, 0.975])
    @example(groups=[[1.0, 2.0], [7.0], [2.0, 2.0, 2.0]], p=[0.025, 0.975])
    def test_errors_match_per_frame_loop(self, groups, p):
        # Each group gets its own outcome, its bounds or its error, whatever
        # the groups before it gave.
        lo, hi = p
        assume(lo < hi)
        arrays = [np.asarray(g, dtype=float) for g in groups]
        with np.errstate(invalid="ignore"):
            expected = slab_loop(arrays, lo, hi)
            got = _slab_params(_sorted_positive(arrays), lo, hi)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            if isinstance(e, DegenerateDepthError):
                assert type(g) is DegenerateDepthError and str(g) == str(e)
            else:
                assert (g.x_min, g.x_max) == e

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
    def test_local_slabs_hold_each_failing_frames_error(self, order):
        # identity poses: a point's depth is its z
        points = np.array([[0, 0, 2.0], [0, 0, 3.0], [0, 0, 5.0],
                           [0, 0, -1.0]])
        visible = [(0, 1, 2), (0, 0, 0), (3, 0)]  # fine, constant, 1 positive
        frames = [Frame(f"f{k}", identity_pose(), visible[k]) for k in order]
        scene = Scene(points, frames, default_intrinsics())
        got = local_slabs(scene).per_frame
        # the scene's own frames: a Frame given to it holds its raw input
        expected = slab_loop([frame_depths_loop(scene, f)
                              for f in scene.frames], 0.025, 0.975)
        assert list(got) == [f.id for f in frames]
        assert (got["f0"].x_min, got["f0"].x_max) == expected[0]
        for f, e in zip(frames[1:], expected[1:]):
            assert type(got[f.id]) is DegenerateDepthError
            assert str(got[f.id]) == str(e)
        assert str(got["f1"]).startswith("degenerate depth distribution")
        assert str(got["f2"]) == \
            "needs at least 2 positive-depth points, got 1"


class TestDepths:
    def test_point_depth_identity_pose(self):
        assert point_depth(identity_pose(), [1.0, -2.0, 7.5]) == 7.5

    def test_point_depth_translated(self):
        row = pose([0.0, 0.0, 3.0], [1.0, 0.0, 0.0, 0.0])
        assert point_depth(row, [0.0, 0.0, 7.5]) == 4.5

    def test_frame_depths_matches_point_depth(self, scene):
        f = scene.frames[0]
        depths = scene.stacked.depths[0]
        assert len(depths) == len(f.visible)
        for d, p in zip(depths, scene.visible_points(f)):
            assert d == pytest.approx(point_depth(f.gt_pose, p), abs=1e-12)

    def test_stacked_view_is_built_once_and_read_only(self, scene):
        # a write would desynchronise the cache from the frozen scene
        view = scene.stacked
        assert scene.stacked is view
        for a in view_arrays(view):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_positive_depths_sorted_once_and_read_only(self, monkeypatch):
        # Every local_slabs call on a scene reads the one sort of its
        # positive depths.
        sort = scene_module._sorted_positive
        calls = []
        monkeypatch.setattr(scene_module, "_sorted_positive",
                            lambda groups: calls.append(1) or sort(groups))
        scene = synth_scene(1, n_frames=3)
        local_slabs(scene)
        local_slabs(scene, lo=0.1, hi=0.9)
        assert len(calls) == 1
        values, n = scene.positive_depths
        want = [np.sort(d[d > 0]) for d in scene.stacked.depths]
        assert n.tolist() == [len(w) for w in want]
        assert np.array_equal(values, np.concatenate(want))
        for a in (values, n):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_stacked_view_size_is_linear_in_visible_points(self):
        # One frame sees 5,000 points and 999 see 10: a view padded to the
        # largest count would hold about 240 MB, the buckets under 1 MB.
        rng = np.random.default_rng(5)
        frames = [Frame(f"f{i}", pose(rng.normal(size=3), [1.0, 0, 0, 0]),
                        range(5000) if i == 0 else rng.choice(5000, 10))
                  for i in range(1000)]
        scene = Scene(rng.normal(size=(5000, 3)), frames,
                      default_intrinsics())
        view = scene.stacked
        assert [b.points.shape for b in view.buckets] == \
            [(999, 3, 10), (1, 3, 5000)]
        visible = sum(len(f.visible) for f in frames)
        assert sum(a.nbytes for a in view_arrays(view)) <= \
            64 * visible + 64 * len(frames)


def test_frame_equality_is_identity():
    # Comparing the numpy fields of pose and visible would be ambiguous, so
    # == is identity and a frame stays hashable.
    def make():
        return Frame("a", identity_pose(), (0, 1))
    f = make()
    assert f == f
    assert not f == make()
    assert f != make()
    assert len({f, make()}) == 2


def test_scene_and_slab_equality_is_identity():
    # As for frames: == on the numpy fields would raise, so it is identity.
    a = synth_scene(0, n_frames=2)
    assert a == a
    assert not synth_scene(0) == synth_scene(0)
    assert not SlabParams(1.0, 2.0) == SlabParams(1.0, 2.0)
    slab = SlabParams(1.0, 2.0)
    d = DepthSlab(single=slab)
    assert d == d
    assert not DepthSlab(single=slab) == DepthSlab(single=slab)
    assert DepthSlab(per_frame={"a": slab}) != DepthSlab(per_frame={"a": slab})


def test_depth_slabs_are_hashable():
    # A hash over the fields would raise TypeError on a local slab's dict.
    scene = synth_scene(0, n_frames=2)
    local, shared = local_slabs(scene), global_slab(scene)
    assert hash(local) == hash(local) and hash(shared) == hash(shared)
    assert len({local, local, shared, local_slabs(scene)}) == 3


class TestSceneTable:
    """Scene validates its frames once into three read-only columns, ids,
    gt and visible, which the library reads by row index."""

    def test_columns_are_read_only_and_frames_view_their_rows(self):
        scene = synth_scene(2, n_frames=3)
        assert scene.ids == ("f000", "f001", "f002")
        assert scene.gt.shape == (3, 7) and len(scene.visible) == 3
        for a in (scene.gt, *scene.visible):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        for i, f in enumerate(scene.frames):
            assert f.id == scene.ids[i]
            assert np.shares_memory(f.gt_pose, scene.gt[i])
            assert f.visible is scene.visible[i]
            assert f.visible.dtype == np.int64

    def test_a_repeated_frame_id_is_rejected(self):
        # local_slabs keys its table by id: with both frames named a, frame
        # 0 would get frame 1's slab. The first id, in frame order, that
        # appears twice is named.
        base = synth_scene(3, n_frames=2)
        frames = [Frame("a", f.gt_pose, f.visible) for f in base.frames]
        with pytest.raises(InvalidInputError,
                           match="^frame id 'a' is repeated$"):
            Scene(base.points, frames, base.intrinsics)
        base = synth_scene(3, n_frames=5)
        frames = [Frame(fid, f.gt_pose, f.visible) for fid, f
                  in zip(["x", "b", "a", "a", "b"], base.frames)]
        with pytest.raises(InvalidInputError,
                           match="^frame id 'b' is repeated$"):
            Scene(base.points, frames, base.intrinsics)

    def test_points_are_a_read_only_copy(self):
        # A write to the caller's array after the build reaches neither the
        # scene's points nor what the library built from them.
        base = synth_scene(4, n_frames=2)
        pts = base.points.copy()
        scene = Scene(pts, base.frames, base.intrinsics)
        x_min = local_slabs(scene).for_frame("f000").x_min
        pts *= 2.0
        assert np.array_equal(scene.points, base.points)
        assert not scene.points.flags.writeable
        ctx = frame_context(scene, 0, "geometric", LossHyperParams())
        assert np.array_equal(ctx.points, base.points[base.visible[0]])
        assert local_slabs(scene).for_frame("f000").x_min == x_min
        listed = Scene(pts.tolist(), base.frames, base.intrinsics)
        assert listed.points.dtype == float
        assert np.array_equal(listed.points, pts)

    @pytest.mark.parametrize("points", [(), [], np.zeros((0, 3))])
    def test_an_empty_point_sequence_has_shape_0_3(self, points):
        scene = Scene(points, [Frame("f0", identity_pose(), ())],
                      default_intrinsics())
        assert scene.points.shape == (0, 3)
        assert scene.stacked.counts.tolist() == [0]

    @pytest.mark.parametrize("points, message", [
        (np.zeros((6, 2)), "values, got shape (6, 2)"),
        (np.zeros((3, 4)), "values, got shape (3, 4)"),
        (np.zeros(3), "values, got shape (3,)"),
        (np.zeros((2, 3, 1)), "values, got shape (2, 3, 1)"),
        ([[0, 0, 1], [0, 1]], "values, got a ragged sequence"),
        ([["0", "0", "1"]], "real numbers, got <U1 values"),
    ], ids=["6x2", "3x4", "flat", "3d", "ragged", "strings"])
    def test_points_of_another_shape_are_rejected(self, points, message):
        # Read as (-1, 3), a (6, 2) or a (3, 4) array would be 4 points.
        with pytest.raises(InvalidInputError, match=re.escape(
                f"points need (N, 3) {message}")):
            Scene(points, [Frame("f0", identity_pose(), ())],
                  default_intrinsics())

    @pytest.mark.parametrize("visible", [
        [True, False, True], np.array([True, False]), [0.7, 1.9],
        np.array([0.0, 1.0]), ["0", "1"], [[0, 1], [1]], [[0, 1], [1, 0]],
        [None], 1,
    ], ids=["bools", "bool_array", "floats", "float_array", "strings",
            "ragged", "2d", "none", "scalar"])
    def test_visibility_that_is_no_integer_sequence_is_rejected(self,
                                                                visible):
        # Cast to int64, a mask would read as indices 1, 0, 1 and a float
        # or a digit string as its integer; the frame is named.
        frames = [Frame("f0", pose([0.0, 0.0, -5.0], [1, 0, 0, 0]), (0,)),
                  Frame("f1", pose([0.0, 0.0, -5.0], [1, 0, 0, 0]), visible)]
        with pytest.raises(InvalidInputError, match="^frame f1: visibility "
                           "needs a 1-D sequence of integer indices$"):
            Scene(np.zeros((3, 3)), frames, default_intrinsics())

    @pytest.mark.parametrize("visible", [
        (), [], range(3), [0, np.int32(2)], np.array([1, 2], np.uint8),
        np.zeros(0, bool)])
    def test_visibility_of_integers_is_accepted(self, visible):
        frame = Frame("f0", pose([0.0, 0.0, -5.0], [1, 0, 0, 0]), visible)
        scene = Scene(np.zeros((3, 3)), [frame], default_intrinsics())
        assert scene.visible[0].tolist() == list(np.asarray(visible,
                                                            np.int64))
        assert scene.visible[0].dtype == np.int64


@st.composite
def scenes_and_orders(draw):
    """A small synthetic scene and a permutation of its frame rows."""
    n_frames = draw(st.integers(1, 6))
    try:
        scene = synth_scene(draw(st.integers(0, 2**16)),
                            n_points=draw(st.integers(10, 40)),
                            n_frames=n_frames)
    except GenerationError:  # a frame that sees fewer than 2 points
        assume(False)
    return scene, draw(st.permutations(range(n_frames)))


def frame_results(scene):
    """Per row: the frame's id, gt row and visible points, its stacked gt
    pixels and depths, its local slab bounds, and the constants of its
    homography and geometric context."""
    gt_uv = {}
    for b in scene.stacked.buckets:
        gt_uv.update(zip(b.rows.tolist(), b.gt_uv.tolist()))
    slabs = local_slabs(scene)
    results = []
    for i, fid in enumerate(scene.ids):
        slab = slabs.for_frame(fid)
        ctx = frame_context(scene, i, "homography_local", LossHyperParams(),
                            slabs)
        results.append((
            fid, scene.gt[i].tolist(), scene.points[scene.visible[i]].tolist(),
            gt_uv[i], scene.stacked.depths[i].tolist(),
            (slab.x_min, slab.x_max), ctx.gt.tolist(), ctx.points.tolist(),
            ctx.pose_target, ctx.homography, ctx.gt_uv.tolist()))
    return results


@settings(max_examples=40, deadline=None)
@given(drawn=scenes_and_orders())
def test_each_frame_keeps_its_results_under_any_frame_order(drawn):
    scene, order = drawn
    permuted = Scene(scene.points, [scene.frames[j] for j in order],
                     scene.intrinsics)
    results = frame_results(scene)
    assert frame_results(permuted) == [results[j] for j in order]


def slab_bits(slab):
    """The bytes of every bound of a DepthSlab, keyed as it keys them."""
    table = slab.per_frame or {None: slab.single}
    return {k: np.array([b.x_min, b.x_max]).tobytes()
            for k, b in table.items()}


class TestSlabCache:
    """Each scene computes its slab bounds once per mode and (lo, hi)."""

    @pytest.fixture
    def params_calls(self, monkeypatch):
        calls = []
        params = scene_module._slab_params

        def spy(positive, lo, hi):
            calls.append((lo, hi))
            return params(positive, lo, hi)
        monkeypatch.setattr(scene_module, "_slab_params", spy)
        return calls

    @pytest.mark.parametrize("make", [local_slabs, global_slab])
    def test_computed_once_per_lo_hi(self, make, params_calls):
        scene = synth_scene(3, n_frames=5)
        for _ in range(3):
            make(scene)
            make(scene, lo=0.1, hi=0.9)
        assert params_calls == [(0.025, 0.975), (0.1, 0.9)]
        other = local_slabs if make is global_slab else global_slab
        other(scene)  # the other mode has its own entry
        assert len(params_calls) == 3

    @pytest.mark.parametrize("make", [local_slabs, global_slab])
    def test_each_call_a_new_slab_with_fresh_bits(self, make):
        scene = synth_scene(4, n_frames=6)
        a, b = make(scene, 0.2, 0.7), make(scene, 0.2, 0.7)
        assert a is not b
        if a.per_frame is not None:
            assert a.per_frame is not b.per_frame
            a.per_frame.clear()  # a caller's edit reaches no later call
        fresh = make(synth_scene(4, n_frames=6), 0.2, 0.7)
        assert slab_bits(b) == slab_bits(make(scene, 0.2, 0.7)) \
            == slab_bits(fresh)

    @pytest.mark.parametrize("make", [local_slabs, global_slab])
    def test_signed_zero_lo_shares_its_bounds(self, make):
        scene = synth_scene(5, n_frames=4)
        neg = make(scene, lo=-0.0, hi=0.5)
        assert slab_bits(make(scene, lo=0.0, hi=0.5)) == slab_bits(neg) \
            == slab_bits(make(synth_scene(5, n_frames=4), lo=0.0, hi=0.5))

    @pytest.mark.parametrize("make", [local_slabs, global_slab])
    def test_a_failing_call_caches_nothing(self, make, params_calls):
        # every point at depth 3: no frame and no pool has x_min < x_max.
        # global_slab raises; local_slabs keeps the frame's error in its
        # table, which it computes once, as any other table.
        points = np.array([[0, 0, 3.0], [1, 0, 3.0], [0, 1, 3.0]])
        scene = Scene(points, [Frame("f0", identity_pose(), (0, 1, 2))],
                      default_intrinsics())
        for _ in range(2):
            if make is global_slab:
                with pytest.raises(DegenerateDepthError,
                                   match="^global slab: degenerate"):
                    make(scene)
            else:
                error = make(scene).per_frame["f0"]
                assert type(error) is DegenerateDepthError
                assert str(error).startswith("degenerate depth distribution")
            with pytest.raises(InvalidInputError, match="lo < hi"):
                make(scene, lo=0.9, hi=0.1)
        assert len(params_calls) == (4 if make is global_slab else 3)


class TestSlabs:
    def test_local_one_slab_per_frame(self, scene, slabs):
        assert set(slabs.per_frame) == {f.id for f in scene.frames}
        for f in scene.frames:
            s = slabs.for_frame(f.id)
            assert 0.0 < s.x_min < s.x_max

    def test_local_matches_direct_computation(self, scene, slabs):
        f = scene.frames[0]
        direct = percentile_bounds(frame_depths_loop(scene, f), 0.025, 0.975)
        got = slabs.for_frame(f.id)
        assert (got.x_min, got.x_max) == (direct.x_min, direct.x_max)

    def test_global_pooled(self, scene):
        g = global_slab(scene)
        pooled = np.concatenate(
            [frame_depths_loop(scene, f) for f in scene.frames]
        )
        direct = percentile_bounds(pooled, 0.025, 0.975)
        for f in scene.frames:
            assert g.for_frame(f.id) is g.single
        assert (g.single.x_min, g.single.x_max) == \
            (direct.x_min, direct.x_max)

    def test_bad_percentile_order(self, scene):
        with pytest.raises(InvalidInputError):
            local_slabs(scene, lo=0.9, hi=0.1)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def points_files(draw):
    """(points, visibility) for write_points: any finite coordinates, and
    frames that see no point or repeat an index."""
    pts = draw(st.lists(st.tuples(finite, finite, finite), max_size=8))
    seen = st.lists(st.integers(0, len(pts) - 1), max_size=6) if pts \
        else st.just([])
    ids = draw(st.lists(st.text("abfXZ019_-.", min_size=1, max_size=5),
                        unique=True, max_size=4))
    return pts, {fid: tuple(draw(seen)) for fid in ids}


class TestParsing:
    def test_pose_round_trip(self):
        poses = [
            ("a", pose([1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0])),
            ("b", pose([-0.125, 0.5, 0.0], [0.5, 0.5, 0.5, 0.5])),
        ]
        buf = io.StringIO()
        write_pose_list(buf, poses)
        back = parse_pose_list(io.StringIO(buf.getvalue()))
        assert [n for n, _ in back] == ["a", "b"]
        for (_, orig), (_, rt) in zip(poses, back):
            np.testing.assert_array_equal(rt[:3], orig[:3])
            np.testing.assert_array_equal(rt[3:], orig[3:])

    def test_pose_quat_canonicalized(self):
        text = "f0 0 0 0 -2 0 0 -2\n"
        [(_, row)] = parse_pose_list(io.StringIO(text))
        s = math.sqrt(0.5)
        np.testing.assert_allclose(row[3:], [s, 0, 0, s])

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nf0 0 0 0 1 0 0 0\n   \n# tail\n"
        assert len(parse_pose_list(io.StringIO(text))) == 1

    def test_pose_field_count_error_has_line(self):
        text = "f0 0 0 0 1 0 0 0\nf1 1 2 3\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_pose_list(io.StringIO(text))

    def test_pose_non_numeric_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_pose_list(io.StringIO("f0 0 0 zzz 1 0 0 0\n"))

    def test_pose_duplicate_name_error_names_both_lines(self):
        text = "f0 0 0 0 1 0 0 0\n# c\nf1 0 0 0 1 0 0 0\nf0 0 0 -1 1 0 0 0\n"
        with pytest.raises(ParseError,
                           match="line 4: frame name 'f0' already on line 1"):
            parse_pose_list(io.StringIO(text))

    @pytest.mark.parametrize("line", ["f1 inf 0 0 1 0 0 0",
                                      "f1 0 0 0 nan 0 0 1",
                                      "f1 0 -Infinity 0 1 0 0 0"])
    def test_pose_non_finite_error(self, line):
        text = f"f0 0 0 0 1 0 0 0\n{line}\n"
        with pytest.raises(ParseError, match="line 2: non-finite"):
            parse_pose_list(io.StringIO(text))

    @pytest.mark.parametrize("line, message", [
        ("f1 0 0 0 0 0 0 0", "zero-norm quaternion"),
        ("f1 0 0 0 -0 0 0 0", "zero-norm quaternion"),
        ("f1 0 0 0 1e300 1e300 0 0", "quaternion norm overflows"),
        ("f1 0 0 0 0 0 0 -1.4e154", "quaternion norm overflows")])
    def test_pose_quaternion_error_has_line(self, line, message, recwarn):
        text = f"f0 0 0 0 1 0 0 0\n{line}\n"
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse_pose_list(io.StringIO(text))
        assert not recwarn.list

    @pytest.mark.parametrize("line", ["P nan 0 1", "P 0 inf 1", "P 0 0 -inf"])
    def test_points_non_finite_error(self, line):
        text = f"P 0 0 1\n{line}\nV f0 0 1\n"
        with pytest.raises(ParseError, match="line 2: non-finite"):
            parse_points(io.StringIO(text))

    def test_points_round_trip(self):
        pts = np.array([[0.0, 1.5, -2.0], [3.25, 0.0, 9.0]])
        vis = {"f000": (0, 1), "f001": (1,)}
        buf = io.StringIO()
        write_points(buf, pts, vis)
        back_pts, back_vis = parse_points(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back_pts, pts)
        assert back_vis == vis

    @settings(deadline=None, max_examples=200)
    @given(files=points_files())
    @example(files=([(-0.0, 5e-324, 1e308), (-1e308, -5e-324, 0.0)],
                    {"f0": (), "f1": (1, 1, 0)}))
    def test_points_round_trip_property(self, files):
        pts, vis = files
        buf = io.StringIO()
        write_points(buf, pts, vis)
        back_pts, back_vis = parse_points(io.StringIO(buf.getvalue()))
        want = np.asarray(pts, dtype=float).reshape(-1, 3)
        assert back_pts.shape == want.shape
        assert back_pts.tobytes() == want.tobytes()  # bits, so -0.0 too
        assert list(back_vis.items()) == list(vis.items())

    def test_points_duplicate_frame_error_names_both_lines(self):
        text = "P 0 0 4\nV f0 0\n# c\nV f1 0\nV f0 0\n"
        with pytest.raises(ParseError, match="line 5: V line of frame 'f0' "
                                             "already on line 2"):
            parse_points(io.StringIO(text))

    def test_points_order_independent_validation(self):
        # V before P is fine as long as the indices end up valid.
        text = "V f0 0 1\nP 0 0 1\nP 0 0 2\n"
        pts, vis = parse_points(io.StringIO(text))
        assert len(pts) == 2
        assert vis["f0"] == (0, 1)

    def test_points_out_of_range_index(self):
        text = "V f0 0 5\nP 0 0 1\n"
        with pytest.raises(ParseError, match="line 1"):
            parse_points(io.StringIO(text))

    @pytest.mark.parametrize("line, message", [
        ("V", "V line expects a frame id"),
        ("V f0 0 x", "non-integer index"),
        ("V f0 1.5", "non-integer index"),
    ])
    def test_points_malformed_v_line(self, line, message):
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse_points(io.StringIO(f"P 0 0 1\n{line}\n"))

    def test_points_unknown_tag(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_points(io.StringIO("Q 1 2 3\n"))

    def test_scene_from_files(self):
        poses = "f0 0 0 0 1 0 0 0\nf1 0 0 1 1 0 0 0\n"
        points = "P 0 0 5\nP 1 0 6\nV f0 0 1\nV f1 1\n"
        scene = scene_from_files(parse_pose_list(io.StringIO(poses)),
                                 io.StringIO(points), default_intrinsics())
        assert len(scene.frames) == 2
        assert scene.frames[0].visible.tolist() == [0, 1]
        assert scene.frames[1].visible.tolist() == [1]
        for f in scene.frames:  # one read-only int64 array per frame
            assert f.visible.dtype == np.int64
            assert not f.visible.flags.writeable

    def test_scene_from_files_rejects_a_v_line_of_no_frame(self):
        # The first V line, in file order, whose frame has no pose.
        poses = parse_pose_list(io.StringIO("f0 0 0 0 1 0 0 0\n"))
        points = "P 0 0 5\nV f0 0\nV f1 0\nV f2 0\n"
        with pytest.raises(ParseError, match="^a V line names frame 'f1', "
                           "which has no pose$"):
            scene_from_files(poses, io.StringIO(points),
                             default_intrinsics())

    @pytest.mark.parametrize("bad, message", [
        (7, "frame f1: visibility index 7 out of range"),
        (-1, "frame f1: visibility index -1 out of range"),
        (2, "frame f1: visibility index 2 out of range"),
        (2**63, "frame f1: visibility index beyond int64"),
    ], ids=["beyond_n", "negative", "at_n", "beyond_int64"])
    def test_scene_rejects_bad_visibility(self, bad, message):
        # The first bad index of the first bad frame is reported.
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Scene(
                points=np.zeros((2, 3)),
                frames=[Frame("f0", identity_pose(), (0, 1)),
                        Frame("f1", identity_pose(), (0, bad, 9)),
                        Frame("f2", identity_pose(), (5,))],
                intrinsics=default_intrinsics(),
            )

    @pytest.mark.parametrize("big", [2**63, 2**64 - 1])
    def test_a_uint64_index_beyond_int64_is_not_wrapped(self, big):
        # np.array(..., np.int64) wraps a uint64 to a negative index; the
        # scene names the frame and no wrapped value.
        with pytest.raises(InvalidInputError,
                           match="^frame f1: visibility index beyond int64$"):
            Scene(np.zeros((2, 3)),
                  [Frame("f0", identity_pose(), (0, 1)),
                   Frame("f1", identity_pose(), np.array([0, big],
                                                          np.uint64))],
                  default_intrinsics())

    @pytest.mark.parametrize("t, q", [
        ((0, 0, 0), (0.0, 0.0, 0.0, 0.0)), ((0, 0, 0), (1e200, 0, 0, 0)),
        ((0, 0, 0), (1e-200, 0, 0, 0)), ((0, 0, 0), (math.nan, 0, 0, 1)),
        ((0, 0, 0), (1, math.inf, 0, 0)), ((0, math.nan, 0), (1, 0, 0, 0)),
        ((-math.inf, 0, 0), (1, 0, 0, 0))],
        ids=["zero_q", "overflowing_q", "underflowing_q", "nan_q", "inf_q",
             "nan_t", "inf_t"])
    @pytest.mark.parametrize("visible", [(0, 1), ()], ids=["seen", "unseen"])
    def test_scene_rejects_a_bad_gt_row(self, t, q, visible):
        # quat_normalize's rule, and finite entries, whatever the frame
        # sees: the first bad frame is named, and numpy warns nothing. A
        # small q whose |q|^2 stays above 0 is valid.
        points = [[0.0, 0.0, 5.0], [1.0, 0.0, 6.0]]
        frames = [Frame("f0", pose((0, 0, 0), (1e-150, 0, 0, 0)), (0, 1)),
                  Frame("f1", pose(t, q), visible),
                  Frame("f2", pose(t, q), (0,))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match=(
                    "^frame f1: gt pose has a non-finite entry or a "
                    "quaternion whose norm is zero or overflows$")):
                Scene(points, frames, default_intrinsics())
            assert Scene(points, frames[:1], default_intrinsics()).ids == \
                ("f0",)


    def test_scene_needs_a_frame(self):
        with pytest.raises(InvalidInputError, match="at least one frame"):
            Scene(np.zeros((2, 3)), [], default_intrinsics())

class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(seed=42)
        b = synth_scene(seed=42)
        np.testing.assert_array_equal(a.points, b.points)
        for fa, fb in zip(a.frames, b.frames):
            assert fa.id == fb.id
            np.testing.assert_array_equal(fa.gt_pose[:3], fb.gt_pose[:3])
            np.testing.assert_array_equal(fa.gt_pose[3:], fb.gt_pose[3:])
            assert np.array_equal(fa.visible, fb.visible)

    def test_seed_changes_scene(self):
        a = synth_scene(seed=0)
        b = synth_scene(seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_shape_and_counts(self, scene):
        assert scene.points.shape == (60, 3)
        assert len(scene.frames) == 8

    def test_visible_points_project_inside_sensor(self, scene):
        K = scene.intrinsics
        for f in scene.frames:
            R = quat_to_rotmat(f.gt_pose[3:])
            cam = (scene.visible_points(f) - f.gt_pose[:3]) @ R
            assert np.all(cam[:, 2] > 0)
            u = K.fx * cam[:, 0] / cam[:, 2] + K.cx
            v = K.fy * cam[:, 1] / cam[:, 2] + K.cy
            assert np.all((u >= 0) & (u <= K.w) & (v >= 0) & (v <= K.h))

    def test_depths_near_requested_range(self, scene):
        for d in scene.stacked.depths:
            assert d.min() > 0.0
            assert d.max() < 12.0

    def test_unit_quaternions(self, scene):
        for f in scene.frames:
            assert np.linalg.norm(f.gt_pose[3:]) == pytest.approx(1.0)
            assert f.gt_pose[3:][0] >= 0.0

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            synth_scene(seed=0, n_points=3)
        with pytest.raises(InvalidInputError):
            synth_scene(seed=0, n_frames=0)
        with pytest.raises(InvalidInputError):
            synth_scene(seed=0, depth_range=(5.0, 2.0))
        with pytest.raises(InvalidInputError, match="hi < inf"):
            synth_scene(seed=0, depth_range=(2.0, math.inf))

    @pytest.mark.parametrize("depth_range", [
        (2.0, 2.4e154), (1.5e-154, 1.6e-154), (2.0, 1e153)])
    def test_depth_range_within_the_float_bound_generates(self, depth_range,
                                                           recwarn):
        scene = synth_scene(seed=0, n_frames=4, depth_range=depth_range)
        scene.positive_depths
        assert not recwarn.list

    @pytest.mark.parametrize("depth_range", [
        (2.0, 2.5e154), (2.0, 1e300), (1.0, 1.7e308),
        (1.4e-154, 1.45e-154), (1e-160, 3e-160), (1e-300, 2e-300)])
    def test_depth_range_beyond_the_float_bound_raises_before_any_draw(
            self, depth_range, monkeypatch, recwarn):
        # squared camera distances that overflow, or underflow below the
        # normal floats, made numpy warn and then fail or lose precision
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: pytest.fail("drew from a generator"))
        with pytest.raises(InvalidInputError, match="^depth_range"):
            synth_scene(seed=0, depth_range=depth_range)
        assert not recwarn.list

    @pytest.mark.parametrize("seed", [-1, -2**40, np.int64(-3)])
    def test_negative_seed_raises_before_any_draw(self, seed, monkeypatch):
        # numpy's own ValueError is no InvalidInputError
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: pytest.fail("drew from a generator"))
        with pytest.raises(InvalidInputError,
                           match=f"^seed must be >= 0, got {seed}$"):
            synth_scene(seed)


def assert_same_scene(a, b):
    """Points, camera and every frame's id, t, q and visible, byte for byte."""
    assert a.intrinsics == b.intrinsics
    assert a.points.tobytes() == b.points.tobytes()
    assert [f.id for f in a.frames] == [f.id for f in b.frames]
    for f, g in zip(a.frames, b.frames):
        for x, y in [(f.gt_pose, g.gt_pose), (f.visible, g.visible)]:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), f.id


def small_sensor(fov, w, h, a, b):
    """A camera of fov degrees across w x h px, its principal point at
    fractions a, b of the sensor: narrow ones leave frames with < 2 points."""
    f = focal_length(fov, w)
    return Intrinsics(fx=f, fy=f, cx=a * w, cy=b * h, w=w, h=h)


SENSORS = st.one_of(
    st.none(),
    st.just(default_intrinsics(40.0, 320, 240)),
    st.builds(small_sensor, st.floats(1.0, 60.0), st.integers(2, 64),
              st.integers(2, 64), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)


class TestArrayFormSynthScene:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(10, 500),
           n_frames=st.integers(1, 200), lo=st.floats(0.01, 20.0),
           span=st.floats(0.01, 50.0), intrinsics=SENSORS)
    @example(seed=0, n_points=60, n_frames=8, lo=2.0, span=6.0,
             intrinsics=None)
    @example(seed=7, n_points=60, n_frames=64, lo=2.0, span=6.0,
             intrinsics=default_intrinsics(40.0, 320, 240))
    @example(seed=3, n_points=40, n_frames=50, lo=2.0, span=6.0,
             intrinsics=small_sensor(10.0, 16, 16, 0.5, 0.5))  # frame 9
    def test_equals_the_frame_loop(self, seed, n_points, n_frames, lo, span,
                                   intrinsics):
        args = (seed, n_points, n_frames, (lo, lo + span), intrinsics)
        try:
            want = synth_scene_loop(*args)
        except GenerationError as e:
            with pytest.raises(GenerationError,
                               match=f"^{re.escape(str(e))}$"):
                synth_scene(*args)
            return
        assert_same_scene(synth_scene(*args), want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.tuples(*[st.floats(-10.0, 10.0)
                    | st.sampled_from([0.0, -0.0, 1e-13, -1e-13])] * 3)
        .filter(lambda p: math.hypot(*p) > 0.1),  # not at the origin
        st.floats(-math.pi, math.pi) | st.just(0.0)), min_size=1,
        max_size=20))
    def test_look_at_equals_the_per_camera_form(self, cameras):
        positions = np.array([p for p, _ in cameras])
        rolls = [r for _, r in cameras]
        q = scene_module._look_at_origin(positions, rolls)
        for p, r, qi in zip(positions, rolls, q):
            want = look_at(p, np.zeros(3), up=[0.0, 1.0, 0.0], roll_rad=r)
            assert qi.tobytes() == want.tobytes()

    def test_look_at_fallback_on_the_up_axis(self):
        # random normals never put a camera on the y axis, where up x z
        # vanishes and the look-at falls back to x = (1, 0, 0) x z
        positions = np.array([[0.0, 3.0, 0.0], [0.0, -2.5, 0.0],
                              [1e-13, 4.0, 0.0], [-0.0, 5.0, -1e-13],
                              [1e-11, 4.0, 0.0], [1.0, 2.0, 3.0]])
        rolls = [0.3, -2.0, 0.0, 1.0, 0.5, 2.5]
        q = scene_module._look_at_origin(positions, rolls)
        for p, r, qi in zip(positions, rolls, q):
            want = look_at(p, np.zeros(3), up=[0.0, 1.0, 0.0], roll_rad=r)
            assert qi.tobytes() == want.tobytes()

    def test_names_the_first_frame_with_too_few_points(self):
        K = small_sensor(10.0, 16, 16, 0.5, 0.5)
        message = "frame 9 sees only 1 points; adjust the intrinsics, " \
            "depth_range, or n_points"
        for build in (synth_scene_loop, synth_scene):
            with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
                build(3, 40, 50, intrinsics=K)

