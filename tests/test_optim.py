import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import identity_pose, perturbed, pose, random_pose, \
    random_unit_quat
from homoloss import losses, optim
from homoloss.diffgrad import LOSS_KINDS, LossContext, loss_value, \
    params_for
from homoloss.geometry import (
    InvalidInputError,
    Intrinsics,
    project_points,
    quat_from_axis_angle,
    quat_to_rotmat,
)
from homoloss.losses import LossHyperParams, SlabParams
from homoloss.optim import (
    EVAL_REPROJ_CLIP,
    AdamState,
    SWEEP_AXES,
    OptimConfig,
    adam_update,
    frame_context,
    landscape_sweep,
    mean_reproj_distance,
    offset_rows,
    optimize_poses,
    pct_within,
    perturb_pose,
    _epoch_batches,
)
from homoloss.scene import Frame, Scene, global_slab, local_slabs, \
    synth_scene
from oracles import angle_between, apply_offset, frame_depths_loop, \
    landscape_sweep_loop, mean_reproj_distance_loop, offset_params, \
    optimize_poses_loop, pct_within_loop, perturb_pose_array, \
    project_points_2d

# finite floats with both zeros, and sweep offsets up to a full turn
SIGNED_FLOATS = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
OFFSETS = st.floats(-360.0, 360.0) | st.sampled_from([0.0, -0.0])


class TestAdam:
    def cfg(self, **kw):
        kw.setdefault("loss_kind", "posenet")
        return OptimConfig(**kw)

    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0, 3.0])
        state = AdamState.zeros(3)
        new_p, new_state = adam_update(p, np.zeros(3), state, self.cfg())
        np.testing.assert_array_equal(new_p, p)
        assert new_state.step == 1

    def test_constant_gradient_step_size(self):
        # With a constant gradient, the bias-corrected step is ~lr in
        # magnitude (eps-perturbed), opposing the gradient sign.
        cfg = self.cfg(lr=1e-3)
        p = np.zeros(2)
        state = AdamState.zeros(2)
        g = np.array([5.0, -5.0])
        for _ in range(10):
            p, state = adam_update(p, g, state, cfg)
        new_p, _ = adam_update(p, g, state, cfg)
        delta = new_p - p
        np.testing.assert_allclose(np.abs(delta), cfg.lr, rtol=1e-6)
        assert delta[0] < 0 < delta[1]

    def test_eps_matters_for_small_gradients(self):
        # gradients ~1e-4: sqrt(v_hat) ~ 1e-4, so eps=1e-8 barely moves the
        # step while eps=1e-8 vs 1e-14 differ at the 1e-4 relative level.
        g = np.array([1e-4])
        p = np.zeros(1)
        outs = []
        for eps in (1e-8, 1e-14):
            cfg = self.cfg(lr=1e-2, adam_eps=eps)
            new_p, _ = adam_update(p, g, AdamState.zeros(1), cfg)
            outs.append(new_p[0])
        assert outs[0] != outs[1]
        assert abs(outs[1]) > abs(outs[0])  # smaller eps, bigger step

    def test_default_eps_per_kind(self):
        assert OptimConfig("homography_local").adam_eps == 1e-14
        assert OptimConfig("homography_global").adam_eps == 1e-14
        assert OptimConfig("posenet").adam_eps == 1e-8
        assert OptimConfig("geometric").adam_eps == 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            adam_update(np.zeros(3), np.zeros(2), AdamState.zeros(3),
                        self.cfg())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            OptimConfig(loss_kind="posenet", lr=0.0)
        with pytest.raises(InvalidInputError):
            OptimConfig(loss_kind="posenet", batch_size=0)
        with pytest.raises(InvalidInputError, match="lr must be positive"):
            OptimConfig(loss_kind="posenet", lr=math.nan)
        for lr in (math.inf, -math.inf):
            with pytest.raises(InvalidInputError, match="finite"):
                OptimConfig(loss_kind="posenet", lr=lr)
        OptimConfig(loss_kind="posenet", adam_eps=0.0)
        for eps in (-1e-8, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="adam_eps"):
                OptimConfig(loss_kind="posenet", adam_eps=eps)
        with pytest.raises(InvalidInputError, match="beta"):
            LossHyperParams(beta=math.inf)

    @pytest.mark.parametrize("field", ["epochs", "warmstart_epochs"])
    def test_rejects_negative_epochs(self, field):
        OptimConfig(loss_kind="posenet", **{field: 0})
        with pytest.raises(InvalidInputError, match="epochs"):
            OptimConfig(loss_kind="posenet", **{field: -1})


class TestMetrics:
    def small_scene(self):
        K = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, w=200, h=200)
        from homoloss.scene import Frame, Scene
        pts = np.array([[0.0, 0.0, 1.0]])
        frame = Frame("f0", identity_pose(), (0,))
        return Scene(points=pts, frames=[frame], intrinsics=K)

    def test_mrd_three_four_five(self):
        scene = self.small_scene()
        est = pose([-0.03, -0.04, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert mean_reproj_distance([("f0", est)], scene) == pytest.approx(5.0)

    def test_mrd_zero_at_gt(self):
        scene = self.small_scene()
        assert mean_reproj_distance([("f0", identity_pose())], scene) == 0.0

    def test_mrd_clip_saturation(self):
        scene = self.small_scene()
        est = pose([-5.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert mean_reproj_distance([("f0", est)], scene, clip=10.0) == 10.0

    def test_mrd_monotone_in_clip(self):
        scene = self.small_scene()
        est = pose([-5.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        vals = [
            mean_reproj_distance([("f0", est)], scene, clip=c)
            for c in (10.0, 100.0, 1000.0)
        ]
        assert vals == sorted(vals)

    def test_mrd_infinity_counts_clip(self):
        # point lands in the est camera's x-y plane -> depth ~ 0
        scene = self.small_scene()
        est = pose([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        assert mean_reproj_distance([("f0", est)], scene, clip=77.0) == 77.0

    def test_mrd_zero_gt_depth_rejected(self):
        # A visible point at zero gt depth has no gt pixel to measure from:
        # the scene rejects its frame when it is built, before any metric.
        from homoloss.scene import Frame, Scene

        with pytest.raises(InvalidInputError, match="^frame f0: a visible "
                           "point lies at zero gt depth or has a non-finite "
                           "gt pixel$"):
            Scene(points=np.array([[0.5, 0.0, 0.0]]),
                  frames=[Frame("f0", identity_pose(), (0,))],
                  intrinsics=self.small_scene().intrinsics)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n_frames=st.integers(1, 6),
           n_points=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           clip=st.sampled_from([1.0, 100.0, EVAL_REPROJ_CLIP]),
           tail=st.booleans())
    def test_stacked_view_and_metric_equal_the_frame_loop(
            self, data, n_frames, n_points, seed, clip, tail):
        # Ragged frames, some without a visible point; a frame with an
        # identity gt pose sees point 0, if at all, at zero gt depth, so the
        # scene build rejects the first such frame, and a frame with a zero
        # estimate q errors only when it has points. In a long-tail scene
        # one frame sees up to all of 50 times more points and the others
        # see 0, 1 or 2.
        rng = np.random.default_rng(seed)
        K = Intrinsics(fx=300.0, fy=310.0, cx=320.0, cy=240.0, w=640, h=480)
        n_points *= 50 if tail else 1
        points = rng.normal(size=(n_points, 3)) * 3.0
        points[0, 2] = 0.0
        some = st.sets(st.integers(0, n_frames - 1), max_size=2)
        flat, zero_q = data.draw(some), data.draw(some)
        big = data.draw(st.integers(0, n_frames - 1))
        index = st.integers(0, n_points - 1)

        def visible(i):
            if tail and i == big:
                n = data.draw(st.integers(0, n_points))
                return rng.choice(n_points, n, replace=False)
            return data.draw(st.lists(index, max_size=2 if tail
                                      else n_points))
        frames = [Frame(f"f{i}", identity_pose() if i in flat else pose(
                      rng.normal(size=3), random_unit_quat(rng)), visible(i))
                  for i in range(n_frames)]
        no_pixel = [f.id for i, f in enumerate(frames)
                    if i in flat and 0 in list(f.visible)]
        try:
            scene = Scene(points=points, frames=frames, intrinsics=K)
        except InvalidInputError as e:
            assert no_pixel and str(e) == f"frame {no_pixel[0]}: a visible " \
                "point lies at zero gt depth or has a non-finite gt pixel"
            return
        assert not no_pixel
        est = [(f.id, pose(f.gt_pose[:3] + rng.normal(size=3) * 0.3,
                           f.gt_pose[3:] + rng.normal(size=4) * 0.1))
               for f in frames]

        view = scene.stacked
        counts = [len(f.visible) for f in frames]
        assert view.counts.tolist() == counts
        assert [b.points.shape[2] for b in view.buckets] == \
            sorted(set(counts) - {0})
        t = np.array([p[:3] for _, p in est])
        q = np.array([p[3:] for _, p in est])
        slot = {}  # frame index -> its points, gt and estimate projections
        for rows, pts, gt_uv in view.buckets:
            assert rows.tolist() == [i for i, n in enumerate(counts)
                                     if n == pts.shape[2]]
            uv, z = project_points(t[rows], quat_to_rotmat(q[rows]), K, pts)
            slot.update(zip(rows.tolist(), zip(pts, gt_uv, uv, z)))
        for i, (f, (_, p)) in enumerate(zip(frames, est)):
            pts = scene.visible_points(f)
            gt_uv, _ = project_points_2d(f.gt_pose, K, pts)
            assert np.isfinite(gt_uv).all()
            assert np.array_equal(view.depths[i],
                                  frame_depths_loop(scene, f))
            projections = [project_points(p[:3], quat_to_rotmat(p[3:]), K,
                                          pts.T)]
            if i in slot:
                assert np.array_equal(slot[i][0], pts.T)
                assert np.array_equal(slot[i][1], gt_uv.T)
                projections.append(slot[i][2:])
            for one in projections:
                assert np.array_equal(one[0],
                                      project_points_2d(p, K, pts)[0].T,
                                      equal_nan=True)
                assert np.array_equal(one[1], project_points_2d(p, K, pts)[1])

        est = [(fid, pose(p[:3], np.zeros(4)) if i in zero_q else p)
               for i, (fid, p) in enumerate(est)]

        def outcome(metric, pairs):
            try:
                return metric(pairs, scene, clip=clip)
            except InvalidInputError as e:
                return str(e)
        for pairs in (est, est[::-1], est[:-1]):  # the last two unpaired
            assert outcome(mean_reproj_distance, pairs) == \
                outcome(mean_reproj_distance_loop, pairs)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n_frames=st.integers(1, 6),
           n_points=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           clip=st.sampled_from([1.0, 100.0, EVAL_REPROJ_CLIP]))
    def test_metric_rows_equal_pairs(self, data, n_frames, n_points, seed,
                                     clip):
        # Ragged frames, some without a visible point, and estimates some
        # of which have a zero q: the (F, 7) rows, alone or as the row view
        # of a longer parameter vector, give what the pairs give, by ==.
        rng = np.random.default_rng(seed)
        K = Intrinsics(fx=300.0, fy=310.0, cx=320.0, cy=240.0, w=640, h=480)
        points = rng.normal(size=(n_points, 3)) * 3.0
        index = st.integers(0, n_points - 1)
        frames = [Frame(f"f{i}", pose(rng.normal(size=3),
                                      random_unit_quat(rng)),
                        data.draw(st.lists(index, max_size=n_points)))
                  for i in range(n_frames)]
        scene = Scene(points=points, frames=frames, intrinsics=K)
        zero_q = data.draw(st.sets(st.integers(0, n_frames - 1), max_size=2))
        est = [(f.id, pose(f.gt_pose[:3] + rng.normal(size=3) * 0.3,
                           np.zeros(4) if i in zero_q
                           else f.gt_pose[3:] + rng.normal(size=4) * 0.1))
               for i, f in enumerate(frames)]
        rows = np.array([p for _, p in est])
        flat = np.concatenate([rows.ravel(), [0.5, -3.0]])

        def outcome(est_poses):
            try:
                return mean_reproj_distance(est_poses, scene, clip=clip)
            except InvalidInputError as e:
                return str(e)
        want = outcome(est)
        assert outcome(rows) == want
        assert outcome(flat[:7 * n_frames].reshape(n_frames, 7)) == want

    def test_metric_rejects_rows_of_another_shape(self, scene):
        rows = np.array([f.gt_pose for f in scene.frames])
        assert mean_reproj_distance(rows, scene) == 0.0
        for bad in (rows[:-1], np.vstack([rows, rows[:1]]), rows[:, :6],
                    np.hstack([rows, rows[:, :2]]), rows[..., None],
                    rows.ravel(), rows[0], np.zeros((0, 7))):
            with pytest.raises(InvalidInputError, match="parameter rows"):
                mean_reproj_distance(bad, scene)

    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           max_t=st.sampled_from([0.0, 1e-9, 0.3, 5.0]),
           max_deg=st.sampled_from([0.0, 1e-6, 2.0, 30.0, 180.0]),
           case=st.sampled_from(["perturbed", "gt", "non-unit", "nan q",
                                 "zero q"]))
    def test_pct_within_equals_the_frame_loop(self, seed, n, max_t, max_deg,
                                              case):
        # Every frame's exact errors, and one ulp below each, are
        # thresholds, so that any bit of either error would show.
        rng = np.random.default_rng(seed)
        gt = [random_pose(rng, scale=3.0) for _ in range(n)]
        est = [perturbed(p, rng, max_t, max_deg) for p in gt]
        k = rng.integers(n)
        if case == "gt":
            est[k] = gt[k]
        elif case == "non-unit":
            gt = [pose(p[:3], p[3:] * rng.uniform(0.2, 5.0)) for p in gt]
            est = [pose(p[:3], -p[3:] * rng.uniform(0.2, 5.0)) for p in est]
        elif case != "perturbed":
            est[k] = pose(est[k][:3], np.full(4, math.nan) if case == "nan q"
                          else np.zeros(4))
        thresholds = [(2.0, 2.0), (math.inf, math.inf)]
        if case != "zero q":
            for e, g in zip(est, gt):
                dt = float(np.linalg.norm(e[:3] - g[:3]))
                dr = angle_between(e[3:], g[3:])
                thresholds += [(dt, dr), (np.nextafter(dt, -1.0), dr),
                               (dt, np.nextafter(dr, -1.0))]

        def outcome(pct, est, gt):
            try:
                return pct(est, gt, thresholds)
            except InvalidInputError as e:
                return str(e)
        want = outcome(pct_within_loop, est, gt)
        assert outcome(pct_within, np.array(est), np.array(gt)) == want
        assert isinstance(want, str) == (case == "zero q")

    def test_pct_within_boundary_inclusive(self):
        gt = [identity_pose()]
        est = [pose([2.0, 0.0, 0.0], quat_from_axis_angle([0, 0, 1],
                                                          math.radians(2.0)))]
        est, gt = np.array(est), np.array(gt)
        assert pct_within(est, gt, [(2.0, 2.0)]) == [1.0]
        assert pct_within(est, gt, [(1.999, 2.0)]) == [0.0]
        assert pct_within(est, gt, [(2.0, 1.999)]) == [0.0]

    def test_pct_within_counts(self):
        gt = [identity_pose()] * 4
        est = [
            pose([0.1, 0, 0], [1, 0, 0, 0]),
            pose([5.0, 0, 0], [1, 0, 0, 0]),
            pose([0, 0, 0], quat_from_axis_angle([1, 0, 0],
                                                 math.radians(30.0))),
            identity_pose(),
        ]
        assert pct_within(np.array(est), np.array(gt), [(1.0, 5.0)]) == \
            [0.5]

    def test_pct_within_nan_rotation_not_within(self):
        est = [pose([0.0, 0.0, 0.0], [math.nan] * 4), identity_pose()]
        assert pct_within(np.array(est), np.array([identity_pose()] * 2),
                          [(1.0, 180.0)]) == [0.5]

    def test_pct_within_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            pct_within(np.array([identity_pose()]), np.zeros((0, 7)),
                       [(1.0, 1.0)])

    def test_pct_within_needs_a_pose(self):
        with pytest.raises(InvalidInputError):
            pct_within(np.zeros((0, 7)), np.zeros((0, 7)), [(1.0, 1.0)])

    def test_pct_within_rejects_rows_of_another_shape(self):
        rows = np.array([identity_pose()] * 3)
        for bad in (rows[:, :6], np.hstack([rows, rows[:, :1]]), rows[0],
                    rows[..., None]):
            with pytest.raises(InvalidInputError, match="row"):
                pct_within(bad, bad, [(1.0, 1.0)])

    def test_mrd_pairs_estimates_with_frames(self, scene):
        rng = np.random.default_rng(0)
        est = [(f.id, perturb_pose(f.gt_pose, rng, 0.1, 2.0))
               for f in scene.frames]
        assert mean_reproj_distance(est, scene) > 0.0
        for bad in (est[::-1], est[:1], est[:-1], est + est[:1],
                    [("other", p) for _, p in est]):
            with pytest.raises(InvalidInputError, match="per scene frame"):
                mean_reproj_distance(bad, scene)


class TestSweeps:
    def ctx(self):
        return LossContext(gt=identity_pose(), slab=SlabParams(2.0, 6.0))

    def test_apply_offset_translation(self):
        p = apply_offset(identity_pose(), "tz", 0.5)
        np.testing.assert_array_equal(p[:3], [0.0, 0.0, 0.5])

    def test_apply_offset_rotation_degrees(self):
        p = apply_offset(identity_pose(), "roty", 90.0)
        R = quat_to_rotmat(p[3:])
        np.testing.assert_allclose(R @ [0, 0, 1], [1, 0, 0], atol=1e-15)

    def test_apply_offset_rotation_in_camera_frame(self):
        # Offsets rotate about the camera's own axis: conjugating the base
        # pose must commute with the offset.
        base = pose([1.0, 2.0, 3.0], quat_from_axis_angle([1, 1, 0], 0.7))
        p = apply_offset(base, "rotz", 10.0)
        expected_R = quat_to_rotmat(base[3:]) @ quat_to_rotmat(
            quat_from_axis_angle([0, 0, 1], math.radians(10.0))
        )
        np.testing.assert_allclose(quat_to_rotmat(p[3:]), expected_R,
                                   atol=1e-14)

    def test_apply_offset_unknown_axis(self):
        with pytest.raises(InvalidInputError):
            apply_offset(identity_pose(), "qx", 0.1)

    def test_sweep_1d_shape_and_minimum(self):
        offsets = np.linspace(-1.0, 1.0, 21)
        for kind in ("posenet", "homography_local"):
            rows = landscape_sweep(kind, self.ctx(), "tx", offsets)
            assert len(rows) == 21
            vals = [v for _, v in rows]
            assert np.argmin(vals) == 10
            assert vals[10] == 0.0

    def test_sweep_2d_shape(self):
        rows = landscape_sweep(
            "posenet", self.ctx(), "tx", [-1, 0, 1],
            axis2="roty", offsets2=[-5, 0, 5],
        )
        assert len(rows) == 9
        assert rows[4] == (0.0, 0.0, 0.0)

    def test_sweep_nan_on_error(self):
        # geometric kind without points -> every cell evaluates to NaN
        rows = landscape_sweep(
            "geometric", LossContext(gt=identity_pose()), "tx", [-1, 0, 1],
        )
        assert all(math.isnan(v) for _, v in rows)

    @pytest.mark.parametrize("kind,ctx", [
        ("homography_local", LossContext(gt=identity_pose())),
        ("geometric", LossContext(gt=identity_pose(),
                                  points=[[0.0, 0.0, 3.0]])),
    ])
    def test_sweep_nan_on_missing_input(self, kind, ctx):
        # A context without slab or intrinsics is invalid input in each
        # cell, not an AttributeError out of the sweep.
        errors = []
        rows = landscape_sweep(kind, ctx, "tx", [-1, 0, 1], errors=errors)
        assert all(math.isnan(v) for _, v in rows)
        assert len(errors) == 3
        assert errors[0].endswith(("needs slab parameters",
                                   "needs camera intrinsics"))

    def test_sweep_propagates_non_domain_errors(self, monkeypatch):
        # Only InvalidInputError becomes a NaN cell; a bug must surface.
        def broken(*args):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(losses, "_posenet_core", broken)
        with pytest.raises(ZeroDivisionError):
            landscape_sweep("posenet", self.ctx(), "tx", [-1, 0, 1])

    def test_too_few_steps(self):
        with pytest.raises(InvalidInputError):
            landscape_sweep("posenet", self.ctx(), "tx", [0.0])

    @pytest.mark.parametrize("offsets2", [[], [0.0]])
    def test_too_few_steps_on_the_second_axis(self, offsets2):
        with pytest.raises(InvalidInputError, match="per axis"):
            landscape_sweep("posenet", self.ctx(), "tx", [-1.0, 1.0],
                            axis2="roty", offsets2=offsets2)

    @pytest.mark.parametrize("offsets, offsets2, bad", [
        ([math.nan, 1.0], None, "nan"), ([0.0, math.inf], None, "inf"),
        ([-1.0, 1.0], [0.0, -math.inf], "-inf")])
    def test_non_finite_offsets_rejected(self, offsets, offsets2, bad):
        with pytest.raises(InvalidInputError,
                           match=f"sweep offsets must be finite, got {bad}$"):
            landscape_sweep("posenet", self.ctx(), "tx", offsets,
                            None if offsets2 is None else "roty", offsets2)

    @settings(deadline=None, max_examples=150)
    @given(kind=st.sampled_from(LOSS_KINDS + ("geometric without points",)),
           frame=st.integers(0, 7),
           axis=st.sampled_from(SWEEP_AXES),
           axis2=st.none() | st.sampled_from(SWEEP_AXES),
           offsets=st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=4),
           offsets2=st.lists(st.floats(-90.0, 90.0), min_size=2,
                             max_size=4))
    def test_sweep_cells_are_loss_values(self, scene, slabs, kind, frame,
                                         axis, axis2, offsets, offsets2):
        # Each cell is loss_value at its offset pose, bit for bit, or NaN
        # where that evaluation is a domain error.
        if kind == "geometric without points":
            kind, ctx = "geometric", LossContext(gt=scene.gt[frame])
        else:
            slab = global_slab(scene) if kind == "homography_global" \
                else slabs
            ctx = frame_context(scene, frame, kind, LossHyperParams(), slab)
        rows = landscape_sweep(kind, ctx, axis, offsets, axis2, offsets2)
        cells = [(o,) for o in offsets] if axis2 is None else \
            [(o, o2) for o in offsets for o2 in offsets2]
        assert len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            assert row[:-1] == cell
            est = apply_offset(ctx.gt, axis, cell[0])
            if axis2 is not None:
                est = apply_offset(est, axis2, cell[1])
            try:
                want = loss_value(kind, params_for(kind, est, ctx), ctx)
            except InvalidInputError:
                want = float("nan")
            assert repr(row[-1]) == repr(want)

    @staticmethod
    def hexes(rows):
        return [[float.hex(float(x)) for x in row] for row in rows]

    @settings(deadline=None, max_examples=200)
    @given(n=st.sampled_from([7, 9]),
           rows=st.lists(st.lists(SIGNED_FLOATS, min_size=9, max_size=9),
                         min_size=1, max_size=3),
           axis=st.sampled_from(SWEEP_AXES),
           axis2=st.none() | st.sampled_from(SWEEP_AXES),
           offsets=st.lists(OFFSETS, max_size=4),
           offsets2=st.lists(OFFSETS, max_size=4))
    def test_offset_rows_equal_the_cell_loop(self, n, rows, axis, axis2,
                                             offsets, offsets2):
        # The one offset grid has the bits of offsetting each cell's copy
        # in turn: 1-D and 2-D, 7 and 9 parameters, signed zeros, no
        # offsets, and rotations up to a full turn either way.
        rows = np.array(rows)[:, :n]
        grid = offset_rows(rows, axis, offsets)
        loop = [offset_params(row, axis, off) for row in rows
                for off in offsets]
        if axis2 is not None:
            grid = offset_rows(grid, axis2, offsets2)
            loop = [offset_params(row, axis2, off2) for row in loop
                    for off2 in offsets2]
        assert grid.shape == (len(loop), n)
        assert self.hexes(grid) == self.hexes(loop)

    @settings(deadline=None, max_examples=100)
    @given(kind=st.sampled_from(LOSS_KINDS + ("geometric without points",)),
           frame=st.integers(0, 7),
           axis=st.sampled_from(SWEEP_AXES),
           axis2=st.none() | st.sampled_from(SWEEP_AXES),
           offsets=st.lists(OFFSETS, min_size=2, max_size=4),
           offsets2=st.lists(OFFSETS, min_size=2, max_size=4))
    def test_sweep_equals_the_cell_loop(self, scene, slabs, kind, frame,
                                        axis, axis2, offsets, offsets2):
        # Rows, NaN cells and error messages of the sweep that offset each
        # cell's parameters in turn, bit for bit.
        if kind == "geometric without points":
            kind, ctx = "geometric", LossContext(gt=scene.gt[frame])
        else:
            slab = global_slab(scene) if kind == "homography_global" \
                else slabs
            ctx = frame_context(scene, frame, kind, LossHyperParams(), slab)
        if axis2 is None:
            offsets2 = None
        errors, loop_errors = [], []
        rows = landscape_sweep(kind, ctx, axis, offsets, axis2, offsets2,
                               errors)
        loop = landscape_sweep_loop(kind, ctx, axis, offsets, axis2,
                                    offsets2, loop_errors)
        assert self.hexes(rows) == self.hexes(loop)
        assert errors == loop_errors

    def test_perturb_pose_within_bounds(self):
        rng = np.random.default_rng(0)
        base = identity_pose()
        for _ in range(200):
            p = perturb_pose(base, rng, max_t=0.3, max_deg=5.0)
            assert np.linalg.norm(p[:3]) <= 0.3
            assert angle_between(p[3:], base[3:]) <= 5.0 + 1e-9

    @pytest.mark.parametrize("max_t, max_deg", [
        (-0.1, 5.0), (0.3, -1.0), (math.nan, 5.0), (0.3, math.nan),
        (math.inf, 5.0), (0.3, math.inf)])
    def test_perturb_pose_rejects_bad_bounds(self, max_t, max_deg):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError, match="perturbation bounds"):
            perturb_pose(identity_pose(), rng, max_t, max_deg)

    def test_perturb_pose_zero_bounds_keep_the_pose(self):
        p = perturb_pose(identity_pose(), np.random.default_rng(0), 0.0, 0.0)
        assert np.all(p[:3] == 0.0) and angle_between(p[3:], [1, 0, 0, 0]) == 0

    @settings(deadline=None, max_examples=500)
    @given(seed=st.integers(0, 2**32 - 1),
           row=st.lists(SIGNED_FLOATS | st.sampled_from(
               [1e-200, math.inf, math.nan]), min_size=7, max_size=7),
           max_t=st.floats(0.0, 1e3) | st.sampled_from([0.0, -0.0]),
           max_deg=st.floats(0.0, 720.0) | st.sampled_from([0.0, -0.0]))
    def test_perturb_pose_equals_the_array_form(self, seed, row, max_t,
                                                max_deg):
        # The plain floats have the bits of the array form, zero and
        # non-unit q, signed zeros and bounds of -0.0 among them, and
        # leave the generator where the array form's four draws do.
        rng, rng_array = (np.random.default_rng(seed) for _ in range(2))
        got = perturb_pose(row, rng, max_t, max_deg)
        with np.errstate(all="ignore"):
            want = perturb_pose_array(row, rng_array, max_t, max_deg)
        assert got.shape == (7,) and self.hexes([got]) == self.hexes([want])
        assert rng.bit_generator.state == rng_array.bit_generator.state


class TestEpochBatches:
    def test_single_batch_keeps_remainder(self):
        assert _epoch_batches([3, 1, 2], 64) == [[3, 1, 2]]

    def test_drops_last_partial_batch(self):
        batches = _epoch_batches(list(range(10)), 4)
        assert [len(b) for b in batches] == [4, 4]

    def test_exact_multiple(self):
        batches = _epoch_batches(list(range(8)), 4)
        assert [len(b) for b in batches] == [4, 4]


@pytest.fixture(scope="module")
def tiny():
    return synth_scene(seed=3, n_points=40, n_frames=3)


class TestOptimizePoses:

    def test_stays_at_gt(self):
        # Initialized at the ground truth, the pose parameters must not move.
        # Adam turns any nonzero gradient into an lr-sized step, so this only
        # holds because the gradients are exactly zero there; gt quaternions
        # are chosen exactly unit so normalization is exact.
        from homoloss.scene import Frame, Scene, local_slabs as mk_slabs
        K = Intrinsics(fx=100.0, fy=100.0, cx=100.0, cy=100.0, w=200, h=200)
        rng = np.random.default_rng(0)
        pts = np.round(rng.uniform(3.0, 5.0, size=(10, 3)) * 4) / 4
        frames = [
            Frame("f0", pose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
                  tuple(range(10))),
            Frame("f1", pose([0.5, -0.25, 0.0], [0.5, 0.5, 0.5, 0.5]),
                  tuple(range(10))),
        ]
        exact = Scene(points=pts, frames=frames, intrinsics=K)
        slabs = mk_slabs(exact)
        for kind in ("posenet", "geometric", "homography_local"):
            cfg = OptimConfig(loss_kind=kind, epochs=5, slab=slabs, seed=0)
            rec = optimize_poses(
                exact, [f.gt_pose for f in exact.frames], cfg
            )
            np.testing.assert_array_equal(
                rec.final_params, np.array([f.gt_pose for f in exact.frames]))

    def test_reduces_error(self, tiny):
        rng = np.random.default_rng(7)
        init = [perturbed(f.gt_pose, rng, 0.1, 3.0) for f in tiny.frames]
        cfg = OptimConfig(loss_kind="homography_local", lr=1e-3, epochs=200,
                          slab=local_slabs(tiny), seed=0)
        rec = optimize_poses(tiny, init, cfg)
        start = mean_reproj_distance(
            [(f.id, p) for f, p in zip(tiny.frames, init)], tiny
        )
        assert rec.epochs[-1].train_mrd < 0.1 * start

    def test_deterministic(self, tiny):
        rng = np.random.default_rng(8)
        init = [perturbed(f.gt_pose, rng, 0.1, 3.0) for f in tiny.frames]
        cfg = OptimConfig(loss_kind="posenet", epochs=20, seed=5)
        a, b = (optimize_poses(tiny, init, cfg) for _ in range(2))
        assert a.epochs == b.epochs
        np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_homoscedastic_records_s(self, tiny):
        cfg = OptimConfig(loss_kind="homoscedastic", epochs=3, seed=0,
                          hyper=LossHyperParams())
        rec = optimize_poses(tiny, [f.gt_pose for f in tiny.frames], cfg)
        assert rec.epochs[0].s_t == 0.0
        assert rec.epochs[0].s_q == -3.0

    def make_partial_scene(self, tiny, n_empty):
        # Copies of the tiny scene where the first n_empty frames see no
        # points; the geometric loss then errors on those frames each step.
        from homoloss.scene import Frame, Scene
        frames = [
            Frame(f.id, f.gt_pose,
                  () if i < n_empty else f.visible)
            for i, f in enumerate(tiny.frames)
        ]
        return Scene(points=tiny.points, frames=frames,
                     intrinsics=tiny.intrinsics)

    def test_errored_frames_logged_and_skipped(self, tiny):
        scene = self.make_partial_scene(tiny, n_empty=1)
        cfg = OptimConfig(loss_kind="geometric", epochs=2, seed=0)
        rec = optimize_poses(scene, [f.gt_pose for f in scene.frames], cfg)
        assert not rec.aborted
        assert any("f000" in e for e in rec.errors)
        assert len(rec.epochs) == 2

    def make_zero_depth_scene(self, tiny):
        # The tiny scene, but its first frame, at the identity, sees one
        # point at exactly zero gt depth.
        from homoloss.scene import Frame, Scene
        points = np.vstack([tiny.points, [1.0, 0.0, 0.0]])
        first = Frame(tiny.frames[0].id, identity_pose(), (len(points) - 1,))
        return Scene(points=points, frames=(first, *tiny.frames[1:]),
                     intrinsics=tiny.intrinsics)

    def test_skipped_frame_logged_once(self, tiny):
        # A frame that errors on every step is one line, not one per step.
        scene = self.make_partial_scene(tiny, n_empty=1)
        cfg = OptimConfig(loss_kind="geometric", epochs=6, seed=0)
        rec = optimize_poses(scene, [f.gt_pose for f in scene.frames], cfg)
        assert not rec.aborted
        assert len(rec.errors) == 1
        assert rec.errors[0].startswith(f"frame {scene.frames[0].id}: ")
        assert rec.errors[0].endswith("(skipped from epoch 0, 6 steps)")

    @pytest.mark.parametrize("kind", ["geometric", "posenet"])
    def test_zero_gt_depth_scene_rejected_before_any_step(
            self, tiny, monkeypatch, kind):
        # A visible point at zero gt depth has no gt pixel, so the scene
        # rejects its frame when it is built (test_mrd_zero_gt_depth_rejected)
        # whatever the loss: no run starts and no loss is evaluated.
        evaluated = []
        monkeypatch.setattr(optim.diffgrad, "evaluate_with_grad",
                            lambda *args: evaluated.append(args))
        cfg = OptimConfig(loss_kind=kind, epochs=6, seed=0)
        with pytest.raises(InvalidInputError) as e:
            optimize_poses(self.make_zero_depth_scene(tiny),
                           [f.gt_pose for f in tiny.frames], cfg)
        assert str(e.value) == f"frame {tiny.frames[0].id}: a visible " \
            f"point lies at zero gt depth or has a non-finite gt pixel"
        assert evaluated == []

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_zero_initial_quaternion_rejected_before_any_step(
            self, monkeypatch, kind):
        # Frame 1 starts at q = 0. The run raises the metric's error for it
        # before it calls any loss kernel, a warm start's included; else
        # some kinds would run an epoch first and posenet would not raise.
        scene = synth_scene(seed=3, n_points=40, n_frames=4)
        called = []
        for name in ("_posenet_core", "_homoscedastic_core",
                     "_geometric_core", "_maxerror_core", "_homography_core"):
            monkeypatch.setattr(losses, name,
                                lambda *args: called.append(args))
        init = [f.gt_pose for f in scene.frames]
        init[1] = pose(init[1][:3], np.zeros(4))
        slab = {"homography_local": local_slabs,
                "homography_global": global_slab}.get(kind)
        cfg = OptimConfig(loss_kind=kind, epochs=3, warmstart_epochs=2,
                          seed=0, slab=slab and slab(scene))
        with pytest.raises(InvalidInputError) as e:
            optimize_poses(scene, init, cfg)
        with pytest.raises(InvalidInputError) as metric:
            mean_reproj_distance([(f.id, p) for f, p in
                                  zip(scene.frames, init)], scene)
        assert str(e.value) == str(metric.value) == \
            f"frame {scene.frames[1].id}: zero-norm quaternion"
        assert called == []

    def test_gt_projected_once_per_frame(self, tiny, monkeypatch):
        # Each frame's context projects its gt points on first use and
        # reuses them in every later step; each estimate is projected anew.
        calls = []

        def spy(t, R, K, points):
            calls.append(next((i for i, f in enumerate(tiny.frames)
                               if np.array_equal(t, f.gt_pose[:3])), None))
            return project_points(t, R, K, points)
        monkeypatch.setattr(losses, "project_points", spy)
        rng = np.random.default_rng(4)
        init = [perturbed(f.gt_pose, rng, 0.1, 2.0) for f in tiny.frames]
        cfg = OptimConfig(loss_kind="geometric", epochs=4, seed=0)
        optimize_poses(tiny, init, cfg)
        F = len(tiny.frames)
        assert sorted(i for i in calls if i is not None) == list(range(F))
        assert calls.count(None) == 4 * F

    def test_batch_without_an_evaluated_frame_takes_no_step(
            self, monkeypatch):
        # Batches of one over four frames, one of which always errors: its
        # batch has no loss to average, so Adam steps 3 times per epoch.
        scene = self.make_partial_scene(
            synth_scene(seed=3, n_points=40, n_frames=4), n_empty=1)
        steps = []

        def spy(*args):
            steps.append(args[2].step)
            return adam_update(*args)
        monkeypatch.setattr(optim, "adam_update", spy)
        cfg = OptimConfig(loss_kind="geometric", epochs=2, batch_size=1,
                          seed=0)
        rec = optimize_poses(scene, [f.gt_pose for f in scene.frames], cfg)
        assert steps == list(range(6))
        assert not rec.aborted and len(rec.epochs) == 2
        assert all(math.isfinite(e.mean_loss) for e in rec.epochs)
        assert rec.errors[0].endswith("(skipped from epoch 0, 2 steps)")

    def test_aborts_when_most_frames_error(self, tiny):
        scene = self.make_partial_scene(tiny, n_empty=len(tiny.frames) - 1)
        cfg = OptimConfig(loss_kind="geometric", epochs=5, seed=0)
        rec = optimize_poses(scene, [f.gt_pose for f in scene.frames], cfg)
        assert rec.aborted
        assert any("aborted" in e for e in rec.errors)

    def test_non_domain_errors_propagate(self, tiny, monkeypatch):
        # Only InvalidInputError skips a frame; a bug must not be logged
        # away as a skipped frame.
        def broken(*args):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(losses, "_posenet_core", broken)
        cfg = OptimConfig(loss_kind="posenet", epochs=2, seed=0)
        with pytest.raises(ZeroDivisionError):
            optimize_poses(tiny, [f.gt_pose for f in tiny.frames], cfg)

    def test_slab_required_for_homography(self, tiny):
        cfg = OptimConfig(loss_kind="homography_local", epochs=1)
        with pytest.raises(InvalidInputError):
            optimize_poses(tiny, [f.gt_pose for f in tiny.frames], cfg)

    def test_init_count_mismatch(self, tiny):
        cfg = OptimConfig(loss_kind="posenet", epochs=1)
        with pytest.raises(InvalidInputError):
            optimize_poses(tiny, [identity_pose()], cfg)

    def warm_failing(self, monkeypatch, fails):
        """Make the homoscedastic kernel raise for the frames whose gt pose
        fails(gt) accepts."""
        kernel = losses._homoscedastic_core

        def failing(p, ctx, grad):
            if fails(ctx.gt):
                raise InvalidInputError("warm failure")
            return kernel(p, ctx, grad)
        monkeypatch.setattr(losses, "_homoscedastic_core", failing)

    def test_warmstart_errors_come_first(self, tiny, monkeypatch):
        self.warm_failing(monkeypatch,
                          lambda gt: np.array_equal(gt,
                                                    tiny.frames[0].gt_pose))
        cfg = OptimConfig(loss_kind="posenet", epochs=2, warmstart_epochs=3,
                          seed=0)
        rec = optimize_poses(tiny, [f.gt_pose for f in tiny.frames], cfg)
        assert not rec.aborted and len(rec.epochs) == 2
        assert rec.errors == ["warm start: frame f000: warm failure "
                              "(skipped from epoch 0, 3 steps)"]

    def test_warmstart_abort_ends_the_run(self, tiny, monkeypatch):
        self.warm_failing(monkeypatch, lambda gt: True)
        cfg = OptimConfig(loss_kind="posenet", epochs=2, warmstart_epochs=3,
                          seed=0)
        init = [f.gt_pose for f in tiny.frames]
        rec = optimize_poses(tiny, init, cfg)
        assert rec.aborted and rec.epochs == []
        skipped = [f"warm start: frame {f.id}: warm failure (skipped from "
                   f"epoch 0, 1 steps)" for f in tiny.frames]
        assert rec.errors == skipped + [
            "warm start: epoch 0: aborted, 3/3 frames errored"]
        assert rec.final_params.tolist() == np.array(init).tolist()

    @pytest.mark.parametrize("kind, index, value, frame", [
        ("posenet", 7 + 4, 1e200, "f001"),  # finite, but |q|^2 overflows
        ("posenet", 14, math.nan, "f002"),
        ("geometric", 3, -math.inf, "f000"),
        ("homoscedastic", 21, math.inf, "f000")])  # s_t, read by every frame
    def test_diverging_epoch_aborts_with_its_start(self, tiny, monkeypatch,
                                                   kind, index, value, frame):
        # One batch per epoch: the third Adam step writes value, so the run
        # aborts in epoch 2 with the rows that epoch 1 ended with.
        rng = np.random.default_rng(4)
        init = [perturbed(f.gt_pose, rng, 0.1, 3.0) for f in tiny.frames]
        cfg = OptimConfig(loss_kind=kind, lr=1e-3, epochs=2, seed=0)
        clean = optimize_poses(tiny, init, cfg)
        step = optim.adam_update

        def poisoned(params, grads, state, config):
            params, state = step(params, grads, state, config)
            if state.step == 3:
                params[index] = value
            return params, state
        monkeypatch.setattr(optim, "adam_update", poisoned)
        cfg.epochs = 5
        rec = optimize_poses(tiny, init, cfg)
        assert rec.aborted and rec.epochs == clean.epochs
        assert rec.errors == [f"epoch 2: aborted, frame {frame}: a parameter "
                              f"is not finite or |q|^2 overflows"]
        assert record_bits(rec)[1] == record_bits(clean)[1]

    def test_diverging_warm_start_ends_the_run(self, tiny):
        rng = np.random.default_rng(4)
        init = [perturbed(f.gt_pose, rng, 0.1, 3.0) for f in tiny.frames]
        cfg = OptimConfig(loss_kind="posenet", lr=1e300, epochs=3,
                          warmstart_epochs=2, seed=0)
        rec = optimize_poses(tiny, init, cfg)
        assert rec.aborted and rec.epochs == []
        assert rec.errors == ["warm start: epoch 0: aborted, frame f000: a "
                              "parameter is not finite or |q|^2 overflows"]
        assert rec.final_params.tolist() == np.array(init).tolist()

    def test_warmstart_runs_pre_phase(self, tiny):
        rng = np.random.default_rng(9)
        init = [perturbed(f.gt_pose, rng, 0.2, 5.0) for f in tiny.frames]
        cfg = OptimConfig(loss_kind="geometric", lr=1e-3, epochs=5,
                          warmstart_epochs=50, seed=0)
        rec = optimize_poses(tiny, init, cfg)
        cfg_plain = OptimConfig(loss_kind="geometric", lr=1e-3, epochs=5,
                                seed=0)
        rec_plain = optimize_poses(tiny, init, cfg_plain)
        # warm start should leave the run strictly closer to gt
        assert rec.epochs[-1].train_mrd < rec_plain.epochs[-1].train_mrd


def record_bits(rec):
    """Every field of a RunRecord, its floats as float.hex, so that ==
    compares bits (signed zeros and NaNs too)."""
    def bits(x):
        return None if x is None else float(x).hex()
    return ([(e.epoch, bits(e.mean_loss), bits(e.train_mrd), bits(e.s_t),
              bits(e.s_q)) for e in rec.epochs],
            rec.final_params.shape,
            [[bits(v) for v in row] for row in rec.final_params.tolist()],
            rec.errors, rec.aborted)


class TestOptimizeOnRows:
    """optimize_poses on parameter rows against the index-table loop with
    per-epoch Pose pairs that it replaced (oracles.optimize_poses_loop)."""

    scenes = {n: synth_scene(seed=3, n_points=40, n_frames=n)
              for n in range(2, 7)}

    @settings(deadline=None, max_examples=400)
    @given(kind=st.sampled_from(LOSS_KINDS), n_frames=st.integers(2, 6),
           batch_size=st.integers(1, 7), epochs=st.integers(0, 3),
           warm=st.integers(0, 2), n_empty=st.integers(0, 4),
           n_zero_q=st.sampled_from((0, 0, 0, 1, 4)),
           lr=st.sampled_from((1e-2, 1e-2, 1e-2, 1e300)),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_index_table_loop(self, kind, n_frames, batch_size,
                                         epochs, warm, n_empty, n_zero_q,
                                         lr, seed):
        # The first n_empty frames see no point, which the geometric loss
        # skips and which aborts the run when it hits more than half the
        # frames; the last n_zero_q start at a zero q, which the run
        # rejects before its first step, so most draws have none. At lr
        # 1e300 most runs diverge and abort with their epoch's start.
        base = self.scenes[n_frames]
        if kind == "homography_local":
            n_empty = 0  # its slab needs every frame's depths
        elif kind == "homography_global":
            n_empty = min(n_empty, n_frames - 1)  # and this one some frame's
        frames = [Frame(f.id, f.gt_pose, () if i < n_empty else f.visible)
                  for i, f in enumerate(base.frames)]
        scene = Scene(points=base.points, frames=frames,
                      intrinsics=base.intrinsics)
        rng = np.random.default_rng(seed)
        init = [perturbed(f.gt_pose, rng, 0.2, 5.0) for f in frames]
        for i in range(n_frames - min(n_zero_q, n_frames), n_frames):
            init[i] = pose(init[i][:3], np.zeros(4))
        slab = {"homography_local": local_slabs,
                "homography_global": global_slab}.get(kind)
        cfg = OptimConfig(loss_kind=kind, lr=lr, epochs=epochs,
                          batch_size=batch_size, seed=seed,
                          warmstart_epochs=warm,
                          slab=slab and slab(scene))

        def outcome(run):
            try:
                return record_bits(run(scene, init, cfg))
            except InvalidInputError as e:
                return str(e)
        assert outcome(optimize_poses) == outcome(optimize_poses_loop)
