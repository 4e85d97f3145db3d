import io
import math

import numpy as np
import pytest

from conftest import perturbed
from homoloss import losses
from homoloss.diffgrad import LossContext
from homoloss.geometry import (
    InvalidInputError,
    Intrinsics,
    Pose,
    angle_between,
    quat_from_axis_angle,
    quat_to_rotmat,
)
from homoloss.losses import LossHyperParams, SlabParams
from homoloss.optim import (
    AdamState,
    OptimConfig,
    adam_update,
    apply_offset,
    default_adam_eps,
    landscape_sweep,
    mean_reproj_distance,
    optimize_poses,
    pct_within,
    perturb_pose,
    _epoch_batches,
)
from homoloss.scene import local_slabs, synth_scene


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
        assert default_adam_eps("homography_local") == 1e-14
        assert default_adam_eps("homography_global") == 1e-14
        assert default_adam_eps("posenet") == 1e-8
        assert default_adam_eps("geometric") == 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            adam_update(np.zeros(3), np.zeros(2), AdamState.zeros(3),
                        self.cfg())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            OptimConfig(loss_kind="posenet", lr=0.0)
        with pytest.raises(InvalidInputError):
            OptimConfig(loss_kind="posenet", batch_size=0)
        with pytest.raises(InvalidInputError):
            OptimConfig(loss_kind="posenet", adam_beta1=1.0)


class TestMetrics:
    def small_scene(self):
        K = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, w=200, h=200)
        from homoloss.scene import Frame, Scene
        pts = np.array([[0.0, 0.0, 1.0]])
        frame = Frame("f0", Pose.identity(), (0,))
        return Scene(points=pts, frames=[frame], intrinsics=K)

    def test_mrd_three_four_five(self):
        scene = self.small_scene()
        est = Pose([-0.03, -0.04, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert mean_reproj_distance([("f0", est)], scene) == pytest.approx(5.0)

    def test_mrd_zero_at_gt(self):
        scene = self.small_scene()
        assert mean_reproj_distance([("f0", Pose.identity())], scene) == 0.0

    def test_mrd_clip_saturation(self):
        scene = self.small_scene()
        est = Pose([-5.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        assert mean_reproj_distance([("f0", est)], scene, clip=10.0) == 10.0

    def test_mrd_monotone_in_clip(self):
        scene = self.small_scene()
        est = Pose([-5.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        vals = [
            mean_reproj_distance([("f0", est)], scene, clip=c)
            for c in (10.0, 100.0, 1000.0)
        ]
        assert vals == sorted(vals)

    def test_mrd_infinity_counts_clip(self):
        # point lands in the est camera's x-y plane -> depth ~ 0
        scene = self.small_scene()
        est = Pose([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        assert mean_reproj_distance([("f0", est)], scene, clip=77.0) == 77.0

    def test_mrd_zero_gt_depth_rejected(self):
        from homoloss.scene import Frame, Scene

        scene = self.small_scene()
        flat = Scene(points=np.array([[0.5, 0.0, 0.0]]),
                     frames=[Frame("f0", Pose.identity(), (0,))],
                     intrinsics=scene.intrinsics)
        with pytest.raises(InvalidInputError, match="zero gt depth"):
            mean_reproj_distance([("f0", Pose.identity())], flat)

    def test_pct_within_boundary_inclusive(self):
        gt = [Pose.identity()]
        est = [Pose([2.0, 0.0, 0.0], quat_from_axis_angle([0, 0, 1],
                                                          math.radians(2.0)))]
        assert pct_within(est, gt, 2.0, 2.0) == 1.0
        assert pct_within(est, gt, 1.999, 2.0) == 0.0
        assert pct_within(est, gt, 2.0, 1.999) == 0.0

    def test_pct_within_counts(self):
        gt = [Pose.identity()] * 4
        est = [
            Pose([0.1, 0, 0], [1, 0, 0, 0]),
            Pose([5.0, 0, 0], [1, 0, 0, 0]),
            Pose([0, 0, 0], quat_from_axis_angle([1, 0, 0],
                                                 math.radians(30.0))),
            Pose.identity(),
        ]
        assert pct_within(est, gt, 1.0, 5.0) == 0.5

    def test_pct_within_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            pct_within([Pose.identity()], [], 1.0, 1.0)


class TestSweeps:
    def ctx(self):
        return LossContext(gt=Pose.identity(), slab=SlabParams(2.0, 6.0))

    def test_apply_offset_translation(self):
        p = apply_offset(Pose.identity(), "tz", 0.5)
        np.testing.assert_array_equal(p.t, [0.0, 0.0, 0.5])

    def test_apply_offset_rotation_degrees(self):
        p = apply_offset(Pose.identity(), "roty", 90.0)
        R = quat_to_rotmat(p.q)
        np.testing.assert_allclose(R @ [0, 0, 1], [1, 0, 0], atol=1e-15)

    def test_apply_offset_rotation_in_camera_frame(self):
        # Offsets rotate about the camera's own axis: conjugating the base
        # pose must commute with the offset.
        base = Pose([1.0, 2.0, 3.0], quat_from_axis_angle([1, 1, 0], 0.7))
        p = apply_offset(base, "rotz", 10.0)
        expected_R = quat_to_rotmat(base.q) @ quat_to_rotmat(
            quat_from_axis_angle([0, 0, 1], math.radians(10.0))
        )
        np.testing.assert_allclose(quat_to_rotmat(p.q), expected_R,
                                   atol=1e-14)

    def test_apply_offset_unknown_axis(self):
        with pytest.raises(InvalidInputError):
            apply_offset(Pose.identity(), "qx", 0.1)

    def test_sweep_1d_shape_and_minimum(self):
        offsets = np.linspace(-1.0, 1.0, 21)
        grids = landscape_sweep(
            Pose.identity(), "tx", offsets,
            ["posenet", "homography_local"], self.ctx()
        )
        for kind, rows in grids.items():
            assert len(rows) == 21
            vals = [v for _, v in rows]
            assert np.argmin(vals) == 10
            assert vals[10] == 0.0

    def test_sweep_2d_shape(self):
        grids = landscape_sweep(
            Pose.identity(), "tx", [-1, 0, 1], ["posenet"], self.ctx(),
            axis2="roty", offsets2=[-5, 0, 5],
        )
        rows = grids["posenet"]
        assert len(rows) == 9
        assert rows[4] == (0.0, 0.0, 0.0)

    def test_sweep_nan_on_error(self):
        # geometric kind without points -> every cell evaluates to NaN
        grids = landscape_sweep(
            Pose.identity(), "tx", [-1, 0, 1], ["geometric"],
            LossContext(gt=Pose.identity()),
        )
        assert all(math.isnan(v) for _, v in grids["geometric"])

    def test_sweep_propagates_non_domain_errors(self, monkeypatch):
        # Only InvalidInputError becomes a NaN cell; a bug must surface.
        def broken(*args):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(losses, "_posenet_core", broken)
        with pytest.raises(ZeroDivisionError):
            landscape_sweep(Pose.identity(), "tx", [-1, 0, 1], ["posenet"],
                            self.ctx())

    def test_too_few_steps(self):
        with pytest.raises(InvalidInputError):
            landscape_sweep(Pose.identity(), "tx", [0.0], ["posenet"],
                            self.ctx())

    def test_perturb_pose_within_bounds(self):
        rng = np.random.default_rng(0)
        base = Pose.identity()
        for _ in range(200):
            p = perturb_pose(base, rng, max_t=0.3, max_deg=5.0)
            assert np.linalg.norm(p.t) <= 0.3
            assert angle_between(p.q, base.q) <= 5.0 + 1e-9


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
            Frame("f0", Pose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
                  tuple(range(10))),
            Frame("f1", Pose([0.5, -0.25, 0.0], [0.5, 0.5, 0.5, 0.5]),
                  tuple(range(10))),
        ]
        exact = Scene(points=pts, frames=frames, intrinsics=K)
        slabs = mk_slabs(exact)
        for kind in ("posenet", "geometric", "homography_local"):
            cfg = OptimConfig(loss_kind=kind, epochs=5, slab=slabs, seed=0)
            rec = optimize_poses(
                exact, [f.gt_pose for f in exact.frames], cfg
            )
            for (_, est), f in zip(rec.final_poses, exact.frames):
                np.testing.assert_array_equal(est.t, f.gt_pose.t)
                np.testing.assert_array_equal(est.q, f.gt_pose.q)

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
        bufs = []
        for rec in (a, b):
            buf = io.StringIO()
            rec.write_csv(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        for (_, pa), (_, pb) in zip(a.final_poses, b.final_poses):
            np.testing.assert_array_equal(pa.t, pb.t)
            np.testing.assert_array_equal(pa.q, pb.q)

    def test_homoscedastic_records_s(self, tiny):
        cfg = OptimConfig(loss_kind="homoscedastic", epochs=3, seed=0,
                          hyper=LossHyperParams())
        rec = optimize_poses(tiny, [f.gt_pose for f in tiny.frames], cfg)
        assert rec.epochs[0].s_t == 0.0
        assert rec.epochs[0].s_q == -3.0
        buf = io.StringIO()
        rec.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epoch,mean_loss,train_mrd_px,s_t,s_q"
        assert lines[1].endswith(",0,-3")

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

    def test_skipped_frame_logged_once(self, tiny):
        # A frame that errors on every step is one line, not one per step.
        scene = self.make_partial_scene(tiny, n_empty=1)
        cfg = OptimConfig(loss_kind="geometric", epochs=6, seed=0)
        rec = optimize_poses(scene, [f.gt_pose for f in scene.frames], cfg)
        assert not rec.aborted
        assert len(rec.errors) == 1
        assert rec.errors[0].startswith(f"frame {scene.frames[0].id}: ")
        assert rec.errors[0].endswith("(skipped from epoch 0, 6 steps)")

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
            optimize_poses(tiny, [Pose.identity()], cfg)

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
