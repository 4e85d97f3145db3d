import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import perturbed, random_pose
from homoloss.diffgrad import (
    LOSS_KINDS,
    GradReport,
    LossContext,
    evaluate_with_grad,
    finite_diff_grad,
    loss_value,
    param_count,
    params_for,
)
from homoloss import losses
from homoloss.geometry import InvalidInputError, Intrinsics, Pose
from homoloss.losses import SlabParams

K = Intrinsics(fx=320.0, fy=320.0, cx=320.0, cy=320.0, w=640, h=640)
coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def make_ctx(rng):
    gt = random_pose(rng, scale=1.0)
    from homoloss.geometry import quat_to_rotmat

    # points in front of the gt camera at depths 2..6
    R = quat_to_rotmat(gt.q)
    cam = np.column_stack([
        rng.uniform(-1, 1, 12),
        rng.uniform(-1, 1, 12),
        rng.uniform(2.0, 6.0, 12),
    ])
    pts = cam @ R.T + gt.t
    return LossContext(
        gt=gt, points=pts, intrinsics=K, slab=SlabParams(2.0, 6.0)
    )


FD_STEPS = (5e-7, 1e-6, 2e-6)


def check_against_finite_differences(kind, seed):
    """Analytic gradient vs central differences on 20 random draws.

    A norm or clip kink inside the stencil makes the central difference
    step-dependent, so, as in acceptance criterion 4, a coordinate whose
    difference changes across FD_STEPS is excluded; at most 10% may be.
    """
    rng = np.random.default_rng(seed)
    excluded = total = 0
    for _ in range(20):
        ctx = make_ctx(rng)
        est = perturbed(ctx.gt, rng, max_t=0.3, max_deg=10.0)
        params = params_for(kind, est, ctx)
        _, analytic = evaluate_with_grad(kind, params, ctx)
        fds = np.stack([finite_diff_grad(kind, params, ctx, step=s)
                        for s in FD_STEPS])
        smooth = np.ptp(fds, axis=0) <= 1e-6 * (
            1.0 + np.abs(analytic) + np.abs(fds[1]))
        if smooth.any():
            rel = GradReport(analytic[smooth], fds[1][smooth]).max_rel_err
            assert rel < 1e-5, (kind, rel)
        excluded += int(np.sum(~smooth))
        total += smooth.size
    assert excluded <= 0.1 * total, (kind, excluded, total)


class TestEvaluateWithGrad:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_finite_differences(self, kind):
        check_against_finite_differences(kind, zlib.crc32(kind.encode()))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_value_matches_plain_evaluation(self, kind):
        rng = np.random.default_rng(1)
        ctx = make_ctx(rng)
        est = perturbed(ctx.gt, rng, max_t=0.2, max_deg=5.0)
        params = params_for(kind, est, ctx)
        val, _ = evaluate_with_grad(kind, params, ctx)
        # The dual-number path must reproduce the float path bit for bit.
        assert val == loss_value(kind, params, ctx)

    def test_posenet_translation_direction(self):
        # d|t_hat - t|/dt_hat is the unit vector toward the estimate.
        gt = Pose.identity()
        est = Pose([3.0, 4.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        _, g = evaluate_with_grad("posenet", est, LossContext(gt=gt))
        np.testing.assert_allclose(g[:3], [0.6, 0.8, 0.0], atol=1e-15)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_zero_pose_gradient_at_gt(self, kind):
        # gt quaternion chosen so its rotation matrix (and normalization)
        # are exact in floating point; the minimum must then be an exact
        # stationary point, not merely a small-gradient one.
        from homoloss.geometry import quat_to_rotmat

        gt = Pose([1.5, -0.25, 2.0], [0.5, 0.5, 0.5, 0.5])
        rng = np.random.default_rng(2)
        R = quat_to_rotmat(gt.q)
        cam = np.column_stack([
            rng.uniform(-1, 1, 12),
            rng.uniform(-1, 1, 12),
            rng.uniform(2.0, 6.0, 12),
        ])
        ctx = LossContext(
            gt=gt, points=cam @ R.T + gt.t, intrinsics=K,
            slab=SlabParams(2.0, 6.0),
        )
        _, g = evaluate_with_grad(kind, ctx.gt, ctx)
        # Pose part only: homoscedastic carries genuine nonzero s-gradients.
        np.testing.assert_array_equal(g[:7], np.zeros(7))

    @pytest.mark.parametrize("kind", ["geometric", "homography_local",
                                      "homography_global"])
    @given(q=st.tuples(coord, coord, coord, coord).filter(
               lambda q: sum(c * c for c in q) > 1e-6),
           t=st.tuples(coord, coord, coord),
           n=st.tuples(coord, coord, coord),
           x_min=st.floats(min_value=1e-3, max_value=1e3),
           width=st.floats(min_value=1e-3, max_value=1e3))
    def test_exact_zero_at_any_gt(self, kind, q, t, n, x_min, width):
        # Any gt quaternion, unit or not, whether or not its rotation matrix
        # is exact in floating point; the geometric loss sees 12 points in
        # front of the gt camera.
        from homoloss.geometry import quat_to_rotmat

        gt = Pose(t, q)
        cam = np.random.default_rng(5).uniform([-1, -1, 2], [1, 1, 6],
                                               (12, 3))
        ctx = LossContext(gt=gt, points=cam @ quat_to_rotmat(q).T + gt.t,
                          intrinsics=K,
                          slab=SlabParams(x_min, x_min + width, n))
        val, g = evaluate_with_grad(kind, gt, ctx)
        assert val == 0.0
        np.testing.assert_array_equal(g, np.zeros(7))

    def test_param_counts(self):
        assert param_count("homoscedastic") == 9
        for kind in LOSS_KINDS:
            if kind != "homoscedastic":
                assert param_count(kind) == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate_with_grad("frobnicate", Pose.identity(),
                               LossContext(gt=Pose.identity()))

    def test_wrong_param_length_rejected(self):
        ctx = LossContext(gt=Pose.identity())
        with pytest.raises(InvalidInputError):
            evaluate_with_grad("posenet", np.zeros(9), ctx)


class TestFiniteDiff:
    def test_quadratic_example(self):
        # posenet with t = (1,0,0): d|t|/dt_x = 1; central FD is exact on
        # the smooth branch up to rounding.
        gt = Pose.identity()
        est = Pose([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        g = finite_diff_grad("posenet", est, LossContext(gt=gt), step=1e-6)
        assert g[0] == pytest.approx(1.0, abs=1e-9)

    def test_second_order_in_step(self):
        # Halving the step shrinks the central-difference error ~4x.
        rng = np.random.default_rng(3)
        ctx = make_ctx(rng)
        est = perturbed(ctx.gt, rng, max_t=0.2, max_deg=8.0)
        _, exact = evaluate_with_grad("homography_local", est, ctx)
        errs = []
        for step in (1e-3, 5e-4, 2.5e-4):
            fd = finite_diff_grad("homography_local", est, ctx, step=step)
            errs.append(np.max(np.abs(fd - exact)))
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(4.0, rel=0.2)

    def test_nonpositive_step_rejected(self):
        ctx = LossContext(gt=Pose.identity())
        with pytest.raises(InvalidInputError):
            finite_diff_grad("posenet", Pose.identity(), ctx, step=0.0)

    def test_error_reports_coordinate(self):
        # A null estimated quaternion fails inside the loss at the first
        # probed coordinate; the re-raised error should name it.
        ctx = LossContext(gt=Pose.identity())
        bad = np.zeros(9)
        with pytest.raises(InvalidInputError, match="coordinate 0"):
            finite_diff_grad("homoscedastic", bad, ctx)


    def test_foreign_exception_propagates_unchanged(self, monkeypatch):
        # Only domain errors are rewrapped; anything else is a bug and
        # leaves finite_diff_grad as raised, whatever its constructor takes.
        class TwoArgError(Exception):
            def __init__(self, a, b):
                super().__init__(a, b)

        err = TwoArgError(1, 2)

        def broken(*args):
            raise err

        monkeypatch.setattr(losses, "_posenet_core", broken)
        with pytest.raises(TwoArgError) as info:
            finite_diff_grad("posenet", Pose.identity(),
                             LossContext(gt=Pose.identity()))
        assert info.value is err


class TestGradReport:
    def test_rel_err_floor(self):
        rep = GradReport(np.zeros(3), np.full(3, 1e-12))
        assert rep.max_rel_err == pytest.approx(1e-12 / 1e-8)

    def test_identical_gradients(self):
        g = np.array([1.0, -2.0, 3.0])
        assert GradReport(g, g.copy()).max_rel_err == 0.0
