import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import identity_pose, perturbed, pose, random_pose, \
    random_rotation
from homoloss import losses
from homoloss.diffgrad import (
    REL_ERR_FLOOR,
    LossContext,
    evaluate_with_grad,
    loss_value,
    params_for,
)
from homoloss.geometry import (
    InvalidInputError,
    Intrinsics,
    quat_from_axis_angle,
    quat_to_rotmat,
    rotmat_elems,
)
from homoloss.losses import LossHyperParams, SlabParams
from homoloss.optim import frame_context
from oracles import (
    Homography,
    RelativePose,
    geometric_core_pairs,
    geometric_loop,
    homography,
    homography_core_nested,
    homography_grad_complex_step,
    homography_loss_closed,
    homography_loss_numeric,
    posenet_core_array,
    project_points_2d,
    relative_pose,
    scalar_form_oracle,
    sensor_grid_reproj,
    sensor_weighted_reproj,
    single_plane_error,
)


def loss(kind, est, gt, points=None, K=None, slab=None, **hyper):
    """The loss of kind at est through its one entry point, loss_value."""
    ctx = LossContext(gt, LossHyperParams(**hyper), points, K, slab)
    return loss_value(kind, params_for(kind, est, ctx), ctx)


def rz(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSlabParams:
    def test_only_the_two_bounds(self):
        # One plane family, normal (0, 0, -1), fixed in the kernel.
        assert [f.name for f in dataclasses.fields(SlabParams)] == \
            ["x_min", "x_max"]

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 2.0),
                                       (3.0, 1.0)])
    def test_invalid_bounds(self, lo, hi):
        with pytest.raises(InvalidInputError):
            SlabParams(lo, hi)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
    def test_c1_keeps_its_precision_on_thin_slabs(self, eps):
        # c1 = ln(x_max/x_min)/(x_max - x_min) of x_max = x_min (1 + eps),
        # against 50 digits: ln of the rounded ratio loses precision like
        # 1/eps (1.7e-4 relative at eps = 1e-12), log1p of d/x_min does not.
        rng = np.random.default_rng(0)
        for x_min in rng.uniform(0.5, 8.0, 500).tolist():
            x_max = x_min * (1.0 + eps)
            ctx = LossContext(gt=identity_pose(),
                              slab=SlabParams(x_min, x_max))
            c1 = ctx.homography[3] / 2.0
            with mpmath.workdps(50):
                a, b = mpmath.mpf(x_min), mpmath.mpf(x_max)
                want = mpmath.log(b / a) / (b - a)
                assert abs(c1 - want) <= 1e-15 * want, (x_min, x_max)


class TestHyperParams:
    @pytest.mark.parametrize("field", ["beta", "reproj_clip"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_not_positive_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            LossHyperParams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("quat_reg_weight", -1.0), ("quat_reg_weight", math.inf),
        ("quat_reg_weight", math.nan), ("s_t", math.inf),
        ("s_t", math.nan), ("s_q", -math.inf), ("s_q", math.nan)])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(InvalidInputError,
                           match=f"^{field} must .*, got {value}$"):
            LossHyperParams(**{field: value})


class TestPoseNetLoss:
    def test_zero_at_gt(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        assert loss("posenet", p, p, beta=500.0) == 0.0

    def test_arithmetic(self):
        # |dt| = 1, |dq| = 0.01, beta = 500 -> 6
        gt = identity_pose()
        est = pose([1.0, 0.0, 0.0], [1.01, 0.0, 0.0, 0.0])
        assert loss("posenet", est, gt, beta=500.0) == pytest.approx(6.0)

    def test_gt_quaternion_normalized_est_raw(self):
        gt = pose([0, 0, 0], [2.0, 0.0, 0.0, 0.0])  # non-unit gt
        est = pose([0, 0, 0], [2.0, 0.0, 0.0, 0.0])  # same raw values
        # gt is normalized to (1,0,0,0); est stays raw -> |dq| = 1
        assert loss("posenet", est, gt, beta=10.0) == pytest.approx(10.0)


@pytest.mark.parametrize("kind", ["posenet", "homoscedastic", "maxerror"])
@pytest.mark.parametrize("q, message", [
    ([1e-170, 0.0, 0.0, 0.0], "zero-norm quaternion"),  # squares underflow
    ([1e200, 1e200, 0.0, 0.0], "quaternion norm overflows")])
def test_gt_quaternion_without_a_finite_norm_is_bad_input(kind, q, message):
    # The kernels that difference against the unit gt q take it from
    # quat_normalize, as the homography kinds do: a gt q whose norm is 0
    # or overflows raises InvalidInputError, not a NaN loss with a numpy
    # RuntimeWarning.
    ctx = LossContext([0.0, 0.0, 0.0, *q])
    est = params_for(kind, identity_pose(), ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (loss_value, evaluate_with_grad):
            with pytest.raises(InvalidInputError, match=message):
                evaluate(kind, est, ctx)


class TestHomoscedasticLoss:
    def test_zero_at_gt(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        assert loss("homoscedastic", p, p, s_t=0.0, s_q=0.0) == 0.0

    def test_log_variance_offset(self):
        rng = np.random.default_rng(2)
        p = random_pose(rng)
        assert loss("homoscedastic", p, p, s_t=0.0, s_q=-3.0) == \
            pytest.approx(-3.0)

    def test_l1_translation(self):
        gt = identity_pose()
        est = pose([1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0])
        assert loss("homoscedastic", est, gt, s_t=0.0, s_q=0.0) == \
            pytest.approx(6.0)

    def test_zero_quaternion_rejected(self):
        est = pose([0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(InvalidInputError):
            loss("homoscedastic", est, identity_pose(), s_t=0.0, s_q=0.0)


class TestGeometricLoss:
    K = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, w=200, h=200)

    def test_zero_at_gt(self):
        rng = np.random.default_rng(3)
        gt = identity_pose()
        pts = rng.uniform(-1, 1, size=(10, 3)) + [0, 0, 4.0]
        assert loss("geometric", gt, gt, pts, self.K, reproj_clip=100.0) == 0.0

    def test_single_point_l1(self):
        gt = identity_pose()
        # point at depth 1 on axis; shift est left so pixel moves by (3, 4)
        est = pose([-0.03, -0.04, 0.0], [1.0, 0.0, 0.0, 0.0])
        pts = np.array([[0.0, 0.0, 1.0]])
        val = loss("geometric", est, gt, pts, self.K, reproj_clip=100.0)
        assert val == pytest.approx(7.0)

    def test_clip_saturation_at_180(self):
        rng = np.random.default_rng(4)
        gt = identity_pose()
        pts = rng.uniform(-0.5, 0.5, size=(20, 3)) + [0, 0, 4.0]
        est = pose([0, 0, 0], quat_from_axis_angle([0, 1, 0], math.pi))
        val = loss("geometric", est, gt, pts, self.K, reproj_clip=50.0)
        assert val <= 50.0

    def test_infinity_contributes_clip(self):
        gt = identity_pose()
        pts = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 1e-12]])
        val = loss("geometric", gt, gt, pts, self.K, reproj_clip=80.0)
        assert val == pytest.approx(40.0)  # (0 + 80) / 2

    def test_zero_gt_depth_rejected(self):
        # A visible point in the gt camera's x-y plane has no gt pixel.
        pts = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        with pytest.raises(InvalidInputError, match="zero gt depth"):
            loss("geometric", identity_pose(), identity_pose(), pts, self.K,
                 reproj_clip=80.0)

    @pytest.mark.parametrize("point", [[1.0, 0.0, 1e-310],
                                       [1e307, 0.0, 1.0]],
                             ids=["subnormal_depth", "far"])
    def test_non_finite_gt_pixel_rejected_without_a_warning(self, point):
        # A visible point at non-zero gt depth whose gt pixel overflows has
        # no gt pixel either, and is rejected like one at zero gt depth.
        pts = np.array([[0.0, 0.0, 1.0], point])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError,
                               match="^a visible point has a non-finite gt "
                                     "pixel$"):
                loss("geometric", identity_pose(), identity_pose(), pts,
                     self.K, reproj_clip=80.0)

    def test_unclipped_infinity_is_nonfinite(self):
        gt = identity_pose()
        pts = np.array([[0.5, 0.5, 1e-12]])
        val = loss("geometric", gt, gt, pts, self.K, reproj_clip=math.inf)
        assert math.isinf(val)

    def test_empty_points_rejected(self):
        with pytest.raises(InvalidInputError):
            loss("geometric", identity_pose(), identity_pose(), [], self.K,
                 reproj_clip=10.0)

    def test_points_are_a_read_only_copy(self):
        # The context builds planar_points and gt_uv from its points once:
        # a write to the caller's array after that reaches neither.
        pts = np.array([[0.1, 0.2, 4.0], [-0.3, 0.1, 5.0]])
        ctx = LossContext(identity_pose(), LossHyperParams(), pts, self.K)
        est = pose([0.05, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        value = loss_value("geometric", est, ctx)
        pts[0, 0] = 1.0
        assert ctx.points[0, 0] == ctx.planar_points[0, 0] == 0.1
        assert not ctx.points.flags.writeable
        assert loss_value("geometric", est, ctx) == value

    @pytest.mark.parametrize("points", [np.zeros((6, 2)), np.zeros((3, 4)),
                                        np.zeros(3), [[0, 0, 1], [0, 1]]],
                             ids=["6x2", "3x4", "flat", "ragged"])
    def test_points_of_another_shape_are_rejected(self, points):
        with pytest.raises(InvalidInputError, match=r"^points need \(N, 3\)"):
            LossContext(identity_pose(), points=points)

    def test_an_empty_point_sequence_has_shape_0_3(self):
        ctx = LossContext(identity_pose(), points=[])
        assert ctx.points.shape == (0, 3)
        with pytest.raises(InvalidInputError, match="non-empty point set"):
            evaluate_with_grad("geometric", identity_pose(), ctx)

    @pytest.mark.parametrize("clip", [20.0, 100.0])
    def test_kernel_matches_per_point_loop(self, scene, clip):
        # With clip 20 about half the draws mix clipped and live points and
        # half clip every point; with clip 100 every point is live. Sums run
        # in another order, so agreement is to rounding.
        rng = np.random.default_rng(12)
        hyper = LossHyperParams(reproj_clip=clip)
        for _ in range(40):
            i = int(rng.integers(len(scene.ids)))
            ctx = frame_context(scene, i, "geometric", hyper)
            est = perturbed(scene.gt[i], rng, max_t=0.2, max_deg=5.0)
            val, grad = evaluate_with_grad("geometric", est, ctx)
            ref_val, ref_grad = geometric_loop(est, scene.gt[i],
                                               ctx.points, ctx.intrinsics,
                                               clip)
            assert val == pytest.approx(ref_val, rel=1e-13)
            np.testing.assert_allclose(
                grad, ref_grad, rtol=0,
                atol=1e-12 * max(1.0, np.max(np.abs(ref_grad))))

    def test_one_rotation_per_evaluation(self, scene, monkeypatch):
        # The projection and the translation gradient share the estimate's
        # rotation matrix. The first evaluation also builds the context's gt
        # projection, so the spy counts from the second on.
        ctx = frame_context(scene, 0, "geometric", LossHyperParams())
        rng = np.random.default_rng(5)
        evaluate_with_grad("geometric", scene.gt[0], ctx)
        calls = []

        def spy(q):
            calls.append(q)
            return rotmat_elems(q)
        monkeypatch.setattr(losses, "rotmat_elems", spy)
        for n in range(1, 4):
            est = perturbed(scene.gt[0], rng, max_t=0.2, max_deg=5.0)
            evaluate_with_grad("geometric", est, ctx)
            assert len(calls) == n


class TestMaxErrorLoss:
    def test_zero_at_gt(self):
        # Exactly-unit quaternion so the norm regularizer is exactly zero.
        p = pose([1.5, -2.0, 0.25], [0.5, 0.5, 0.5, 0.5])
        assert loss("maxerror", p, p, quat_reg_weight=1.0) == 0.0

    def test_translation_branch(self):
        # 3 degrees vs 250 cm -> 250
        gt = identity_pose()
        est = pose([2.5, 0, 0], quat_from_axis_angle([0, 0, 1],
                                                     math.radians(3.0)))
        assert loss("maxerror", est, gt, quat_reg_weight=1.0) == \
            pytest.approx(250.0)

    def test_rotation_branch(self):
        # 10 degrees vs 5 cm -> 10
        gt = identity_pose()
        est = pose([0.05, 0, 0], quat_from_axis_angle([0, 0, 1],
                                                      math.radians(10.0)))
        assert loss("maxerror", est, gt, quat_reg_weight=1.0) == \
            pytest.approx(10.0)

    def test_null_quaternion_hits_regularizer(self):
        gt = identity_pose()
        est = pose([0, 0, 0], [0.0, 0.0, 0.0, 0.0])
        assert loss("maxerror", est, gt, quat_reg_weight=2.0) == \
            pytest.approx(2.0)


class TestSinglePlaneError:
    def test_identity(self):
        assert single_plane_error(Homography(np.eye(3))) == 0.0

    def test_pure_z_translation(self):
        tau, x = 0.1, 2.0
        rel = RelativePose(np.eye(3), [0, 0, tau])
        H = homography(rel, [0, 0, -1], x)
        assert single_plane_error(H) == pytest.approx((tau / x) ** 2)

    def test_rotation_trace_identity(self):
        for theta in (0.3, math.pi / 2, 2.0):
            err = single_plane_error(Homography(rz(theta)))
            assert err == pytest.approx(4.0 * (1.0 - math.cos(theta)))
        assert single_plane_error(Homography(rz(math.pi / 2))) == \
            pytest.approx(4.0)


class TestSensorWeightedReproj:
    def test_identity(self):
        assert sensor_weighted_reproj(Homography(np.eye(3)), 1.0, 1.0) == 0.0

    def test_unit_sensor_weights(self):
        rng = np.random.default_rng(6)
        H = Homography(np.eye(3) + rng.normal(size=(3, 3)) * 0.1)
        D = np.eye(3) - H.H
        expected = np.trace(np.diag([1 / 12, 1 / 12, 1.0]) @ D.T @ D)
        assert sensor_weighted_reproj(H, 1.0, 1.0) == pytest.approx(expected)

    def test_matches_dense_grid_for_small_motion(self):
        # In-plane dominant perturbations with |s-1| <= 1e-3 over the sensor.
        rng = np.random.default_rng(7)
        from homoloss.geometry import quat_multiply
        for _ in range(20):
            x = rng.uniform(1.5, 4.0)
            qz = quat_from_axis_angle(
                [0, 0, 1], math.radians(rng.uniform(1.0, 3.0))
            )
            t = np.array([
                rng.uniform(0.05, 0.12) * x,
                rng.uniform(0.05, 0.12) * x,
                rng.uniform(-3e-4, 3e-4) * x,
            ])
            q_oop = quat_from_axis_angle(
                [1.0, 1.0, 0.0], rng.uniform(-5e-4, 5e-4)
            )
            R = quat_to_rotmat(quat_multiply(q_oop, qz))
            H = homography(RelativePose(R, t), [0, 0, -1], x)
            svals = [
                H.H[2, 0] * px + H.H[2, 1] * py + H.H[2, 2]
                for px in (-0.5, 0.5) for py in (-0.5, 0.5)
            ]
            assert all(0.999 <= s <= 1.001 for s in svals)
            closed = sensor_weighted_reproj(H, 1.0, 1.0)
            grid = sensor_grid_reproj(H, 1.0, 1.0, 256)
            assert abs(closed - grid) / grid < 0.01

    def test_disagreement_grows_with_perturbation(self):
        # Scaling the out-of-plane motion grows the absolute disagreement.
        diffs = []
        for scale in (0.5e-3, 1e-3, 2e-3, 4e-3):
            R = quat_to_rotmat(quat_from_axis_angle([0, 1, 0], scale))
            H = homography(RelativePose(R, np.zeros(3)), [0, 0, -1], 2.0)
            closed = sensor_weighted_reproj(H, 1.0, 1.0)
            grid = sensor_grid_reproj(H, 1.0, 1.0, 256)
            diffs.append(abs(closed - grid))
        assert all(a < b for a, b in zip(diffs, diffs[1:]))


class TestHomographyLossClosed:
    def test_zero_at_identity(self):
        slab = SlabParams(1.0, 4.0)
        rel = RelativePose(np.eye(3), np.zeros(3))
        assert homography_loss_closed(rel, slab) == 0.0

    def test_pure_z_translation(self):
        rel = RelativePose(np.eye(3), [0.0, 0.0, 0.1])
        slab = SlabParams(1.0, 4.0)
        assert homography_loss_closed(rel, slab) == pytest.approx(
            0.0025, abs=1e-15
        )

    def test_pure_rotation(self):
        rel = RelativePose(rz(math.pi / 2), np.zeros(3))
        for slab in (SlabParams(1.0, 4.0), SlabParams(0.3, 77.0)):
            assert homography_loss_closed(rel, slab) == pytest.approx(4.0)

    def test_translation_scaling_is_quadratic(self):
        rng = np.random.default_rng(8)
        slab = SlabParams(1.2, 5.5)
        t = rng.normal(size=3)
        base = homography_loss_closed(RelativePose(np.eye(3), t), slab)
        for k in (2.0, 3.0, 10.0):
            scaled = homography_loss_closed(
                RelativePose(np.eye(3), k * t), slab
            )
            assert scaled == pytest.approx(k * k * base, rel=1e-12)


class TestHomographyLossNumeric:
    def test_zero_at_identity(self):
        slab = SlabParams(1.0, 4.0)
        rel = RelativePose(np.eye(3), np.zeros(3))
        for n in (2, 10, 1000):
            assert homography_loss_numeric(rel, slab, n) == 0.0

    def test_midpoint_order_two_convergence(self):
        rng = np.random.default_rng(9)
        rel = RelativePose(random_rotation(rng), rng.normal(size=3))
        slab = SlabParams(0.8, 6.0)
        closed = homography_loss_closed(rel, slab)
        errs = [
            abs(homography_loss_numeric(rel, slab, n) - closed)
            for n in (100, 200, 400)
        ]
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(4.0, rel=0.1)

    def test_sample_count_validated(self):
        slab = SlabParams(1.0, 4.0)
        with pytest.raises(InvalidInputError):
            homography_loss_numeric(
                RelativePose(np.eye(3), np.zeros(3)), slab, 1
            )


class TestScalarFormOracle:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            rel = RelativePose(random_rotation(rng), rng.normal(size=3))
            a = rng.uniform(0.2, 3.0)
            slab = SlabParams(a, a + rng.uniform(0.5, 8.0))
            closed = homography_loss_closed(rel, slab)
            oracle = scalar_form_oracle(rel, slab)
            assert abs(closed - oracle) <= 1e-12 * max(1.0, abs(closed))

    def test_pure_translation_reduction(self):
        rng = np.random.default_rng(11)
        t = rng.normal(size=3)
        slab = SlabParams(1.5, 6.0)
        rel = RelativePose(np.eye(3), t)
        assert scalar_form_oracle(rel, slab) == pytest.approx(
            float(t @ t) / (1.5 * 6.0)
        )

    def test_pure_rotation_reduction(self):
        theta = 1.1
        rel = RelativePose(rz(theta), np.zeros(3))
        slab = SlabParams(1.0, 2.0)
        assert scalar_form_oracle(rel, slab) == pytest.approx(
            4.0 * (1.0 - math.cos(theta))
        )


class TestMinimumUniqueness:
    def test_nonnegative_and_zero_only_at_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            rel = RelativePose(random_rotation(rng), rng.normal(size=3))
            a = rng.uniform(0.2, 3.0)
            slab = SlabParams(a, a + rng.uniform(0.5, 8.0))
            val = homography_loss_closed(rel, slab)
            assert val >= 0.0
            angle = math.acos(
                max(-1.0, min(1.0, (np.trace(rel.R) - 1.0) / 2.0))
            )
            if angle >= 1e-3 or np.linalg.norm(rel.t) >= 1e-3:
                assert val > 0.0


def test_pose_level_homography_loss_matches_relative_form():
    rng = np.random.default_rng(13)
    slab = SlabParams(1.0, 5.0)
    for _ in range(50):
        gt = random_pose(rng, scale=2.0)
        est = random_pose(rng, scale=2.0)
        via_pose = loss("homography_local", est, gt, slab=slab)
        via_rel = homography_loss_closed(relative_pose(gt, est), slab)
        assert via_pose == pytest.approx(via_rel, rel=1e-12, abs=1e-12)


def bits(x):
    """Values with their sign bits, so that == tells -0.0 from 0.0."""
    x = np.asarray(x, dtype=float)
    return x.tolist(), np.signbit(x).tolist()


class TestHomographyKernel:
    """The plain-float kernel against the nested-list form it replaced
    (oracles.homography_core_nested): the same value, gradient and sign
    bits by ==, and the same domain error."""

    # Which quaternion entries become +0.0 or -0.0, so that signed zeros
    # reach the rotation entries in m = (R_e - R_g) n and the body gradient.
    zeros = st.tuples(*[st.sampled_from([None, 0.0, -0.0])] * 4)

    @staticmethod
    def with_zeros(row, zeros):
        q = [c if z is None else z for c, z in zip(row[3:].tolist(), zeros)]
        return pose(row[:3], q if any(q) else row[3:])

    @settings(deadline=None, max_examples=1000)
    @given(seed=st.integers(0, 2**32 - 1),
           gt_kind=st.sampled_from(["unit", "non-unit"]),
           case=st.sampled_from(["perturbed", "gt", "-gt", "sign-flipped",
                                 "non-unit", "zero q", "turned"]),
           max_t=st.sampled_from([1e-6, 1e-3, 0.3, 3.0]),
           max_deg=st.sampled_from([1e-5, 1e-2, 1.0, 30.0, 120.0]),
           x_min=st.floats(0.1, 10.0), width=st.floats(1e-2, 100.0),
           gt_zeros=zeros, est_zeros=zeros, zero_t=st.booleans())
    def test_matches_the_nested_list_form(self, seed, gt_kind, case, max_t,
                                          max_deg, x_min, width, gt_zeros,
                                          est_zeros, zero_t):
        rng = np.random.default_rng(seed)
        gt = self.with_zeros(random_pose(rng, scale=1.0), gt_zeros)
        if zero_t:  # exact zeros in gt t, and in t_est where est == gt
            gt = pose(np.where(rng.random(3) < 0.5, 0.0, gt[:3]), gt[3:])
        if gt_kind == "non-unit":
            gt = pose(gt[:3], gt[3:] * rng.uniform(0.2, 5.0))
        est = self.with_zeros(
            perturbed(gt, rng, max_t=max_t, max_deg=max_deg), est_zeros)
        if case == "gt":
            est = gt
        elif case == "-gt":
            est = pose(gt[:3], -gt[3:])
        elif case == "sign-flipped":
            est = pose(est[:3], -est[3:])
        elif case == "non-unit":
            est = pose(est[:3], est[3:] * rng.choice([-1.0, 1.0])
                       * rng.uniform(0.2, 5.0))
        elif case == "zero q":
            est = pose(est[:3], np.zeros(4))
        elif case == "turned":  # d = 0, so that the sign of a zero m shows
            est = pose(gt[:3], est[3:])
        slab = SlabParams(x_min, x_min + width)
        t, q = est[:3].tolist(), est[3:].tolist()
        ctx = LossContext(gt=gt, slab=slab)
        for grad in (False, True):
            try:
                want_val, want_grad = homography_core_nested(t, q, gt, slab,
                                                             grad)
            except InvalidInputError as e:
                with pytest.raises(InvalidInputError) as got:
                    losses._homography_core(t + q, ctx, grad)
                assert str(got.value) == str(e)
                continue
            val, g = losses._homography_core(t + q, ctx, grad)
            assert type(val) is float
            assert bits(val) == bits(want_val)
            if grad:
                assert g.dtype == want_grad.dtype and g.shape == (7,)
                assert bits(g) == bits(want_grad)
            else:
                assert g is None and want_grad is None

    @settings(deadline=None, max_examples=400)
    @given(seed=st.integers(0, 2**32 - 1),
           gt_kind=st.sampled_from(["unit", "non-unit"]),
           case=st.sampled_from(["perturbed", "gt", "-gt", "sign-flipped",
                                 "non-unit", "turned"]),
           max_t=st.sampled_from([1e-6, 1e-3, 0.3, 3.0]),
           max_deg=st.sampled_from([1e-5, 1e-2, 1.0, 30.0, 120.0]),
           x_min=st.floats(0.1, 10.0), width=st.floats(1e-2, 100.0))
    # q_z cancels to 8.6e-5 against |g| of 2.5, off by 2.6e-15: 1.5e-11
    # relative to the entry alone
    @example(seed=31671, gt_kind="non-unit", case="perturbed", max_t=3.0,
             max_deg=0.01, x_min=0.5, width=1.0)
    def test_gradient_equals_the_complex_step(self, seed, gt_kind, case,
                                              max_t, max_deg, x_min, width):
        # The complex-step derivative has no step-size error, so a gradient
        # term off by 1e-9 relative fails here, where the central
        # differences of criterion 4 and gradcheck (1e-5) pass it. Rounding
        # in an entry that cancels is measured against the gradient's
        # size: each entry's denominator is at least 1e-4 of the largest
        # |a| + |n|. Over 20,000 random draws the worst entry-relative error
        # was 1.3e-12, and there both forms were up to 8e-11 from the exact
        # derivative of the kernel's arithmetic.
        rng = np.random.default_rng(seed)
        gt = random_pose(rng, scale=1.0)
        if gt_kind == "non-unit":
            gt = pose(gt[:3], gt[3:] * rng.uniform(0.2, 5.0))
        est = perturbed(gt, rng, max_t=max_t, max_deg=max_deg)
        if case == "gt":
            est = gt
        elif case == "-gt":
            est = pose(gt[:3], -gt[3:])
        elif case == "sign-flipped":
            est = pose(est[:3], -est[3:])
        elif case == "non-unit":
            est = pose(est[:3], est[3:] * rng.uniform(0.2, 5.0))
        elif case == "turned":
            est = pose(gt[:3], est[3:])
        ctx = LossContext(gt=gt, slab=SlabParams(x_min, x_min + width))
        p = est[:3].tolist() + est[3:].tolist()
        _, g = losses._homography_core(p, ctx, True)
        n = homography_grad_complex_step(p, ctx)
        size = np.abs(g) + np.abs(n)
        floor = max(REL_ERR_FLOOR, 1e-4 * size.max())
        assert np.max(np.abs(g - n) / np.maximum(floor, size)) <= 1e-11


def hexes(x):
    """Each entry as float.hex, so that == tells -0.0 from 0.0 and a NaN
    equals a NaN."""
    return [v.hex() for v in np.atleast_1d(np.asarray(x, dtype=float))
            .tolist()]


class TestGeometricKernel:
    """The kernel on planar u/v rows against the (N, 2) pixel-pair form it
    replaced (oracles.geometric_core_pairs): the same value and gradient
    entries by float.hex, and the same domain error."""

    K = Intrinsics(fx=500.0, fy=450.0, cx=320.0, cy=240.0, w=640.0, h=480.0)
    # estimated depths at and around DEPTH_EPS, either side of the camera
    near_zero = [0.0, -0.0, 0.5e-9, 1e-9, np.nextafter(1e-9, 0.0), 2e-9]

    @staticmethod
    def with_zeros(rng, x, frac):
        """x with each entry replaced, with probability frac, by +-0.0."""
        zeros = np.where(rng.random(len(x)) < 0.5, 0.0, -0.0)
        return np.where(rng.random(len(x)) < frac, zeros, x)

    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.integers(1, 200), st.integers(201, 5000)),
           case=st.sampled_from(["perturbed", "gt", "turned", "moved"]),
           dead=st.sets(st.sampled_from(["behind", "depth_eps"])),
           clip=st.sampled_from(["inf", "wide", "median", "at a point"]),
           zeros=st.booleans())
    # every point live, so the kernel sums d and skips the gathers; 300
    # points reach numpy's blocked pairwise sum
    @example(seed=1, n=300, case="perturbed", dead=set(), clip="inf",
             zeros=True)
    # no point live: the one point's d is the clip
    @example(seed=1, n=1, case="perturbed", dead=set(), clip="at a point",
             zeros=False)
    def test_matches_the_pixel_pair_form(self, seed, n, case, dead, clip,
                                         zeros):
        rng = np.random.default_rng(seed)
        frac = 0.2 if zeros else 0.0
        q_gt = self.with_zeros(rng, random_pose(rng)[3:], frac)
        gt = pose(self.with_zeros(rng, rng.normal(size=3), frac),
                  q_gt if q_gt.any() else [1.0, 0.0, 0.0, 0.0])
        est = perturbed(gt, rng, max_t=0.3, max_deg=10.0)
        est = pose(self.with_zeros(rng, est[:3], frac),
                   self.with_zeros(rng, est[3:], frac))
        if case == "gt":  # zero residuals: signed zeros in every h row
            est = gt
        elif case == "turned":
            est = pose(gt[:3], est[3:])
        elif case == "moved":
            est = pose(est[:3], gt[3:])
        if not est[3:].any():
            est = pose(est[:3], gt[3:])
        # points in front of the gt camera, some on its optical axis
        cam = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)),
                               rng.uniform(0.5, 10.0, n)])
        cam[:, :2] = self.with_zeros(rng, cam[:, :2].ravel(), frac) \
            .reshape(n, 2)
        points = gt[:3] + cam @ quat_to_rotmat(gt[3:]).T
        R_est = quat_to_rotmat(est[3:])
        for kind in sorted(dead):  # a share of points the kernel drops
            rows = rng.random(n) < rng.uniform(0.0, 0.5)
            cam = rng.uniform(-2.0, 2.0, (rows.sum(), 3))
            if kind == "behind":
                cam[:, 2] = -rng.uniform(0.5, 10.0, len(cam))
            else:  # below DEPTH_EPS in the estimated camera, or near it
                cam[:, 2] = rng.choice(self.near_zero, len(cam)) \
                    * rng.choice([-1.0, 1.0], len(cam))
            points[rows] = est[:3] + cam @ R_est.T
        uv, _ = project_points_2d(est, self.K, points)
        with np.errstate(invalid="ignore"):  # inf - inf at zero depth
            d = np.abs(uv - project_points_2d(gt, self.K, points)[0]) \
                .sum(axis=1)
        d = d[np.isfinite(d) & (d > 0)]
        reproj_clip = {"inf": math.inf, "wide": 1e6}.get(clip, 100.0)
        if clip == "median" and len(d):
            reproj_clip = float(np.median(d))
        elif clip == "at a point" and len(d):  # d == clip: dead
            reproj_clip = float(rng.choice(d))
        ctx = LossContext(gt, LossHyperParams(reproj_clip=reproj_clip),
                          points, self.K)
        p = est.tolist()
        for grad in (False, True):
            try:
                want_val, want_grad = geometric_core_pairs(p, ctx, grad)
            except InvalidInputError as e:
                with pytest.raises(InvalidInputError) as got:
                    losses._geometric_core(p, ctx, grad)
                assert str(got.value) == str(e)
                continue
            val, g = losses._geometric_core(p, ctx, grad)
            assert type(val) is float and hexes(val) == hexes(want_val)
            if grad:
                assert g.shape == (7,) and hexes(g) == hexes(want_grad)
            else:
                assert g is None and want_grad is None


class TestPosenetKernel:
    """The plain-float kernel against the array form it replaced
    (oracles.posenet_core_array): the same value and gradient entries by
    float.hex."""

    # entries with both zeros, squares that underflow to a zero norm,
    # and entries that are not finite
    entry = st.floats(-1e3, 1e3) | st.sampled_from(
        [0.0, -0.0, 1e-170, -1e-200, 5e-324, 1e200, math.inf, -math.inf,
         math.nan])
    signed = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])

    @settings(deadline=None, max_examples=1000)
    @given(gt=st.lists(signed, min_size=7, max_size=7),
           est=st.lists(entry, min_size=7, max_size=7),
           beta=st.floats(1e-3, 1e3),
           case=st.sampled_from(["free", "t at gt", "q at gt", "at gt",
                                 "non-unit q", "zero q"]),
           scale=st.floats(0.1, 10.0), signs=st.lists(
               st.sampled_from([0.0, -0.0]), min_size=4, max_size=4))
    # zero norms: est at the unit gt q and the gt t, with its signed zeros
    @example(gt=[-0.0, 0.0, 1.0, 0.0, -0.0, 2.0, 0.0],
             est=[0.0] * 7, beta=500.0, case="at gt", scale=1.0,
             signs=[0.0] * 4)
    def test_matches_the_array_form(self, gt, est, beta, case, scale,
                                    signs):
        if not any(c * c for c in gt[3:]):  # a gt q of non-zero norm
            gt[3] = 1.0
        ctx = LossContext(gt, LossHyperParams(beta=beta))
        gt_t, q_unit = ctx.pose_target
        t, q = est[:3], est[3:]
        if case in ("t at gt", "at gt"):
            t = list(gt_t)
        if case in ("q at gt", "at gt"):
            q = list(q_unit)
        elif case == "non-unit q":
            q = [c * scale for c in q_unit]
        elif case == "zero q":
            q = signs
        p = [float(c) for c in t + q]
        for grad in (False, True):
            with np.errstate(all="ignore"):
                want_val, want_grad = posenet_core_array(p, ctx, grad)
            val, g = losses._posenet_core(p, ctx, grad)
            assert type(val) is float and hexes(val) == hexes(want_val)
            if grad:
                assert g.dtype == np.float64 and g.shape == (7,)
                assert hexes(g) == hexes(want_grad)
            else:
                assert g is None and want_grad is None
