import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import identity_pose, perturbed, pose, random_pose
from oracles import finite_diff_grad_loop, reference_grad
from homoloss.diffgrad import (
    LOSS_KINDS,
    LossContext,
    evaluate_with_grad,
    finite_diff_grad,
    loss_value,
    max_rel_err,
    param_count,
    params_for,
)
from homoloss import dual, losses
from homoloss.geometry import (
    InvalidInputError,
    Intrinsics,
    quat_from_axis_angle,
    quat_multiply,
    quat_to_rotmat,
)
from homoloss.losses import LossHyperParams, SlabParams

K = Intrinsics(fx=320.0, fy=320.0, cx=320.0, cy=320.0, w=640, h=640)
coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def make_ctx(rng):
    gt = random_pose(rng, scale=1.0)
    from homoloss.geometry import quat_to_rotmat

    # points in front of the gt camera at depths 2..6
    R = quat_to_rotmat(gt[3:])
    cam = np.column_stack([
        rng.uniform(-1, 1, 12),
        rng.uniform(-1, 1, 12),
        rng.uniform(2.0, 6.0, 12),
    ])
    pts = cam @ R.T + gt[:3]
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
            rel = max_rel_err(analytic[smooth], fds[1][smooth])
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
        # The value of the gradient path is the plain value, bit for bit.
        assert val == loss_value(kind, params, ctx)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_value_paths_agree_where_pow_and_product_differ(self, kind):
        # (w - 1)**2 and (w - 1)*(w - 1) round differently for this w, which
        # once made maxerror's value depend on whether its gradient was
        # taken.
        w = 1.1700778987007547
        assert (w - 1.0) ** 2 != (w - 1.0) * (w - 1.0)
        gt = identity_pose()
        ctx = LossContext(gt=gt, intrinsics=K, slab=SlabParams(2.0, 6.0),
                          points=points_before(gt, np.random.default_rng(4)))
        params = params_for(kind, pose(np.zeros(3), [w, 0.0, 0.0, 0.0]), ctx)
        val, _ = evaluate_with_grad(kind, params, ctx)
        assert val == loss_value(kind, params, ctx)

    def test_posenet_translation_direction(self):
        # d|t_hat - t|/dt_hat is the unit vector toward the estimate.
        gt = identity_pose()
        est = pose([3.0, 4.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        ctx = LossContext(gt=gt)
        _, g = evaluate_with_grad("posenet", params_for("posenet", est, ctx),
                                  ctx)
        np.testing.assert_allclose(g[:3], [0.6, 0.8, 0.0], atol=1e-15)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_zero_pose_gradient_at_gt(self, kind):
        # gt quaternion chosen so its rotation matrix (and normalization)
        # are exact in floating point; the minimum must then be an exact
        # stationary point, not merely a small-gradient one.
        from homoloss.geometry import quat_to_rotmat

        gt = pose([1.5, -0.25, 2.0], [0.5, 0.5, 0.5, 0.5])
        rng = np.random.default_rng(2)
        R = quat_to_rotmat(gt[3:])
        cam = np.column_stack([
            rng.uniform(-1, 1, 12),
            rng.uniform(-1, 1, 12),
            rng.uniform(2.0, 6.0, 12),
        ])
        ctx = LossContext(
            gt=gt, points=cam @ R.T + gt[:3], intrinsics=K,
            slab=SlabParams(2.0, 6.0),
        )
        _, g = evaluate_with_grad(kind, params_for(kind, gt, ctx), ctx)
        # Pose part only: homoscedastic carries genuine nonzero s-gradients.
        np.testing.assert_array_equal(g[:7], np.zeros(7))

    @pytest.mark.parametrize("kind", ["geometric", "homography_local",
                                      "homography_global"])
    @given(q=st.tuples(coord, coord, coord, coord).filter(
               lambda q: sum(c * c for c in q) > 1e-6),
           t=st.tuples(coord, coord, coord),
           x_min=st.floats(min_value=1e-3, max_value=1e3),
           width=st.floats(min_value=1e-3, max_value=1e3))
    def test_exact_zero_at_any_gt(self, kind, q, t, x_min, width):
        # Any gt quaternion, unit or not, whether or not its rotation matrix
        # is exact in floating point; the geometric loss sees 12 points in
        # front of the gt camera.
        from homoloss.geometry import quat_to_rotmat

        gt = pose(t, q)
        cam = np.random.default_rng(5).uniform([-1, -1, 2], [1, 1, 6],
                                               (12, 3))
        ctx = LossContext(gt=gt, points=cam @ quat_to_rotmat(q).T + gt[:3],
                          intrinsics=K,
                          slab=SlabParams(x_min, x_min + width))
        val, g = evaluate_with_grad(kind, params_for(kind, gt, ctx), ctx)
        assert val == 0.0
        np.testing.assert_array_equal(g, np.zeros(7))

    def test_param_counts(self):
        assert param_count("homoscedastic") == 9
        for kind in LOSS_KINDS:
            if kind != "homoscedastic":
                assert param_count(kind) == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate_with_grad("frobnicate", np.zeros(7),
                               LossContext(gt=identity_pose()))

    def test_wrong_param_length_rejected(self):
        ctx = LossContext(gt=identity_pose())
        with pytest.raises(InvalidInputError):
            evaluate_with_grad("posenet", np.zeros(9), ctx)


class TestLossValue:
    @pytest.mark.parametrize("kind,n", [("posenet", 5), ("posenet", 8),
                                        ("homoscedastic", 7),
                                        ("homography_local", 9)])
    def test_wrong_param_length_rejected(self, kind, n):
        # Before, an 8-entry posenet vector dropped its last entry, a 5-entry
        # one raised IndexError and a 7-entry homoscedastic one took s_t/s_q
        # from ctx.hyper.
        ctx = make_ctx(np.random.default_rng(2))
        params = np.r_[ctx.gt, 0.0, -3.0][:n]
        with pytest.raises(InvalidInputError, match=f"got \\({n},\\)"):
            loss_value(kind, params, ctx)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown loss kind"):
            loss_value("frobnicate", np.zeros(7),
                       LossContext(gt=identity_pose()))


def assert_matches_reference(kind, params, ctx):
    """Kernel value to 1e-13 relative and gradient to 1e-12 of its largest
    entry, against the DiffScalar form in tests/.

    The geometric loss is a mean of differences of pixel coordinates that
    the two forms round differently, so its value is compared relative to
    the pixel scale when the residuals are far below a pixel.
    """
    val, grad = evaluate_with_grad(kind, params, ctx)
    ref_val, ref_grad = reference_grad(kind, params, ctx)
    scale = abs(ref_val)
    if kind == "geometric":
        scale = max(scale, ctx.intrinsics.fx + ctx.intrinsics.cx)
    assert abs(val - ref_val) <= 1e-13 * scale, (kind, val, ref_val)
    err = np.max(np.abs(grad - ref_grad))
    assert err <= 1e-12 * np.max(np.abs(ref_grad)), (kind, grad, ref_grad)


def points_before(gt, rng, n=12):
    """n world points at depths 2..6 in front of the gt camera."""
    cam = rng.uniform([-1, -1, 2], [1, 1, 6], (n, 3))
    return cam @ quat_to_rotmat(gt[3:]).T + gt[:3]


class TestDiffScalarParity:
    """Each closed-form kernel against its DiffScalar core in
    tests/diffscalar.py (geometric: oracles.geometric_loop)."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           unit_gt=st.booleans(), unit_est=st.booleans(),
           flip_est=st.booleans(),
           max_t=st.sampled_from([1e-6, 1e-2, 0.3, 2.0]),
           max_deg=st.sampled_from([1e-4, 1.0, 10.0, 90.0]),
           beta=st.floats(1e-2, 1e3), s_t=st.floats(-5.0, 5.0),
           s_q=st.floats(-5.0, 5.0), reg=st.floats(0.0, 10.0),
           clip=st.floats(1.0, 1e3), x_min=st.floats(0.1, 10.0),
           width=st.floats(1e-2, 100.0))
    def test_random_poses(self, kind, seed, unit_gt, unit_est, flip_est,
                          max_t, max_deg, beta, s_t, s_q, reg, clip, x_min,
                          width):
        rng = np.random.default_rng(seed)
        gt = random_pose(rng, scale=1.0)
        if not unit_gt:
            gt = pose(gt[:3], gt[3:] * rng.uniform(0.5, 2.0))
        est = perturbed(gt, rng, max_t=max_t, max_deg=max_deg)
        if not unit_est:
            est = pose(est[:3], est[3:] * rng.uniform(0.5, 2.0))
        if flip_est:  # the other quaternion of the same rotation
            est = pose(est[:3], -est[3:])
        ctx = LossContext(
            gt=gt,
            hyper=LossHyperParams(beta=beta, s_t=s_t, s_q=s_q,
                                  reproj_clip=clip, quat_reg_weight=reg),
            points=points_before(gt, rng), intrinsics=K,
            slab=SlabParams(x_min, x_min + width),
        )
        assert_matches_reference(kind, params_for(kind, est, ctx), ctx)
        # A second estimate reuses the constants the first one built, and
        # gets the bits of a fresh context.
        params = params_for(kind, perturbed(gt, rng, max_t, max_deg), ctx)
        val, grad = evaluate_with_grad(kind, params, ctx)
        fresh_val, fresh_grad = evaluate_with_grad(kind, params, replace(ctx))
        assert val == fresh_val and np.array_equal(grad, fresh_grad)

    @pytest.mark.parametrize("points, message", [
        (np.zeros((0, 3)), "non-empty point set"),
        (np.array([[0.0, 0.2, 3.0], [1.0, 0.0, 0.0]]), "zero gt depth"),
    ], ids=["empty", "zero_gt_depth"])
    def test_reused_context_raises_again(self, points, message):
        # A failed geometric constant is not cached: every evaluation on the
        # context raises the same error.
        ctx = LossContext(gt=identity_pose(), points=points, intrinsics=K)
        errors = []
        for evaluate in (evaluate_with_grad, evaluate_with_grad, loss_value):
            with pytest.raises(InvalidInputError, match=message) as info:
                evaluate("geometric", [0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         ctx)
            errors.append(str(info.value))
        assert errors == [errors[0]] * 3

    def ctx(self, gt, reg=1.0):
        return LossContext(gt=gt, hyper=LossHyperParams(quat_reg_weight=reg),
                           points=points_before(gt, np.random.default_rng(6)),
                           intrinsics=K, slab=SlabParams(2.0, 6.0))

    @pytest.mark.parametrize("q_est", [[0.0, 0.0, 0.0, 0.0],
                                       [2.0, 0.0, 0.0, 0.0],
                                       [-0.5, 0.0, 0.0, 0.0]])
    def test_maxerror_zero_quaternion_and_clamped_dot(self, q_est):
        # q = 0 leaves only translation and regularizer; |dot| >= 1 clamps
        # the angle at 0.
        ctx = self.ctx(pose([0.5, -1.0, 2.0], [1.0, 0.0, 0.0, 0.0]))
        params = np.array([0.7, -1.2, 2.1, *q_est])
        assert_matches_reference("maxerror", params, ctx)

    def test_maxerror_exact_tie_takes_translation(self):
        # An x offset whose translation error in cm is exactly the angle:
        # not every angle is a float product tx * 100, so try a few.
        ctx = self.ctx(identity_pose(), reg=0.0)
        for deg in np.linspace(0.3, 0.5, 20):
            q = quat_from_axis_angle([0.3, -1.0, 0.2], np.radians(deg))
            angle = loss_value("maxerror", [0.0, 0.0, 0.0, *q], ctx)
            near = angle / 100.0
            ties = [x for x in (np.nextafter(near, 0.0), near,
                                np.nextafter(near, 1.0))
                    if x * 100.0 == angle]
            if ties:
                break
        assert ties
        params = np.array([ties[0], 0.0, 0.0, *q])
        assert_matches_reference("maxerror", params, ctx)
        _, grad = evaluate_with_grad("maxerror", params, ctx)
        assert grad[0] == 100.0 and np.all(grad[1:] == 0.0)

    def test_homoscedastic_zero_components(self):
        # dq = qg - q/|q| and dt have components that are exactly 0; where
        # q and qg are 0 too, their gradient entries are the L1 subgradient
        # 0, as in the DiffScalar form.
        ctx = self.ctx(pose([0.5, -1.0, 2.0], [1.0, 0.0, 0.0, 0.0]))
        for params, zeros in (
                ([0.5, -0.8, 2.0, 1.0, 0.5, 0.0, 0.0, 0.3, -2.0],
                 [0, 2, 5, 6]),
                ([0.5, -0.8, 2.3, 1.0, 0.5, 0.0, -0.3, 0.3, -2.0], [0, 5])):
            params = np.array(params)
            assert_matches_reference("homoscedastic", params, ctx)
            grad = evaluate_with_grad("homoscedastic", params, ctx)[1]
            ref = reference_grad("homoscedastic", params, ctx)[1]
            assert grad[zeros].tolist() == ref[zeros].tolist() == \
                [0.0] * len(zeros)

    def test_posenet_zero_translation_error(self):
        ctx = self.ctx(pose([0.5, -1.0, 2.0], [0.5, 0.5, 0.5, 0.5]))
        params = np.array([0.5, -1.0, 2.0, 0.6, 0.5, 0.4, 0.5])
        assert_matches_reference("posenet", params, ctx)

    @pytest.mark.parametrize("kind", [k for k in LOSS_KINDS
                                      if k != "geometric"])
    def test_at_gt(self, kind):
        ctx = self.ctx(pose([0.5, -1.0, 2.0], [0.5, 0.5, 0.5, 0.5]))
        assert_matches_reference(kind, params_for(kind, ctx.gt, ctx), ctx)


def value_path_case(rng, case, points_kind, max_deg):
    """(gt, est, hyper, points) of one TestValuePath draw; see there."""
    hyper = LossHyperParams(beta=rng.uniform(1e-2, 1e3),
                            s_t=rng.uniform(-5, 5), s_q=rng.uniform(-5, 5),
                            reproj_clip=rng.choice([0.5, 10.0, 1e3]),
                            quat_reg_weight=rng.uniform(0.0, 10.0))
    gt = random_pose(rng, scale=1.0)
    if rng.random() < 0.5:
        gt = pose(gt[:3], gt[3:] * rng.uniform(0.5, 2.0))
    est = perturbed(gt, rng, max_t=rng.choice([1e-6, 0.3, 2.0]),
                    max_deg=max_deg)
    if case == "non-unit":
        est = pose(est[:3], est[3:] * rng.choice([-1.0, 1.0])
                   * rng.uniform(0.5, 2.0))
    elif case == "gt":
        est = gt
    elif case == "zero q":
        est = pose(est[:3], np.zeros(4))
    elif case == "clamped":
        # A gt q with one non-zero entry normalizes exactly, so any estimate
        # q along it has |dot| = 1: maxerror's clamped angle.
        axis = np.eye(4)[rng.integers(4)]
        gt = pose(gt[:3], axis * rng.uniform(-2.0, 2.0))
        est = pose(est[:3], axis * rng.uniform(-2.0, 2.0))
    elif case == "tie":
        # The translation error in cm equal to maxerror's angle, bit for
        # bit, where a draw of 20 angles finds such an x offset.
        gt = identity_pose()
        hyper = replace(hyper, quat_reg_weight=0.0)
        ctx = LossContext(gt=gt, hyper=hyper)
        for _ in range(20):
            q = quat_from_axis_angle(rng.normal(size=3),
                                     np.radians(rng.uniform(1e-3, 90.0)))
            angle = loss_value("maxerror", [0.0, 0.0, 0.0, *q], ctx)
            ties = [x for x in (np.nextafter(angle / 100.0, 0.0),
                                angle / 100.0,
                                np.nextafter(angle / 100.0, 1.0))
                    if x * 100.0 == angle]
            if ties:
                break
        est = pose([ties[0] if ties else angle / 100.0, 0.0, 0.0], q)
    R = quat_to_rotmat(gt[3:])
    cam = rng.uniform([-1, -1, 2], [1, 1, 6], (12, 3))
    if points_kind == "behind":  # both sides of the gt camera
        cam[::2, 2] *= -1.0
    points = cam @ R.T + gt[:3]
    if points_kind == "on est plane":  # at the estimate's centre: depth 0
        points[0] = est[:3]
    elif points_kind == "at gt depth 0":
        points[0] = gt[:3]
    elif points_kind == "none":
        points = points[:0]
    return gt, est, hyper, points


class TestValuePath:
    """loss_value stops the kernel before its gradient block: the value of
    evaluate_with_grad, by ==, and the same domain errors."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1),
           case=st.sampled_from(["perturbed", "non-unit", "gt", "zero q",
                                 "clamped", "tie"]),
           points=st.sampled_from(["front", "behind", "on est plane",
                                   "at gt depth 0", "none"]),
           max_deg=st.sampled_from([1e-4, 1.0, 10.0, 90.0]),
           x_min=st.floats(0.1, 10.0), width=st.floats(1e-2, 100.0))
    def test_value_is_the_gradient_paths_value(self, kind, seed, case,
                                               points, max_deg, x_min,
                                               width):
        rng = np.random.default_rng(seed)
        gt, est, hyper, pts = value_path_case(rng, case, points, max_deg)
        ctx = LossContext(
            gt=gt, hyper=hyper, points=pts, intrinsics=K,
            slab=SlabParams(x_min, x_min + width))
        params = params_for(kind, est, ctx)
        try:
            want = evaluate_with_grad(kind, params, ctx)[0]
        except InvalidInputError as e:
            with pytest.raises(InvalidInputError) as got:
                loss_value(kind, params, ctx)
            assert str(got.value) == str(e)
            return
        assert loss_value(kind, params, ctx) == want

    @pytest.mark.parametrize("kind", ["geometric", "homography_local",
                                      "homography_global"])
    def test_value_skips_the_rotation_gradient(self, kind, monkeypatch):
        def reached(*args):
            raise AssertionError("the value path reached rotation_grad")

        rng = np.random.default_rng(9)
        ctx = make_ctx(rng)
        params = params_for(kind, perturbed(ctx.gt, rng, 0.2, 5.0), ctx)
        want = evaluate_with_grad(kind, params, ctx)[0]
        monkeypatch.setattr(dual, "rotation_grad", reached)
        assert loss_value(kind, params, ctx) == want
        with pytest.raises(AssertionError, match="reached rotation_grad"):
            evaluate_with_grad(kind, params, ctx)


@pytest.mark.parametrize("kind", ["geometric", "homography_local",
                                  "homography_global"])
def test_rotation_grad_takes_the_kernels_qq(kind, monkeypatch):
    # Once per gradient evaluation, each kernel hands rotation_grad its
    # estimate's q and the |q|^2 that normalizes its rotation, bit for bit
    # the left-to-right sum_squares, not another order of the same sum.
    rotation_grad, seen = dual.rotation_grad, []

    def spy(q, g, qq):
        seen.append((list(q), qq))
        return rotation_grad(q, g, qq)

    rng = np.random.default_rng(13)
    ctx = make_ctx(rng)
    monkeypatch.setattr(dual, "rotation_grad", spy)
    for n in range(1, 41):
        params = params_for(kind, perturbed(ctx.gt, rng, 0.2, 5.0), ctx)
        params[3:7] *= rng.uniform(0.1, 10.0)
        evaluate_with_grad(kind, params, ctx)
        q = params[3:7].tolist()
        assert len(seen) == n and seen[-1][0] == q
        assert seen[-1][1].hex() == dual.sum_squares(q).hex()


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_kernels_call_no_builtin_sum(kind, monkeypatch):
    # From CPython 3.12 sum() of floats is compensated, so a kernel that
    # used it would change its bits with the Python version.
    def builtin_sum(*args):
        raise AssertionError("a kernel called sum()")

    rng = np.random.default_rng(10)
    ctx = make_ctx(rng)
    params = params_for(kind, perturbed(ctx.gt, rng, 0.2, 5.0), ctx)
    monkeypatch.setattr(losses, "sum", builtin_sum, raising=False)
    loss_value(kind, params, ctx)
    evaluate_with_grad(kind, params, ctx)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_entry_points_look_up_the_kernel_by_name(kind, monkeypatch):
    # A function set on losses in place of the kind's kernel, as a tracer
    # or a test sets one, is what both entry points call.
    name = "_homography_core" if kind.startswith("homography") \
        else f"_{kind}_core"
    kernel, calls = getattr(losses, name), []

    def spy(*args):
        calls.append(args[-1])
        return kernel(*args)

    rng = np.random.default_rng(12)
    ctx = make_ctx(rng)
    params = params_for(kind, perturbed(ctx.gt, rng, 0.2, 5.0), ctx)
    monkeypatch.setattr(losses, name, spy)
    loss_value(kind, params, ctx)
    evaluate_with_grad(kind, params, ctx)
    assert calls == [False, True]


@pytest.mark.parametrize("entry", [loss_value, evaluate_with_grad])
@pytest.mark.parametrize("kind,missing", [("homography_local", "slab"),
                                          ("homography_global", "slab"),
                                          ("geometric", "intrinsics")])
def test_missing_input_is_invalid_input(entry, kind, missing):
    # A missing field is invalid input that names it, not an
    # AttributeError on None.
    ctx = replace(make_ctx(np.random.default_rng(13)), **{missing: None})
    with pytest.raises(InvalidInputError, match=f"needs .*{missing}"):
        entry(kind, params_for(kind, ctx.gt, ctx), ctx)


# What each kind's definition ignores in the estimated q: its sign and
# scale when the loss uses only the rotation R(q), the scale when it uses
# q/|q|, the sign when it uses |q| and |q . q_gt|. Posenet uses q itself.
Q_INVARIANCES = {
    "homoscedastic": ("scale",),
    "geometric": ("sign", "scale"),
    "maxerror": ("sign",),
    "homography_local": ("sign", "scale"),
    "homography_global": ("sign", "scale"),
}


class TestQuaternionInvariance:
    """The loss keeps its value when the estimated q changes only in what
    the definition ignores: exactly for -1 and powers of two, which scale
    without rounding, and to 1e-13 relative for any other scale."""

    @pytest.mark.parametrize("kind", list(Q_INVARIANCES))
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), unit_gt=st.booleans(),
           power=st.integers(-8, 8).filter(bool),
           scale=st.floats(0.1, 10.0))
    def test_sign_and_scale(self, kind, seed, unit_gt, power, scale):
        rng = np.random.default_rng(seed)
        gt = random_pose(rng, scale=1.0)
        if not unit_gt:
            gt = pose(gt[:3], gt[3:] * rng.uniform(0.5, 2.0))
        # At least 5 degrees and 5 cm from the gt, so that rounding in the
        # scaled q stays far below 1e-13 of the loss.
        step = rng.normal(size=3)
        dq = quat_from_axis_angle(rng.normal(size=3),
                                  np.radians(rng.uniform(5.0, 60.0)))
        est = pose(
            gt[:3] + step / np.linalg.norm(step) * rng.uniform(0.05, 1.0),
            quat_multiply(gt[3:], dq))
        x_min = rng.uniform(0.1, 10.0)
        ctx = LossContext(
            gt=gt,
            # s_t = s_q = 0 keeps the homoscedastic loss a positive sum
            hyper=LossHyperParams(s_t=0.0, s_q=0.0),
            points=points_before(gt, rng), intrinsics=K,
            slab=SlabParams(x_min, x_min + rng.uniform(1e-2, 100.0)),
        )
        params = params_for(kind, est, ctx)

        def value(factor):
            p = params.copy()
            p[3:7] *= factor
            return loss_value(kind, p, ctx)

        base = value(1.0)
        if "sign" in Q_INVARIANCES[kind]:
            assert value(-1.0) == base
        if "scale" in Q_INVARIANCES[kind]:
            assert value(2.0 ** power) == base
            assert abs(value(scale) - base) <= 1e-13 * abs(base)


class TestFiniteDiff:
    def test_quadratic_example(self):
        # posenet with t = (1,0,0): d|t|/dt_x = 1; central FD is exact on
        # the smooth branch up to rounding.
        gt = identity_pose()
        est = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
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
        ctx = LossContext(gt=identity_pose())
        est = identity_pose()
        with pytest.raises(InvalidInputError):
            finite_diff_grad("posenet", est, ctx, step=0.0)
        with pytest.raises(InvalidInputError, match="step must be positive"):
            finite_diff_grad("posenet", est, ctx, step=np.nan)
        with pytest.raises(InvalidInputError, match="finite, got inf"):
            finite_diff_grad("posenet", est, ctx, step=np.inf)

    def test_error_reports_coordinate(self):
        # A null estimated quaternion fails inside the loss at the first
        # probed coordinate; the re-raised error should name it.
        ctx = LossContext(gt=identity_pose())
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
            finite_diff_grad("posenet", identity_pose(),
                             LossContext(gt=identity_pose()))
        assert info.value is err

    @settings(deadline=None, max_examples=150)
    @given(kind=st.sampled_from(LOSS_KINDS), seed=st.integers(0, 2**16),
           params=st.lists(st.floats(-10.0, 10.0)
                           | st.sampled_from([0.0, -0.0]),
                           min_size=9, max_size=9),
           step=st.sampled_from([1e-300, 1e-6, 1e-3, 0.5, 3.0]))
    def test_equals_the_copy_per_coordinate_loop(self, kind, seed, params,
                                                 step):
        # The +-step rows built at once have the bits, and the first
        # failing probe, of two copies moved per coordinate.
        ctx = make_ctx(np.random.default_rng(seed))
        est = params[:param_count(kind)]
        try:
            want = finite_diff_grad_loop(kind, est, ctx, step)
        except InvalidInputError as e:
            with pytest.raises(InvalidInputError) as info:
                finite_diff_grad(kind, est, ctx, step)
            assert str(info.value) == str(e)
            return
        got = finite_diff_grad(kind, est, ctx, step)
        assert [x.hex() for x in got.tolist()] == \
            [x.hex() for x in want.tolist()]


class TestGradReport:
    def test_rel_err_floor(self):
        rel = max_rel_err(np.zeros(3), np.full(3, 1e-12))
        assert rel == pytest.approx(1e-12 / 1e-8)

    def test_identical_gradients(self):
        g = np.array([1.0, -2.0, 3.0])
        assert max_rel_err(g, g.copy()) == 0.0
