import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import identity_pose, pose, random_pose, random_unit_quat
from homoloss.geometry import (
    InvalidInputError,
    Intrinsics,
    quat_canonical,
    quat_from_axis_angle,
    project_points,
    quat_normalize,
    quat_multiply,
    quat_to_rotmat,
    rotmat_elems,
    rotmat_to_quat,
)
from homoloss.losses import LossContext
from homoloss.optim import perturb_pose
from homoloss.scene import Frame, Scene, default_intrinsics
from oracles import (
    InvalidDepthError,
    PointAtInfinity,
    RelativePose,
    angle_between,
    apply_relative,
    homography,
    project,
    project_points_2d,
    relative_pose,
    quat_canonical_one,
    quat_from_axis_angle_array,
    rotmat_elems_expressions,
    rotmat_to_quat_one,
)

RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


class TestQuatToRotmat:
    def test_identity(self):
        np.testing.assert_allclose(quat_to_rotmat([1, 0, 0, 0]), np.eye(3))

    def test_rz90(self):
        s = math.sqrt(0.5)
        np.testing.assert_allclose(
            quat_to_rotmat([s, 0, 0, s]), RZ90, atol=1e-15
        )

    def test_orthonormal_over_seeded_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            M = quat_to_rotmat(random_unit_quat(rng))
            assert np.linalg.norm(M @ M.T - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(M) - 1.0) < 1e-12

    def test_non_unit_quaternion_normalized(self):
        q = np.array([2.0, 0.0, 0.0, 2.0])
        np.testing.assert_allclose(quat_to_rotmat(q), RZ90, atol=1e-15)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(InvalidInputError):
            quat_to_rotmat([0, 0, 0, 0])


# Any float, and often one whose square is zero, subnormal or infinite, or
# a signed zero or subnormal itself.
QUAT_ENTRIES = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-170,
     1e160, 0.5, -3.0]))


def _hexes(rows):
    """float.hex of every entry of rotmat_elems's nested output, floats or
    (F,) arrays."""
    return [[v.hex() for v in np.ravel(e).tolist()] for row in rows
            for e in row]


class TestRotmatElems:
    """rotmat_elems against the expression form it replaced
    (oracles.rotmat_elems_expressions): every entry by float.hex, so signed
    zeros and NaNs count, and the same zero-norm error."""

    @staticmethod
    def check(q):
        try:
            want = rotmat_elems_expressions(q)
        except InvalidInputError as e:
            with pytest.raises(InvalidInputError) as got:
                rotmat_elems(q)
            assert str(got.value) == str(e)
            return
        got = rotmat_elems(q)
        assert _hexes(got) == _hexes(want)

    @settings(max_examples=500)
    @given(q=st.lists(QUAT_ENTRIES, min_size=4, max_size=4))
    def test_floats_match_the_expression_form(self, q):
        self.check(q)

    @settings(max_examples=300)
    @given(entries=st.integers(1, 8).flatmap(lambda f: st.lists(
        QUAT_ENTRIES, min_size=4 * f, max_size=4 * f)))
    def test_stacks_match_the_expression_form(self, entries):
        with np.errstate(all="ignore"):
            self.check(np.array(entries).reshape(4, -1))


class TestRelativePose:
    def test_superimposed(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        rel = relative_pose(p, p)
        np.testing.assert_allclose(rel.R, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(rel.t, np.zeros(3), atol=1e-14)

    def test_pure_translation_sign(self):
        gt = identity_pose()
        est = pose([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        rel = relative_pose(gt, est)
        np.testing.assert_allclose(rel.R, np.eye(3))
        np.testing.assert_allclose(rel.t, [0.0, 0.0, -1.0])

    def test_round_trip_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            gt = random_pose(rng)
            est = random_pose(rng)
            rel = relative_pose(gt, est)
            back = apply_relative(est, rel)
            np.testing.assert_allclose(back[:3], gt[:3], atol=1e-12)
            np.testing.assert_allclose(
                quat_to_rotmat(back[3:]), quat_to_rotmat(gt[3:]), atol=1e-12
            )

    def test_recovers_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            est = random_pose(rng)
            delta = RelativePose(
                quat_to_rotmat(random_unit_quat(rng)), rng.normal(size=3)
            )
            gt = apply_relative(est, delta)
            rel = relative_pose(gt, est)
            np.testing.assert_allclose(rel.R, delta.R, atol=1e-12)
            np.testing.assert_allclose(rel.t, delta.t, atol=1e-12)

    def test_zero_quaternion_rejected(self):
        bad = pose([0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(InvalidInputError):
            relative_pose(bad, identity_pose())


class TestProject:
    def test_on_axis_point(self):
        K = Intrinsics(fx=500, fy=500, cx=320, cy=240, w=640, h=480)
        pix, depth = project(identity_pose(), K, [0, 0, 3.5])
        np.testing.assert_allclose(pix, [320, 240])
        assert depth == 3.5

    def test_backside_projection_signed_depth(self):
        K = Intrinsics(fx=500, fy=500, cx=320, cy=240, w=640, h=480)
        pix, depth = project(identity_pose(), K, [0.1, 0.0, -2.0])
        assert depth == -2.0
        assert np.all(np.isfinite(pix))

    def test_point_at_infinity(self):
        K = Intrinsics(fx=500, fy=500, cx=320, cy=240, w=640, h=480)
        with pytest.raises(PointAtInfinity):
            project(identity_pose(), K, [1.0, 1.0, 1e-12])

    def test_homography_consistency(self):
        # Points on a plane at depth x in the gt frame map between the two
        # normalized views through H = R - t n^T / x.
        rng = np.random.default_rng(4)
        K = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, w=1.0, h=1.0)
        n = np.array([0.0, 0.0, -1.0])
        for _ in range(100):
            gt = random_pose(rng, scale=1.0)
            est = pose(
                gt[:3] + rng.normal(size=3) * 0.3,
                quat_multiply(
                    gt[3:],
                    quat_from_axis_angle(rng.normal(size=3),
                                         rng.uniform(-0.3, 0.3)),
                ),
            )
            x = rng.uniform(1.0, 5.0)
            rel = relative_pose(gt, est)
            H = homography(rel, n, x).H
            R_gt = quat_to_rotmat(gt[3:])
            for _ in range(5):
                # world point on the plane z = x of the gt camera
                Xc = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), x])
                P = R_gt @ Xc + gt[:3]
                p_gt, _ = project(gt, K, P)
                p_est, _ = project(est, K, P)
                mapped = H @ np.array([p_gt[0], p_gt[1], 1.0])
                mapped = mapped[:2] / mapped[2]
                np.testing.assert_allclose(mapped, p_est, atol=1e-9)


# A rotation: any non-zero quaternion, or one about the optical axis, under
# which a point t + (a, b, 0) lies at camera depth exactly 0.
ROTATIONS = st.one_of(
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: math.hypot(*q) > 1e-3),
    st.floats(-math.pi, math.pi).map(
        lambda a: (math.cos(0.5 * a), 0.0, 0.0, math.sin(0.5 * a))))
# A coordinate: near the camera, often behind it, or so far that a pixel
# overflows (500 * 1e307 > 1.8e308).
COORDS = st.one_of(st.floats(-100.0, 100.0), st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e307, -1e307]))


@st.composite
def posed_points(draw, n):
    """A pose row and (n, 3) world points, some at camera depth 0."""
    t = np.array(draw(st.tuples(*[st.floats(-10.0, 10.0)] * 3)))
    points = [t + [draw(COORDS), draw(COORDS), 0.0] if draw(st.booleans())
              else draw(st.tuples(*[COORDS] * 3)) for _ in range(n)]
    return np.concatenate([t, draw(ROTATIONS)]), np.array(points)


class TestPlanarProjection:
    """project_points on planar (3, N) points, one pose or an (F, 3, N)
    stack, against the (N, 3) @ (3, 3) form oracles.project_points_2d:
    pixels transposed and depths, by float.hex, and without a warning."""

    K = Intrinsics(fx=500.0, fy=450.0, cx=320.0, cy=240.0, w=640.0, h=480.0)

    @staticmethod
    def hexes(a):
        return [v.hex() for v in np.ravel(a).tolist()]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), frames=st.integers(1, 4))
    def test_equals_the_row_form(self, data, n, frames):
        drawn = [data.draw(posed_points(n)) for _ in range(frames)]
        with np.errstate(all="ignore"):  # the oracle's own overflow
            want = [project_points_2d(p, self.K, pts) for p, pts in drawn]
        t = np.array([p[:3] for p, _ in drawn])
        R = np.array([quat_to_rotmat(p[3:]) for p, _ in drawn])
        planar = np.array([pts.T for _, pts in drawn])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [project_points(t[i], R[i], self.K, planar[i])
                   for i in range(frames)]
            uv, z = project_points(t, R, self.K, planar)
        got += list(zip(uv, z))
        for (got_uv, got_z), (want_uv, want_z) in zip(got, want + want):
            assert self.hexes(got_uv) == self.hexes(want_uv.T)
            assert self.hexes(got_z) == self.hexes(want_z)


class TestHomography:
    def test_superimposed_identity(self):
        rng = np.random.default_rng(5)
        rel = RelativePose(np.eye(3), np.zeros(3))
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            x = rng.uniform(0.1, 100.0)
            np.testing.assert_array_equal(homography(rel, n, x).H, np.eye(3))

    def test_pure_z_translation(self):
        tau, x = 0.3, 2.0
        rel = RelativePose(np.eye(3), [0.0, 0.0, tau])
        H = homography(rel, [0, 0, -1], x).H
        expected = np.eye(3)
        expected[2, 2] = 1.0 + tau / x
        np.testing.assert_allclose(H, expected)

    def test_translation_free(self):
        rel = RelativePose(RZ90, np.zeros(3))
        for x in (0.5, 1.0, 10.0):
            np.testing.assert_array_equal(
                homography(rel, [0, 0, -1], x).H, RZ90
            )

    def test_nonpositive_depth_rejected(self):
        rel = RelativePose(np.eye(3), np.zeros(3))
        for x in (0.0, -1.0):
            with pytest.raises(InvalidDepthError):
                homography(rel, [0, 0, -1], x)


class TestAngleBetween:
    """oracles.angle_between, the per-frame oracle of optim.pct_within."""

    def test_equal_is_zero(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        assert angle_between(q, q) == 0.0

    def test_double_cover(self):
        rng = np.random.default_rng(6)
        q = random_unit_quat(rng)
        assert angle_between(q, -q) == 0.0

    def test_quarter_turn(self):
        s = math.sqrt(0.5)
        assert angle_between([1, 0, 0, 0], [s, 0, 0, s]) == pytest.approx(90.0)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q1 = random_unit_quat(rng)
            q2 = random_unit_quat(rng)
            base = angle_between(q1, q2)
            for s1 in (1, -1):
                for s2 in (1, -1):
                    assert angle_between(s1 * q1, s2 * q2) == base

    def test_zero_quaternion_rejected(self):
        with pytest.raises(InvalidInputError):
            angle_between([0, 0, 0, 0], [1, 0, 0, 0])

    def test_nan_quaternion_gives_nan(self):
        # a diverged estimate is within no threshold, not at angle 0
        nan = [math.nan] * 4
        assert math.isnan(angle_between(nan, [1, 0, 0, 0]))
        assert math.isnan(angle_between([1, 0, 0, 0], nan))


# matrices taking each rotmat_to_quat branch, and the ties that decide them
BRANCH_CASES = {
    "trace > 0": quat_to_rotmat([0.9, 0.1, 0.2, 0.3]),
    "R00 largest": quat_to_rotmat([0.1, 0.9, 0.2, 0.3]),
    "R11 largest": quat_to_rotmat([0.1, 0.2, 0.9, 0.3]),
    "R22 largest": quat_to_rotmat([0.1, 0.2, 0.3, 0.9]),
    "trace 0, R00 == R11 == R22": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0]],
    "trace 0, R00 > R11 > R22": [[0.5, 0.6, 0.0], [-0.6, 0.0, 0.0],
                                 [0.0, 0.0, -0.5]],
    "trace 0, R11 > R22 > R00": [[-0.5, 0.0, 0.3], [0.0, 0.5, 0.0],
                                 [0.1, 0.0, 0.0]],
    "R00 == R11 > R22": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
    "R00 == R22 > R11": [[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]],
    "R11 == R22 > R00": [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
}


class TestStackedRotmatToQuat:
    def test_each_branch_and_tie_equals_per_matrix_calls(self):
        R = np.array(list(BRANCH_CASES.values()))
        for name, r, q in zip(BRANCH_CASES, R, rotmat_to_quat(R)):
            assert q.tobytes() == rotmat_to_quat_one(r).tobytes(), name
            assert q.tobytes() == rotmat_to_quat(r).tobytes(), name

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-2, 2)] * 4).filter(any)
                    | st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
                        lambda q: math.hypot(*q) > 1e-3),
                    min_size=1, max_size=12))
    def test_rotations_equal_per_matrix_calls(self, quats):
        # small-integer quaternions give rotations with exact ties: 0 trace,
        # equal diagonal entries, entries of +-0 and +-1
        R = quat_to_rotmat(np.array(quats, dtype=float))
        for r, q in zip(R, rotmat_to_quat(R)):
            assert q.tobytes() == rotmat_to_quat_one(r).tobytes()

    def test_stack_shapes(self):
        R = np.array(list(BRANCH_CASES.values()))
        assert rotmat_to_quat(R[0]).shape == (4,)
        assert rotmat_to_quat(R.reshape(2, 5, 3, 3)).tobytes() == \
            rotmat_to_quat(R).tobytes()


def test_stacked_quat_canonical_equals_per_row_calls():
    q = np.random.default_rng(3).normal(size=(500, 4))
    q[:4] = [[-0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
             [0.5, -0.5, 0.5, -0.5], [-2.0, -0.0, 0.0, 3.0]]
    # a strided stack: its rows' ddot would differ from a 1-D norm's
    for stack in (q, np.asfortranarray(q)):
        for row, c in zip(q, quat_canonical(stack)):
            assert c.tobytes() == quat_canonical_one(row).tobytes()
    with pytest.raises(InvalidInputError, match="zero-norm quaternion"):
        quat_canonical([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


def test_quat_normalize_rejects_an_infinite_norm_without_a_warning(recwarn):
    # |q|^2 overflows for entries of about 1.3e154 and more; a NaN norm
    # passes, as pct_within counts a NaN estimate as not within
    for q in ([1e300, 1e300, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0],
                                        [0.0, 0.0, 0.0, -1.4e154]],
              [math.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(InvalidInputError, match="norm overflows"):
            quat_normalize(q)
    assert np.isnan(quat_normalize([math.nan, 1.0, 0.0, 0.0])).all()
    np.testing.assert_array_equal(quat_normalize([0.0, 0.0, 0.0, 1e154]),
                                  [0.0, 0.0, 0.0, 1.0])
    assert not recwarn.list


@settings(max_examples=500, deadline=None)
@given(axis=st.lists(st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0]),
                     min_size=3, max_size=3),
       angle=st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]))
def test_quat_from_axis_angle_equals_the_array_form(axis, angle):
    # Finite axes of non-zero norm, whose squares sum without overflow,
    # and the unit axes of a sweep keep the bits of the array expression.
    for a in ([axis] if any(c * c for c in axis) else []) + list(np.eye(3)):
        got = quat_from_axis_angle(a, angle)
        assert got.tobytes() == quat_from_axis_angle_array(a, angle).tobytes()


@pytest.mark.parametrize("axis", [
    [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [0.0, -math.inf, math.nan],
    [1e300, 1e300, 0.0], [0.0, 0.0, -1.4e154]])
def test_quat_from_axis_angle_rejects_a_non_finite_axis(axis, recwarn):
    # an entry that is not finite, or a norm that overflows
    with pytest.raises(InvalidInputError, match="rotation axis must be "
                       "finite with a finite norm"):
        quat_from_axis_angle(axis, 0.5)
    assert not recwarn.list


def test_rotmat_quat_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = random_unit_quat(rng)
        if q[0] < 0:
            q = -q
        np.testing.assert_allclose(
            rotmat_to_quat(quat_to_rotmat(q)), q, atol=1e-12
        )


def scene_gt(pose):
    """The gt row that a one-frame Scene keeps of pose: a Frame checks
    nothing, the Scene validates its frames."""
    return Scene(np.zeros((0, 3)), [Frame("f", pose, ())],
                 default_intrinsics()).gt[0]


@pytest.mark.parametrize("make, message", [
    (lambda: scene_gt([0.0] * 6), "pose needs 7 values"),
    (lambda: LossContext(gt=np.zeros((1, 7))), "pose needs 7 values"),
    (lambda: LossContext(gt=np.zeros(6)), "pose needs 7 values"),
    (lambda: quat_from_axis_angle([0.0, 0.0, 0.0], 0.5),
     "zero-norm rotation axis"),
], ids=["short-t", "row-t", "short-q", "zero-axis"])
def test_invalid_input_rejected(make, message):
    with pytest.raises(InvalidInputError, match=message):
        make()


def test_stored_pose_rows_are_read_only_copies():
    row = np.arange(7.0)
    for stored in (scene_gt(row), LossContext(gt=row).gt):
        assert stored is not row and stored.tolist() == row.tolist()
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0


# Each way in: Scene, LossContext and perturb_pose validate with pose_row.
POSE_TAKERS = {
    "frame": scene_gt,
    "context": lambda p: LossContext(gt=p).gt,
    "perturb": lambda p: perturb_pose(p, np.random.default_rng(0), 0.0, 0.0),
}


@pytest.mark.parametrize("take", POSE_TAKERS.values(), ids=POSE_TAKERS)
@pytest.mark.parametrize("bad, message", [
    ([[0.0] * 3, [1.0] * 4], "got a ragged sequence"),
    ("abcdefg", "7 real numbers, got <U7 values"),
    (object(), "7 real numbers, got object values"),
    ([None] * 7, "7 real numbers, got object values"),
    ([1.0] * 6 + [None], "7 real numbers, got object values"),
    (["1"] * 7, "7 real numbers, got <U1 values"),
    ([1j] * 7, "7 real numbers, got complex128 values"),
], ids=["ragged", "string", "object", "none", "one-none", "digits",
        "complex"])
def test_malformed_pose_rejected(take, bad, message):
    with pytest.raises(InvalidInputError, match=message):
        take(bad)


finite = st.floats(allow_nan=False, allow_infinity=False)
pose_values = st.one_of(
    st.lists(finite, min_size=7, max_size=7),
    st.lists(st.integers(-2**53, 2**53), min_size=7, max_size=7),
    st.lists(st.one_of(finite, st.integers(-10, 10)), min_size=7,
             max_size=7),
)


@settings(max_examples=100, deadline=None)
@given(values=pose_values, form=st.sampled_from(["list", "tuple", "array"]))
def test_valid_pose_forms_keep_their_bits(values, form):
    given_pose = {"list": list, "tuple": tuple, "array": np.array}[form](
        values)
    want = np.array(values, dtype=float)
    with np.errstate(over="ignore"):  # a Scene takes no other gt q
        valid_q = 0 < np.vecdot(want[3:], want[3:]) < math.inf
    for name in ("frame", "context") if valid_q else ("context",):
        stored = POSE_TAKERS[name](given_pose)
        assert stored.dtype == np.float64 and stored.shape == (7,)
        assert stored.tobytes() == want.tobytes()
        assert not stored.flags.writeable
    if form == "array":
        given_pose[0] += 1  # the stored rows are copies
        assert stored.tobytes() == want.tobytes()
