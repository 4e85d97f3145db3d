import numpy as np
import pytest

from homoloss.geometry import Pose, quat_from_axis_angle, quat_multiply, quat_to_rotmat
from homoloss.scene import local_slabs, synth_scene


# pass/fail lines collected by the acceptance tests; echoed after the run
# because capture would otherwise swallow them for passing tests
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def scene():
    return synth_scene(seed=0)


@pytest.fixture(scope="session")
def slabs(scene):
    return local_slabs(scene)


def identity_pose():
    return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


def pose_rows(poses):
    """(n, 7) parameter rows (t, q) of a list of n Poses, n >= 0."""
    return np.array([p.params() for p in poses]).reshape(-1, 7)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng, scale=5.0):
    return Pose(rng.normal(size=3) * scale, random_unit_quat(rng))


def random_rotation(rng):
    return quat_to_rotmat(random_unit_quat(rng))


def perturbed(pose, rng, max_t, max_deg):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    dq = quat_from_axis_angle(
        rng.normal(size=3), np.radians(rng.uniform(0, max_deg))
    )
    return Pose(
        pose.t + direction * rng.uniform(0, max_t),
        quat_multiply(pose.q, dq),
    )
