import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from homoloss.geometry import quat_from_axis_angle, quat_multiply, \
    quat_to_rotmat
from homoloss.scene import local_slabs, synth_scene


TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
SRC = os.path.join(TOOLS, os.pardir, "src")


def openblas():
    """Whether numpy's BLAS is OpenBLAS, whose kernels OPENBLAS_CORETYPE
    selects."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except KeyError:  # a build that records no BLAS
        return False
    return "openblas" in blas["name"].lower()


# The pinned tool outputs hold under OPENBLAS_CORETYPE=Prescott, the generic
# x86-64 core, which the variable selects only under OpenBLAS on x86-64.
prescott = pytest.mark.skipif(
    not openblas() or platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE=Prescott selects a core only under OpenBLAS "
    "on x86-64")


def run_tool(script, args, core=None):
    """The stdout of tools/<script> run with args in a fresh interpreter,
    with this tree's src on PYTHONPATH and OPENBLAS_CORETYPE set to core,
    or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if core:
        env["OPENBLAS_CORETYPE"] = core
    return subprocess.run([sys.executable, os.path.join(TOOLS, script),
                           *args], env=env, capture_output=True, text=True,
                          check=True).stdout


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


def pose(t, q):
    """The (7,) pose row (t, q) of a position t and a quaternion q."""
    return np.concatenate([np.asarray(t, dtype=float),
                           np.asarray(q, dtype=float)])


def identity_pose():
    return pose(np.zeros(3), [1.0, 0.0, 0.0, 0.0])


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng, scale=5.0):
    return pose(rng.normal(size=3) * scale, random_unit_quat(rng))


def random_rotation(rng):
    return quat_to_rotmat(random_unit_quat(rng))


def perturbed(row, rng, max_t, max_deg):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    dq = quat_from_axis_angle(
        rng.normal(size=3), np.radians(rng.uniform(0, max_deg))
    )
    return pose(
        row[:3] + direction * rng.uniform(0, max_t),
        quat_multiply(row[3:], dq),
    )
