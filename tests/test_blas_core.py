"""The homography kernel's bits do not depend on which OpenBLAS core numpy
runs: tools/kernel_bits.py, whose draws call no BLAS, must print one line
in three fresh interpreters, each under its own OPENBLAS_CORETYPE."""

import os
import subprocess
import sys

import numpy as np
import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
SRC = os.path.join(TOOLS, os.pardir, "src")


def _openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        return False
    return "openblas" in blas["name"].lower()


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS, "
                    "so OPENBLAS_CORETYPE selects nothing")
def test_homography_bits_do_not_depend_on_the_blas_core():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    outputs = {}
    for core in (None, "Prescott", "Haswell"):
        outputs[core] = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "kernel_bits.py"), "--seed",
             "1", "--frames", "2000", "--kinds", "homography_local"],
            env=dict(env, OPENBLAS_CORETYPE=core) if core else env,
            capture_output=True, text=True, check=True).stdout
    assert len(set(outputs.values())) == 1, outputs
