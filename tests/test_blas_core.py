"""The homography kernels' bits do not depend on which OpenBLAS core numpy
runs: three fresh interpreters, each under its own OPENBLAS_CORETYPE, hash
both homography kinds over the same draws and must print one digest."""

import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# Inputs from rng calls alone: a norm (a BLAS dot) would make the inputs
# themselves differ between cores.
SCRIPT = """
import hashlib
import numpy as np
from homoloss import diffgrad
from homoloss.geometry import Pose
from homoloss.losses import LossContext, SlabParams

def signed_zeros(rng, x, frac):
    zeros = np.where(rng.random(len(x)) < 0.5, 0.0, -0.0)
    return np.where(rng.random(len(x)) < frac, zeros, x)

rng = np.random.default_rng(20261019)
h = hashlib.sha256()
for _ in range(2000):
    q_gt = signed_zeros(rng, rng.normal(size=4), 0.2) * rng.uniform(0.2, 5.0)
    if not q_gt.any():
        q_gt[0] = 1.0
    t_gt = signed_zeros(rng, rng.normal(size=3) * 2.0, 0.2)
    t = t_gt + rng.normal(size=3) * rng.choice([1e-6, 1e-3, 0.3, 3.0])
    q = q_gt + rng.normal(size=4) * rng.choice([1e-6, 1e-3, 0.1, 1.0])
    q = signed_zeros(rng, q, 0.1) * rng.uniform(0.1, 10.0)
    x_min = rng.uniform(0.1, 10.0)
    ctx = LossContext(Pose(t_gt, q_gt),
                      slab=SlabParams(x_min, x_min + rng.uniform(1e-2, 100.0)))
    p = np.concatenate([t, q])
    for kind in diffgrad.HOMOGRAPHY_KINDS:
        for entry in (diffgrad.loss_value, diffgrad.evaluate_with_grad):
            try:
                out = entry(kind, p, ctx)
            except Exception as e:
                h.update(f"{type(e).__name__}: {e};".encode())
                continue
            for x in np.hstack(out if type(out) is tuple else [out]).tolist():
                h.update(x.hex().encode() + b",")
print(h.hexdigest())
"""


def _openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        return False
    return "openblas" in blas["name"].lower()


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS, "
                    "so OPENBLAS_CORETYPE selects nothing")
def test_homography_bits_do_not_depend_on_the_blas_core():
    digests = {}
    for core in (None, "Prescott", "Haswell"):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        if core:
            env["OPENBLAS_CORETYPE"] = core
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                           capture_output=True, text=True, check=True)
        digests[core] = r.stdout.strip()
    assert len(set(digests.values())) == 1, digests
