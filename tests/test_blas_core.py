"""The homography kernel's bits do not depend on which OpenBLAS core numpy
runs: tools/kernel_bits.py, whose draws call no BLAS, must print one line
in three fresh interpreters, each under its own OPENBLAS_CORETYPE."""

import pytest

from conftest import openblas, run_tool


@pytest.mark.skipif(not openblas(), reason="numpy's BLAS is not OpenBLAS, "
                    "so OPENBLAS_CORETYPE selects nothing")
def test_homography_bits_do_not_depend_on_the_blas_core():
    outputs = {core: run_tool("kernel_bits.py",
                              ["--seed", "1", "--frames", "2000", "--kinds",
                               "homography_local"], core)
               for core in (None, "Prescott", "Haswell")}
    assert len(set(outputs.values())) == 1, outputs
