"""The benchmark's traced contract, checked in the test suite.

`perfbench/run.py --trace 1` fails unless every traced call count equals
what the workload's inputs imply (module names, function names and call
counts are pinned there), and unless replaying each call's manifest
reproduces its outputs byte for byte. Running and replaying each workload
once here makes a change that breaks either fail the tests, not only the
traced benchmark.
"""

import os
import sys

import pytest

import homoloss
from homoloss import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_operation_meets_the_contract(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    runner = run.Runner(cli, workload)
    t = tracer.Tracer()
    t.install(homoloss)
    try:
        _, counts = runner.run_op(t)
    finally:
        t.uninstall()
    assert runner.problems == []
    run._check_trace(workload, counts)
    runner.replay()  # each call's manifest reproduces its outputs
    assert runner.problems == []
