"""The benchmark's traced contract, checked in the test suite.

`perfbench/run.py --trace 1` fails unless every traced call count equals
what the workload's inputs imply (module names, function names and call
counts are pinned there), and unless replaying each call's manifest
reproduces its outputs byte for byte. Running and replaying each workload
once here makes a change that breaks either fail the tests, not only the
traced benchmark. The tests also run what the suite otherwise never runs:
a fresh interpreter that imports one module of the package first, and
`perfbench/setup_once.py`, whose fresh-interpreter set-up is the
benchmark's `setup_s`.
"""

import glob
import os
import subprocess
import sys

import pytest

import homoloss
from homoloss import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
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


def _fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", sorted(
    "homoloss" if name == "__init__" else f"homoloss.{name}"
    for name in (os.path.basename(p)[:-3]
                 for p in glob.glob(os.path.join(SRC, "homoloss", "*.py")))))
def test_each_module_imports_first(module):
    done = _fresh_python("-c", f"import {module}")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_once_runs(name, tmp_path):
    done = _fresh_python("perfbench/setup_once.py", "--workload", name,
                         "--seed", "7", "--dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.splitlines()[-1]) > 0


def test_refine_and_gradcheck_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, which adds about 1.3 MB
    # to the benchmark's peak_rss_mb; the per-epoch metric and the slabs
    # must not need it.
    argv = [workloads.refine_homography(7, str(tmp_path / "r")).calls[0].argv,
            workloads.probe(7, str(tmp_path / "p")).calls[0].argv]
    assert [a[0] for a in argv] == ["optimize", "gradcheck"]
    done = _fresh_python("-c", f"""
import sys
from homoloss import cli
for argv in {argv!r}:
    assert cli.main(argv) == 0, argv
print("numpy.ma" in sys.modules)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
