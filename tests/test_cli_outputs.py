"""tools/cli_outputs.py: every run of the set succeeds but the diverging
optimize, which aborts with exit 2, and those on the zero-depth scene, which
stop with exit 2 before writing; each other run leaves its command's
manifest, whose replay reproduces the run; under the Prescott core every
run keeps its pinned digest."""

import contextlib
import importlib.util
import io
import json
import os
import shutil

import pytest

from conftest import TOOLS, prescott, run_tool
from homoloss import cli

# One `<sha256>  <run name>` line per run, as the tool writes digests.txt
# under OPENBLAS_CORETYPE=Prescott.
PINNED = os.path.join(os.path.dirname(__file__), "cli_outputs.sha256")

spec = importlib.util.spec_from_file_location(
    "cli_outputs", os.path.join(TOOLS, "cli_outputs.py"))
cli_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_outputs)


ABORTS = "optimize_diverging_aborts"
RECORDS = ("exit_code", "stdout", "stderr")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The tool's output tree, and what it printed."""
    out = str(tmp_path_factory.mktemp("cli_outputs") / "out")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli_outputs.main([out]) == 0
    return out, printed.getvalue()


def test_every_run_exits_as_expected_and_writes_its_manifest(outputs):
    out, printed = outputs
    runs = list(cli_outputs.runs())
    assert len(runs) == 38
    codes = {name: 2 if name == ABORTS or name.endswith("_zero_depth")
             else 0 for name, _ in runs}
    assert printed == \
        "".join(f"{name}: exit {codes[name]}\n" for name, _ in runs)
    for name, argv in runs:
        with open(os.path.join(out, name, "exit_code")) as f:
            assert f.read() == f"{codes[name]}\n", name
        if name.endswith("_zero_depth"):  # the scene build stops the run
            assert sorted(os.listdir(os.path.join(out, name))) == \
                sorted(RECORDS), name
            with open(os.path.join(out, name, "stderr")) as f:
                assert f.read() == "error: frame f000: a visible point lies " \
                    "at zero gt depth or has a non-finite gt pixel\n", name
            continue
        with open(os.path.join(out, name, "manifest.json")) as f:
            assert json.load(f)["command"] == argv[0], name


def read_files(directory):
    """{name: bytes} of every file in directory."""
    files = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as f:
            files[name] = f.read()
    return files


def test_every_manifest_replays_its_run(outputs, tmp_path, monkeypatch):
    # In a copy of the tree, each run that left a manifest keeps only it
    # and replays it from its directory: the exit code, stdout, stderr and
    # the bytes of every file are those of the recorded run.
    copy = str(tmp_path / "out")
    shutil.copytree(outputs[0], copy)
    replayed = 0
    for name, _ in cli_outputs.runs():
        directory = os.path.join(copy, name)
        recorded = read_files(directory)
        if "manifest.json" not in recorded:
            continue
        for file in recorded:
            if file != "manifest.json":
                os.remove(os.path.join(directory, file))
        monkeypatch.chdir(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(["--from-manifest", "manifest.json"])
        got = read_files(directory)
        assert [f"{code}\n", stdout.getvalue(), stderr.getvalue()] == \
            [recorded.pop(k).decode() for k in RECORDS], name
        assert got == recorded, name
        replayed += 1
    assert replayed == 33


def digests(path):
    """{run name: sha256} of a digests file, in its order."""
    with open(path) as f:
        return {name: digest for digest, name in map(str.split, f)}


@prescott
def test_every_run_keeps_its_pinned_digest_under_the_prescott_core(
        tmp_path):
    # A fresh interpreter, so that no state of this process reaches a run.
    # A change that moves an output's bytes on purpose pins the new lines
    # of OUT/digests.txt and names the runs.
    out = str(tmp_path / "out")
    run_tool("cli_outputs.py", [out], "Prescott")
    got, pinned = digests(os.path.join(out, "digests.txt")), digests(PINNED)
    assert list(got) == list(pinned)
    assert [name for name in pinned if got[name] != pinned[name]] == []
