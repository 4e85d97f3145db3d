"""tools/cli_outputs.py: every run of the set but the diverging optimize
succeeds, that one aborts with exit 2, and each leaves its command's
manifest; under the Prescott core every run keeps its pinned digest."""

import importlib.util
import json
import os

from conftest import TOOLS, prescott, run_tool

# One `<sha256>  <run name>` line per run, as the tool writes digests.txt
# under OPENBLAS_CORETYPE=Prescott.
PINNED = os.path.join(os.path.dirname(__file__), "cli_outputs.sha256")

spec = importlib.util.spec_from_file_location(
    "cli_outputs", os.path.join(TOOLS, "cli_outputs.py"))
cli_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_outputs)


ABORTS = "optimize_diverging_aborts"


def test_every_run_exits_as_expected_and_writes_its_manifest(tmp_path,
                                                             capsys):
    out = str(tmp_path / "out")
    assert cli_outputs.main([out]) == 0
    runs = list(cli_outputs.runs())
    assert len(runs) == 33
    codes = {name: 2 if name == ABORTS else 0 for name, _ in runs}
    assert capsys.readouterr().out == \
        "".join(f"{name}: exit {codes[name]}\n" for name, _ in runs)
    for name, argv in runs:
        with open(os.path.join(out, name, "exit_code")) as f:
            assert f.read() == f"{codes[name]}\n", name
        with open(os.path.join(out, name, "manifest.json")) as f:
            assert json.load(f)["command"] == argv[0], name


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
