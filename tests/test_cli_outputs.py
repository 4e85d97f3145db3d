"""tools/cli_outputs.py: every run of the set but the diverging optimize
succeeds, that one aborts with exit 2, and each leaves its command's
manifest."""

import importlib.util
import json
import os

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
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
    assert len(runs) == 31
    codes = {name: 2 if name == ABORTS else 0 for name, _ in runs}
    assert capsys.readouterr().out == \
        "".join(f"{name}: exit {codes[name]}\n" for name, _ in runs)
    for name, argv in runs:
        with open(os.path.join(out, name, "exit_code")) as f:
            assert f.read() == f"{codes[name]}\n", name
        with open(os.path.join(out, name, "manifest.json")) as f:
            assert json.load(f)["command"] == argv[0], name
