"""tools/ab_pairs.py on two stand-in checkouts whose perfbench/run.py
prints fixed metrics and logs the order of the runs."""

import importlib.util
import json
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
spec = importlib.util.spec_from_file_location(
    "ab_pairs", os.path.join(TOOLS, "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "op_time_cal", "unit": "cal", "better": "lower", "bound": 0.25},
    {"name": "ok_ops_frac", "unit": "frac", "better": "higher", "bound": 0.01},
]

STUB = """import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as f:
    f.write({side!r} + " " + args["--seed"] + "\\n")
prefix = os.environ.get("PYTHONPYCACHEPREFIX")
with open({log!r} + ".pycache", "a") as f:
    f.write(json.dumps([{side!r}, prefix, prefix and os.path.isdir(prefix),
                        "PYTHONDONTWRITEBYTECODE" in os.environ]) + "\\n")
cal = {cal} + int(args["--seed"]) * {spread}
print("== figures")
print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": 0,
                  "metrics": {{"op_time_cal": {{"value": cal, "unit": "cal"}},
                              "ok_ops_frac": {{"value": 1.0,
                                              "unit": "frac"}}}}}}))
"""


def checkout(tmp_path, side, cal, correct=True, spread=0.001):
    """A checkout whose op_time_cal reads cal + spread * seed."""
    root = tmp_path / side
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(
        log=str(tmp_path / "log"), side=side, cal=cal, correct=correct,
        spread=spread))
    (root / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": END_TO_END}))
    return str(root)


def test_pairs_alternate_and_summarize(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", 0.75)
    change = checkout(tmp_path, "change", 0.5)
    assert ab_pairs.main([parent, change, "--workload", "probe", "--pairs",
                          "4", "--seconds", "1", "--seed", "10"]) == 0
    assert (tmp_path / "log").read_text().split("\n")[:-1] == [
        "parent 10", "change 10", "change 11", "parent 11",
        "parent 12", "change 12", "change 13", "parent 13"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("pair 1 seed 10 (parent first), parent/change: "
                      "op_time_cal 0.76/0.51  ok_ops_frac 1/1")
    assert out[1].startswith("pair 2 seed 11 (change first)")
    summary = out[out.index("== probe, 4 pairs of 1 s") + 1:]
    assert summary[0] == "op_time_cal (cal, lower is better)"
    assert summary[3] == ("  change better in 4 of 4 pairs; median -32.8%; "
                          "gap 0.25 > parent IQR 0.0025")
    assert summary[4] == "  verdict: claim met (bound 25%)"
    assert summary[8].startswith("  change better in 0 of 4 pairs; "
                                 "median +0.0%; gap 0 <= parent IQR 0")
    assert summary[9] == "  verdict: no claim, within bound (bound 1%)"


@pytest.mark.parametrize("cal, verdict", [(0.6, "no claim, within bound"),
                                          (0.7, "worse beyond bound")])
def test_slower_change_is_judged_by_the_bound(tmp_path, capsys, cal,
                                              verdict):
    # op_time_cal's bound is 0.25 of the parent's median: +20% is within
    # it, +40% is beyond it.
    parent = checkout(tmp_path, "parent", 0.5)
    change = checkout(tmp_path, "change", cal)
    assert ab_pairs.main([parent, change, "--workload", "probe", "--pairs",
                          "3", "--seconds", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    summary = out[out.index("== probe, 3 pairs of 1 s") + 1:]
    assert summary[3].startswith("  change better in 0 of 3 pairs")
    assert summary[4] == f"  verdict: {verdict} (bound 25%)"


@pytest.mark.parametrize("cal, spread, verdict", [
    # overlapping runs: a change within the bound cannot be told from one
    # beyond it
    (0.45, 0.1, "unresolved, parent IQR 0.25 > bound 0.1875"),
    (0.5, 0.1, "unresolved, parent IQR 0.25 > bound 0.1875"),
    # every change run better than every parent run
    (0.52, 0.01, "no claim, within bound"),
    # worse by more than the bound, however wide the spread
    (0.75, 0.1, "worse beyond bound")])
def test_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys, cal,
                                                   spread, verdict):
    # The parent reads 0.6, 0.7, 0.8 and 0.9: IQR 0.25 on a median of
    # 0.75, wider than op_time_cal's bound of 25% of it.
    parent = checkout(tmp_path, "parent", 0.5, spread=0.1)
    change = checkout(tmp_path, "change", cal, spread=spread)
    assert ab_pairs.main([parent, change, "--workload", "probe", "--pairs",
                          "4", "--seconds", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    summary = out[out.index("== probe, 4 pairs of 1 s") + 1:]
    assert summary[1] == "  parent  median 0.75  quartiles 0.625-0.875"
    assert summary[4] == f"  verdict: {verdict} (bound 25%)"


def test_each_side_runs_with_its_own_pycache_prefix(tmp_path, capsys,
                                                   monkeypatch):
    # A tree's own __pycache__ could be stale; each side gets a fresh,
    # existing directory of its own for the whole script, gone afterwards,
    # and may write its bytecode there.
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent = checkout(tmp_path, "parent", 0.75)
    change = checkout(tmp_path, "change", 0.5)
    assert ab_pairs.main([parent, change, "--workload", "probe", "--pairs",
                          "3", "--seconds", "1", "--seed", "1"]) == 0
    runs = [json.loads(line) for line in
            (tmp_path / "log.pycache").read_text().splitlines()]
    assert len(runs) == 6
    assert all(isdir and not nowrite for _, _, isdir, nowrite in runs)
    prefix = {side: {p for s, p, _, _ in runs if s == side}
              for side in ("parent", "change")}
    assert [len(p) for p in prefix.values()] == [1, 1]
    (a,), (b,) = prefix.values()
    assert a != b and str(tmp_path / "inherited") not in (a, b)
    assert not os.path.exists(a) and not os.path.exists(b)


def test_incorrect_run_stops_with_exit_1(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", 0.75)
    change = checkout(tmp_path, "change", 0.5, correct=False)
    assert ab_pairs.main([parent, change, "--workload", "probe", "--pairs",
                          "3", "--seconds", "1", "--seed", "1"]) == 1
    assert "pair 1, change:" in capsys.readouterr().err
    assert len((tmp_path / "log").read_text().splitlines()) == 2


@pytest.mark.parametrize("values, want", [([2.0], (2.0, 2.0, 2.0)),
                                          ([1.0, 2.0, 3.0, 4.0, 5.0],
                                           (1.5, 3.0, 4.5))])
def test_quartiles(values, want):
    assert ab_pairs.quartiles(values) == want


def test_setup_s_summary_has_the_lines_of_every_metric():
    # No fixed noise figure for setup_s: as for every metric, the gap line
    # compares the medians with the parent's own interquartile range, and
    # a parent IQR wider than the bound leaves the verdict unresolved.
    parent, change = [1.0, 1.1, 1.3], [0.95, 1.0, 1.2]
    lines = ab_pairs.summarize("setup_s", "s", "lower", 0.25, parent,
                               change)
    other = ab_pairs.summarize("op_time_cal", "s", "lower", 0.25, parent,
                               change)
    assert lines[0] == "setup_s (s, lower is better)"
    assert lines[1:] == other[1:] and len(lines) == 5
    assert lines[3] == ("  change better in 3 of 3 pairs; median -9.1%; "
                        "gap 0.1 <= parent IQR 0.3")
    assert lines[4] == ("  verdict: unresolved, parent IQR 0.3 > bound "
                        "0.275 (bound 25%)")
