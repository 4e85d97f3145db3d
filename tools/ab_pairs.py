"""Alternating A/B pairs of the benchmark on two checkouts.

Usage:
    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seconds S --seed K

PARENT and CHANGE are the roots of two checkouts. Pair i runs

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

from the root of each, one after the other: the parent first in even pairs
and the change first in odd ones, so that a drift in the host's speed falls
on both sides alike. Each side keeps its bytecode in its own temporary
PYTHONPYCACHEPREFIX, written by its first interpreter even under
PYTHONDONTWRITEBYTECODE and read by the later ones. So neither side reads
its tree's __pycache__, whose stale files (as a copied tree carries) make
every fresh interpreter compile the package again and read as a set-up
regression; a prefix kept empty would compile numpy in every set-up.

The script prints each pair's end-to-end metrics (the
`end_to_end` list of CHANGE's BENCHMARK.json) as they come, then for each
metric each side's median and quartiles, the pairs the change won, and
whether the gap between the medians exceeds the parent's interquartile
range. Each metric's summary ends with a verdict: `claim met` when the
change wins at least 90% of the pairs and its median is better than the
parent's by more than the parent's interquartile range; `worse beyond
bound` when its median is worse than the parent's by more than the
metric's `bound`, a fraction of the parent's median; `unresolved` when
the parent's interquartile range is wider than that bound, so that the
runs cannot tell a change within the bound from one beyond it, unless
every run of the change is better than every run of the parent; else `no
claim, within bound`. A run that exits non-zero, reports correct: false
or counts failed operations stops the script with exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def run_side(root, workload, seed, seconds, pycache):
    """The metrics {name: value} of one untraced benchmark run in root, its
    bytecode cache under pycache."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = pycache
    r = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, env=env)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {r.returncode}\n{r.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: correct {result['correct']}, "
                           f"{result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(name, unit, better, bound, parent, change):
    """The summary lines of one metric from its per-pair values, the last
    its verdict."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap, iqr = abs(cm - pm), p3 - p1
    rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    if won >= 0.9 * len(parent) and sign * (pm - cm) > iqr:
        verdict = "claim met"
    elif sign * (cm - pm) > bound * abs(pm):
        verdict = "worse beyond bound"
    elif iqr > bound * abs(pm) and \
            min(sign * p for p in parent) <= max(sign * c for c in change):
        verdict = (f"unresolved, parent IQR {iqr:.4g} > bound "
                   f"{bound * abs(pm):.4g}")
    else:
        verdict = "no claim, within bound"
    return [
        f"{name} ({unit}, {better} is better)",
        f"  parent  median {pm:.4g}  quartiles {p1:.4g}-{p3:.4g}",
        f"  change  median {cm:.4g}  quartiles {c1:.4g}-{c3:.4g}",
        f"  change better in {won} of {len(parent)} pairs; median {rel}; "
        f"gap {gap:.4g} {'>' if gap > iqr else '<='} parent IQR {iqr:.4g}",
        f"  verdict: {verdict} (bound {bound:.0%})",
    ]


def main(argv=None):
    p = argparse.ArgumentParser(
        description="alternating A/B pairs of perfbench/run.py")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]
    values = {side: {m["name"]: [] for m in spec} for side in SIDES}
    # each removed once main returns
    pycache = {side: tempfile.TemporaryDirectory() for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        got, order = {}, SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            try:
                got[side] = run_side(roots[side], args.workload, seed,
                                     args.seconds, pycache[side].name)
            except RuntimeError as e:
                print(f"pair {i + 1}, {side}: {e}", file=sys.stderr)
                return 1
        cells = "  ".join(f"{m['name']} {got['parent'][m['name']]:.4g}/"
                          f"{got['change'][m['name']]:.4g}" for m in spec)
        print(f"pair {i + 1} seed {seed} ({order[0]} first), "
              f"parent/change: {cells}", flush=True)
        for side in SIDES:
            for m in spec:
                values[side][m["name"]].append(got[side][m["name"]])
    print(f"== {args.workload}, {args.pairs} pairs of {args.seconds:g} s")
    for m in spec:
        for line in summarize(m["name"], m["unit"], m["better"], m["bound"],
                              values["parent"][m["name"]],
                              values["change"][m["name"]]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
