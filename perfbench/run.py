"""homoloss benchmark: pose refinement and loss probing through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one client in this single-threaded process running a
closed loop: it calls ``homoloss.cli.main`` in process, and each call starts
only after the previous one returned, as batch jobs use the tool. One
operation is the workload's CLI call sequence (see workloads.py); operations
repeat with the same inputs until --seconds have passed, and at least
MIN_OPS times. Every call's outputs are checked, and a call that exits
non-zero, prints aborted=true, fails its check, or writes outputs that
differ from the first call with the same inputs counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with no
tracing:
    setup_s           median over the run of the time a fresh interpreter
                      takes to import homoloss and generate and write the
                      inputs; one set-up runs before each operation
    op_time_cal       median over operations of the operation's wall time
                      divided by the mean time of the calibration loop
                      (calibrate.py) run right before and right after it:
                      the wall time of one operation in units of a fixed
                      piece of work, which cancels the drift in speed of a
                      shared host
    peak_rss_mb       peak resident memory of this process
    ok_ops_frac       CLI calls that passed every check / calls attempted
The raw figures are printed in the lines before the result: wall_s (median
wall time of one operation) and loss_evals_per_s (loss evaluations the inputs
request per operation -- frames x epochs value+gradient calls on refine_*;
2 value+gradient and 14 value calls per gradcheck sample plus one value call
per landscape cell and loss on probe -- divided by wall_s).

--trace 1 runs traced and untraced operations, checks that the trace saw
every call the inputs imply, replays each call from its manifest and
compares the outputs byte for byte, times the layer table on fixed inputs,
and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are the same figures for
people, with the workload-specific metrics and the environment. Inputs and
CLI outputs live in .perfbench_work/ under the checkout root, which is
removed at exit; no timing is written into any CLI --out directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
MIN_OPS = 3


class BenchError(Exception):
    pass


def _setup_s(workload, seed, workdir):
    """Seconds one set-up takes in a fresh interpreter (setup_once.py)."""
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_once.py"),
         "--workload", workload, "--seed", str(seed), "--dir", workdir],
        capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise BenchError(f"set-up failed:\n{r.stderr.strip()}")
    return float(r.stdout.split()[-1])


def _digest(out):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class Runner:
    """Runs a workload's operations and keeps the failure count."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.problems = []
        self.digests = {}   # call label -> digest of its first outputs

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed call, not a lost run
                rc = "exception"
                traceback.print_exc()
        return rc, out.getvalue(), err.getvalue()

    def _record(self, label, problem):
        self.attempted += 1
        if problem:
            self.problems.append(f"{label}: {problem}")

    def _check(self, call, rc, stdout, stderr):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()}"
        try:
            problem = call.check(stdout)
            digest = _digest(call.out)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return f"unreadable outputs: {e!r}"
        if problem:
            return problem
        if self.digests.setdefault(call.label, digest) != digest:
            return "outputs differ from an earlier call with the same inputs"
        return None

    def run_op(self, tracer=None):
        """One operation; returns (wall seconds, traced call counts per
        CLI call)."""
        done = []
        snaps = [tracer.snapshot()] if tracer else []
        t0 = time.perf_counter()
        for call in self.workload.calls:
            done.append((call, *self._invoke(call.argv)))
            if tracer:
                snaps.append(tracer.snapshot())
        wall = time.perf_counter() - t0
        counts = {}
        for i, (call, rc, stdout, stderr) in enumerate(done):
            self._record(call.label, self._check(call, rc, stdout, stderr))
            if tracer:
                counts[call.label] = {k: v - snaps[i].get(k, 0)
                                      for k, v in snaps[i + 1].items()}
        return wall, counts

    def replay(self):
        """Replays every call from its manifest; outputs must not change."""
        for call in self.workload.calls:
            try:
                before = _digest(call.out)
                rc, _, stderr = self._invoke(
                    ["--from-manifest",
                     os.path.join(call.out, "manifest.json")])
                problem = None
                if rc != 0:
                    problem = f"replay exit {rc}: {stderr.strip()}"
                elif _digest(call.out) != before:
                    problem = "replay changed the outputs"
            except OSError as e:
                problem = f"no outputs to replay: {e!r}"
            self._record(f"{call.label} replay", problem)

    @property
    def failed(self):
        return len(self.problems)


def _check_trace(workload, counts):
    """The traced call counts must equal what the inputs imply."""
    missed = []
    for call in workload.calls:
        for name, want in call.expected_calls.items():
            got = counts[call.label].get(name, 0)
            if got != want:
                missed.append(f"{call.label}: {name} called {got} times, "
                              f"inputs imply {want}")
    if missed:
        raise BenchError("trace missed calls:\n  " + "\n  ".join(missed))


def _per_layer(names, tracer, extra):
    """Resolves each per-layer name: `<traced name>.<calls|self_s|errors>`,
    `layer.<module>.<field>` or an entry of `extra`."""
    totals = tracer.layer_totals()
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        base, field = name.rsplit(".", 1)
        if field not in ("calls", "self_s", "errors"):
            raise BenchError(f"no measurement for per-layer metric {name}")
        if base.startswith("layer."):
            stat = totals[base[len("layer."):]]
        elif base in tracer.stats:
            stat = tracer.stats[base]
        else:
            raise BenchError(f"{base} is not a traced function")
        out[name] = getattr(stat, field)
    unused = set(extra) - set(names)
    if unused:
        raise BenchError(f"measured but not in BENCHMARK.json: {unused}")
    return out


def _refine_figures(workload, wall_s):
    from workloads import epochs_to_target, read_mrd
    mrd = read_mrd(workload.calls[0].out)
    e = epochs_to_target(mrd)
    if e is None:  # target never reached; the output check fails the run
        e = len(mrd)
    return {
        "frame_epochs_per_s": (workload.evals_per_op / wall_s, "1/s"),
        "time_to_1px_s (derived from run.csv)":
            (wall_s * (e + 1) / workload.epochs, "s"),
        "epochs_to_1px": (e, "count"),
        "final_mrd_px": (mrd[-1], "px"),
    }


def _show(title, rows):
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<48} {value!s:>24} {unit}")


def _environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # One client, one thread: keep numpy's BLAS from starting worker
    # threads, here and in the set-up interpreters.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}")
    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, units, workdir)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _untraced(args, cli, workloads, workdir):
    """End-to-end metrics: rounds repeat for --seconds, no tracing.

    A round is one set-up in a fresh interpreter, then the calibration loop,
    one operation and the calibration loop again; the operation's cost is
    its wall time over the mean of the two calibration times around it. A
    new round starts only while one of median length still fits in
    --seconds, and always until MIN_OPS rounds ran.
    """
    import calibrate

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(cli, workload)
    setup_dir = os.path.join(workdir, "setup")
    calibrate.loop()  # warm-up
    setups, walls, costs, cals, rounds = [], [], [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_OPS or (time.perf_counter() - start
                                    + statistics.median(rounds) < args.seconds):
        t0 = time.perf_counter()
        setups.append(_setup_s(args.workload, args.seed, setup_dir))
        cals.append(calibrate.loop())
        walls.append(runner.run_op()[0])
        cals.append(calibrate.loop())
        costs.append(walls[-1] / statistics.mean(cals[-2:]))
        rounds.append(time.perf_counter() - t0)
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_time_cal": statistics.median(costs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_frac": 1 - runner.failed / runner.attempted,
    }
    extra = {"wall_s": (wall_s, "s"),
             "loss_evals_per_s": (workload.evals_per_op / wall_s, "1/s"),
             "calibration_s": (statistics.median(cals), "s"),
             "set-ups": (" ".join(f"{t:.4f}" for t in setups), "s"),
             "op walls": (" ".join(f"{w:.4f}" for w in walls), "s"),
             "op costs": (" ".join(f"{c:.3f}" for c in costs), "cal"),
             "failed_ops_frac": (runner.failed / runner.attempted, "")}
    if not workload.epochs:
        extra["probe_evals_per_s"] = extra["loss_evals_per_s"]
    elif not runner.problems:
        extra.update(_refine_figures(workload, wall_s))
    return runner, metrics, extra


def _traced(args, homoloss, cli, workloads, workdir, names):
    """Per-layer metrics from set-up plus one traced operation, the replay
    check and the fixed-input layer table.

    The tracing overhead comes from four operations in the order untraced,
    traced, traced, untraced, which cancels a steady drift in machine speed;
    the second traced operation uses a throwaway tracer so that the reported
    counts cover exactly one operation.
    """
    import layers
    import tracer as tracer_mod

    slabs_computed = []
    tracer = tracer_mod.Tracer(on_return={
        "scene.local_slabs":
            lambda slab: slabs_computed.append(len(slab.per_frame))})
    tracer.install(homoloss)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    finally:
        tracer.uninstall()
    runner = Runner(cli, workload)

    def traced_op(t):
        t.install(homoloss)
        try:
            return runner.run_op(t)
        finally:
            t.uninstall()

    untraced = [runner.run_op()[0]]
    first_s, counts = traced_op(tracer)
    _check_trace(workload, counts)
    traced = [first_s, traced_op(tracer_mod.Tracer())[0]]
    untraced.append(runner.run_op()[0])
    runner.replay()
    untraced_s = statistics.mean(untraced)
    traced_s = statistics.mean(traced)

    extra = layers.measure()
    used = tracer.stats["scene.DepthSlab.for_frame"].calls
    computed = sum(slabs_computed)
    extra["scene.local_slabs.useful_frac"] = used / computed if computed else 0.0
    extra["trace.overhead_s"] = traced_s - untraced_s
    refine = {}
    if workload.epochs and not runner.problems:
        refine = _refine_figures(workload, untraced_s)
    extra["optim.optimize_poses.epochs_to_1px"] = \
        refine.get("epochs_to_1px", (0,))[0]
    extra["optim.optimize_poses.final_mrd_px"] = \
        refine.get("final_mrd_px", (0.0,))[0]
    metrics = _per_layer(names, tracer, extra)
    return runner, metrics, {
        "untraced walls": (" ".join(f"{w:.4f}" for w in untraced), "s"),
        "traced walls": (" ".join(f"{w:.4f}" for w in traced), "s"),
        **refine}


def _run(args, units, workdir):
    sys.path.insert(0, SRC)
    import homoloss
    if not os.path.abspath(homoloss.__file__).startswith(SRC + os.sep):
        raise BenchError(f"homoloss imported from {homoloss.__file__}, "
                         f"not from {SRC}")
    from homoloss import cli
    import workloads

    if args.trace:
        runner, metrics, extra = _traced(args, homoloss, cli, workloads,
                                         workdir, units)
    else:
        runner, metrics, extra = _untraced(args, cli, workloads, workdir)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                         f"do not match BENCHMARK.json")
    _show(f"{args.workload} seed={args.seed} trace={args.trace}",
          {k: (metrics[k], units[k]) for k in units})
    _show("workload figures", extra)
    _show("environment", {k: (v, "") for k, v in _environment().items()})
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
