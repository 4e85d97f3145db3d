"""A generative property of the whole CLI: every invocation exits with a
documented code, a failed one leaves no --out, and a run that wrote its
outputs replays from its manifest byte for byte.

The argv is drawn from the parser's own actions, each value by the
option's type and choices: edge floats, small ints, loss names, ranges,
the paths of a few prepared pose and point files, and strings with '/',
NUL, 300 characters or non-ASCII text. Sizes are clamped so that one
invocation takes milliseconds: at most 3 frames, 10-12 points, 2 epochs
or samples, and 3 sweep steps per axis.
"""

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from homoloss import cli
from homoloss.diffgrad import LOSS_KINDS
from homoloss.optim import perturb_pose
from homoloss.scene import synth_scene, write_points, write_pose_list

EDGE_FLOATS = [0.0, -0.0, -1.0, 5e-324, math.inf, -math.inf, math.nan,
               1e300]
# Lone surrogates (category Cs) cannot reach a process's argv.
ODD_STRINGS = st.one_of(
    st.sampled_from(["a/b", "a\0b", "x" * 300, "für", "漢"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=8))
# The sizes, always given: mostly in their valid range, else from -1 up.
SIZES = {"n_frames": (1, 3), "n_points": (10, 12), "epochs": (0, 2),
         "warmstart": (0, 2), "samples": (1, 2), "steps": (2, 3),
         "steps2": (2, 3)}
FILES = ("poses.txt", "points.txt", "est_poses.txt", "bad.txt",
         "missing.txt")
OUT_NAMES = ("out", "sub/dir", "über", "x" * 300)
KINDS = st.sampled_from(LOSS_KINDS + ("homography",))


def _mostly(usual, odd):
    """usual seven times in eight, else odd."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else usual)


def _value(dest, action):
    """The strategy of one option's value, as an argv string."""
    if action.choices:
        return _mostly(st.sampled_from(sorted(action.choices)), ODD_STRINGS)
    if action.type is float:
        return _mostly(st.floats(0.5, 100.0),
                       st.sampled_from(EDGE_FLOATS)).map(repr)
    if action.type is int:
        return st.integers(-1, 3).map(str)
    if dest == "loss":
        return _mostly(KINDS, ODD_STRINGS)
    if dest == "losses":
        return _mostly(st.lists(KINDS, min_size=1, max_size=3).map(
            ",".join), ODD_STRINGS)
    if dest.startswith("range"):
        ends = _mostly(st.floats(-30.0, 30.0), st.sampled_from(EDGE_FLOATS))
        return _mostly(st.tuples(ends, ends).map(
            lambda e: f"{e[0]!r}:{e[1]!r}"), ODD_STRINGS)
    return _mostly(st.sampled_from(FILES), ODD_STRINGS)  # a file option


@st.composite
def invocations(draw):
    """(argv without --out, the name of --out) of one command."""
    commands = cli.build_parser().commands
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for action in commands[command]._actions:
        dest = action.dest
        if dest in ("help", "out"):
            continue
        if dest in SIZES:
            lo, hi = SIZES[dest]
            size = _mostly(st.integers(lo, hi), st.integers(-1, lo - 1))
            argv.append(f"{action.option_strings[0]}={draw(size)}")
        elif action.nargs == 0:  # a flag: --synthetic, --hist
            if draw(_mostly(st.just(True), st.just(False))):
                argv.append(action.option_strings[0])
        elif action.required or draw(st.integers(0, 3)) == 0:
            argv.append(f"{action.option_strings[0]}="
                        f"{draw(_value(dest, action))}")
    return argv, draw(st.sampled_from(OUT_NAMES))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory with a 3-frame scene's pose and point files, perturbed
    estimates of its poses and a pose file that does not parse."""
    d = tmp_path_factory.mktemp("inputs")
    scene = synth_scene(3, n_points=12, n_frames=3)
    poses = [(f.id, f.gt_pose) for f in scene.frames]
    with open(d / "poses.txt", "w") as f:
        write_pose_list(f, poses)
    with open(d / "points.txt", "w") as f:
        write_points(f, scene.points, {f.id: f.visible for f in scene.frames})
    rng = np.random.default_rng(0)
    with open(d / "est_poses.txt", "w") as f:
        write_pose_list(f, [(i, perturb_pose(p, rng, 0.1, 2.0))
                            for i, p in poses])
    with open(d / "bad.txt", "w") as f:
        f.write("f000 1 2 3\n")
    return d


def _main(argv):
    """(exit code, stdout) of cli.main(argv)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def _files(out):
    """{relative path: bytes} of every file under out."""
    found = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out)] = f.read()
    return found


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
@example(invocation=(["slabs", "--synthetic", "--n-frames=3",
                      "--n-points=10", "--fov=5e-324"], "out"))
@example(invocation=(["optimize", "--synthetic", "--n-frames=3",
                      "--n-points=12", "--epochs=2", "--loss=posenet",
                      "--perturb-t=-0.0"], "out"))
@example(invocation=(["gradcheck", "--synthetic", "--n-frames=3",
                      "--n-points=12", "--samples=2", "--loss=homography",
                      "--perturb-deg=-0.0"], "out"))
def test_every_invocation_exits_as_documented(inputs, invocation):
    argv, out_name = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, out_name)
        # file options name the prepared inputs; anything else is missing
        argv = [a.replace("=", "=" + str(inputs) + os.sep, 1)
                if a.split("=", 1)[-1] in FILES else a for a in argv]
        code, stdout = _main([*argv, "--out", out])
        assert code in (0, 1, 2, 3)
        aborted = "aborted=true" in stdout
        if code in (1, 2) and not aborted:  # nothing made, not even a parent
            assert not os.listdir(tmp)
            return
        written = _files(out)
        assert "manifest.json" in written
        shutil.rmtree(out)
        manifest = os.path.join(tmp, "manifest.json")
        with open(manifest, "wb") as f:
            f.write(written["manifest.json"])
        assert _main(["--from-manifest", manifest]) == (code, stdout)
        assert _files(out) == written
