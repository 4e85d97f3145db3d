"""Generative properties of the whole CLI: every invocation exits with a
documented code, a failed one leaves no --out, and a run that wrote its
outputs replays from its manifest byte for byte; and a pose or points file
with one defect makes every command that reads it fail with exit 1 or 2,
leaving no --out.

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
import warnings

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
    """(exit code, stdout) of cli.main(argv); a numpy RuntimeWarning is
    raised as an error, so that it fails the property."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
@example(invocation=(["slabs", "--synthetic", "--n-frames=3",
                      "--n-points=10", "--depth-max=1e300"], "out"))
@example(invocation=(["slabs", "--synthetic", "--n-frames=3",
                      "--n-points=10", "--depth-min=1e-300",
                      "--depth-max=2e-300"], "out"))
@example(invocation=(["landscape", "--synthetic", "--losses=geometric",
                      "--axis=tx", "--range=-1e307:1e307", "--steps=3"],
                     "out"))
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


# -- malformed pose and point files ----------------------------------------

# Tokens that break a field: each fails float() or int(), is not finite,
# or is not UTF-8 at all.
NON_NUMERIC = [b"x", b"1,5", b"0x10", b"1..2", b"--1", b"1e", b"\xc3\xa9",
               b"\xff\xfe"]
NON_FINITE = [b"nan", b"-NaN", b"inf", b"-inf", b"Infinity", b"1e999",
              b"-1e400"]
NOT_INTEGER = [b"1.5", b"1.0", b"x", b"1e2", b"0x1", b"\xff"]
UNKNOWN_TAGS = [b"Q", b"p", b"v", b"PV", b"\xe2\x80\x8b", b"\xfe"]
# defect -> the file it goes in and the tag of the lines it may change
# (None: any pose line)
DEFECTS = {"pose field count": ("poses", None),
           "P field count": ("points", b"P"),
           "V without a frame": ("points", b"V"),
           "non-numeric pose": ("poses", None),
           "non-numeric P": ("points", b"P"),
           "non-finite pose": ("poses", None),
           "non-finite P": ("points", b"P"),
           "repeated name": ("poses", None),
           "repeated V": ("points", b"V"),
           "index out of range": ("points", b"V"),
           "index not integer": ("points", b"V"),
           "unknown tag": ("points", None),
           "overflowing quaternion": ("poses", None)}


def _records(path):
    """The byte lines of a written file without its '#' header."""
    with open(path, "rb") as f:
        return [line.rstrip(b"\n") for line in f if not line.startswith(b"#")]


def _corrupt(lines, defect, i, j, token, count):
    """lines, a pose file's or a points file's, with the one defect named:
    i picks the line, j the field, token the bad field and count a wrong
    number of numbers."""
    if defect == "unknown tag":
        i %= len(lines) + 1
        return lines[:i] + [token + b" 0 0 4"] + lines[i:]
    tag = DEFECTS[defect][1]
    rows = [k for k, line in enumerate(lines)
            if tag is None or line.split()[0] == tag]
    k = rows[i % len(rows)]
    fields = lines[k].split()
    if defect.endswith("field count"):  # any count but 7, or but 3
        right = 7 if tag is None else 3
        count += count >= right
        fields = fields[:1] + (fields[1:] + [b"1"] * count)[:count]
    elif defect == "V without a frame":
        fields = [b"V"]
    elif defect.startswith("non-"):
        fields[1 + j % (len(fields) - 1)] = token
    elif defect == "overflowing quaternion":  # |q|^2 beyond the floats
        fields[4 + j % 4] = b"1e200"
    elif defect.startswith("repeated"):
        return lines + [lines[k]]
    else:  # an index of the V line
        fields.insert(2 + j % (len(fields) - 1), token)
    return lines[:k] + [b" ".join(fields)] + lines[k + 1:]


# defect -> the bad fields it draws from; every other defect takes b""
TOKENS = {"non-numeric pose": NON_NUMERIC, "non-numeric P": NON_NUMERIC,
          "non-finite pose": NON_FINITE, "non-finite P": NON_FINITE,
          # the scene has 12 points, 0 to 11
          "index out of range": [b"-1", b"12", b"13", b"9223372036854775808",
                                 b"-18446744073709551616"],
          "index not integer": NOT_INTEGER,
          "unknown tag": UNKNOWN_TAGS}


def _readers(kind):
    """The argv of each command that reads the files, with {poses},
    {points}, {est} and {out} fields to fill."""
    scene = ["--poses", "{poses}", "--points", "{points}"]
    return [argv + ["--out", "{out}"] for argv in [
        ["optimize", *scene, "--loss", kind, "--epochs=1"],
        ["gradcheck", *scene, "--loss", kind, "--samples=1"],
        ["landscape", *scene, "--axis", "tz", "--range=-1:1", "--steps=2",
         "--losses", kind],
        ["slabs", *scene, "--hist"],
        ["eval", "--gt-poses", "{poses}", "--est-poses", "{est}",
         "--points", "{points}"],
        ["eval", "--gt-poses", "{est}", "--est-poses", "{poses}",
         "--points", "{points}"]]]


@st.composite
def malformed_runs(draw):
    """(argv of a command that reads the files, and the arguments of
    _corrupt after its lines)."""
    defect = draw(st.sampled_from(sorted(DEFECTS)))
    token = draw(st.sampled_from(TOKENS.get(defect, [b""])))
    spec = (defect, draw(st.integers(0, 20)), draw(st.integers(0, 20)),
            token, draw(st.integers(0, 9)))
    return draw(st.sampled_from(_readers(draw(KINDS)))), spec


def _every_defect_and_reader(test):
    """test with one explicit example per defect and command that reads
    the files, so that every pair runs in every run of the suite: the k-th
    pair takes line and field k, the k-th token, the count k % 10 and the
    loss kind of its defect's index."""
    defects, n = sorted(DEFECTS), len(_readers(""))
    for k in range(len(defects) * n):
        defect = defects[k // n]
        tokens = TOKENS.get(defect, [b""])
        argv = _readers(LOSS_KINDS[k // n % len(LOSS_KINDS)])[k % n]
        test = example(run=(argv, (defect, k, k, tokens[k % len(tokens)],
                                   k % 10)))(test)
    return test


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=malformed_runs())
@_every_defect_and_reader
@example(run=(["gradcheck", "--poses", "{poses}", "--points", "{points}",
               "--loss", "posenet", "--samples=1", "--out", "{out}"],
              ("overflowing quaternion", 0, 1, b"", 0)))
def test_a_malformed_input_file_fails_and_writes_nothing(inputs, run):
    argv, (defect, i, j, token, count) = run
    files = {name: _records(inputs / f"{name}.txt")
             for name in ("poses", "points")}
    name = DEFECTS[defect][0]
    files[name] = _corrupt(files[name], defect, i, j, token, count)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"est": str(inputs / "est_poses.txt"),
                 "out": os.path.join(tmp, "out")}
        for name, lines in files.items():
            paths[name] = os.path.join(tmp, f"{name}.txt")
            with open(paths[name], "wb") as f:
                f.write(b"".join(line + b"\n" for line in lines))
        code, _ = _main([a.format(**paths) for a in argv])
        assert code in (1, 2)
        assert sorted(os.listdir(tmp)) == ["points.txt", "poses.txt"]
