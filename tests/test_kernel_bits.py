"""tools/kernel_bits.py: one seeded digest over every kernel's output."""

import hashlib
import importlib.util
import os

import pytest

from conftest import TOOLS, prescott, run_tool

spec = importlib.util.spec_from_file_location(
    "kernel_bits", os.path.join(TOOLS, "kernel_bits.py"))
kernel_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_bits)


def test_digest_is_deterministic_and_follows_the_seed(capsys):
    digest, evaluations, raised = kernel_bits.kernel_bits(3, 40)
    assert kernel_bits.kernel_bits(3, 40) == (digest, evaluations, raised)
    assert kernel_bits.kernel_bits(4, 40)[0] != digest
    assert evaluations == 40 * 5 * 2 and 0 < raised < evaluations
    assert kernel_bits.main(["--seed", "3", "--frames", "40"]) == 0
    assert capsys.readouterr().out == \
        f"{digest}  {evaluations} evaluations, {raised} raised\n"


def test_signed_zeros_hash_apart():
    # 0.0 and -0.0 compare equal but are different results; None is the
    # gradient of a value-only call.
    h = [hashlib.sha256() for _ in range(3)]
    for digest, out in zip(h, (0.0, -0.0, None)):
        kernel_bits._record(digest, out)
    assert len({d.hexdigest() for d in h}) == 3


def test_a_subset_of_kinds_has_its_own_digest(capsys):
    # The same frames, fewer kinds: a digest of its own, as stable.
    kinds = ("posenet", "maxerror")
    digest, evaluations, raised = kernel_bits.kernel_bits(3, 40, kinds)
    assert kernel_bits.kernel_bits(3, 40, kinds) == \
        (digest, evaluations, raised)
    assert digest != kernel_bits.kernel_bits(3, 40)[0]
    assert evaluations == 40 * 2 * 2
    assert kernel_bits.main(["--seed", "3", "--frames", "40",
                             "--kinds", "posenet,maxerror"]) == 0
    assert capsys.readouterr().out == \
        f"{digest}  {evaluations} evaluations, {raised} raised\n"


def test_homography_global_repeats_homography_local(capsys):
    # Why the default leaves homography_global out: on the tool's contexts
    # it runs homography_local's kernel on the same inputs.
    for kind in ("homography_local", "homography_global"):
        assert kernel_bits.main(["--seed", "3", "--frames", "40",
                                 "--kinds", kind]) == 0
    local, global_ = capsys.readouterr().out.splitlines()
    assert local == global_
    assert "homography_global" not in kernel_bits.KINDS


def test_a_kind_named_twice_is_a_usage_error(capsys):
    # As in landscape --losses: a repeated kind would be evaluated twice
    # and give a digest of its own.
    with pytest.raises(SystemExit) as exit_:
        kernel_bits.main(["--seed", "3", "--frames", "10",
                          "--kinds", "posenet,maxerror,posenet"])
    assert exit_.value.code == 2
    assert "loss kind 'posenet' is named twice" in capsys.readouterr().err


# What `tools/kernel_bits.py --seed 1 --frames 300` prints under
# OPENBLAS_CORETYPE=Prescott, numpy 2.4 and scipy-openblas 0.3.31. The
# geometric kernel's projection calls BLAS, so the digest is pinned under
# one core, the generic x86-64 one. A change that moves any kernel's bit
# fails here; one that means to must say so and pin the new line.
PINNED = ("655859cced46932dc5dbd285631a14b7f29a759373e985e165b3fe08cf990f3f"
          "  3000 evaluations, 460 raised\n")


@prescott
def test_digest_is_pinned_under_the_prescott_core():
    assert run_tool("kernel_bits.py", ["--seed", "1", "--frames", "300"],
                    "Prescott") == PINNED
