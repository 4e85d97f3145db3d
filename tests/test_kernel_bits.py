"""tools/kernel_bits.py: one seeded digest over every kernel's output."""

import hashlib
import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
spec = importlib.util.spec_from_file_location(
    "kernel_bits", os.path.join(TOOLS, "kernel_bits.py"))
kernel_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_bits)


def test_digest_is_deterministic_and_follows_the_seed(capsys):
    digest, evaluations, raised = kernel_bits.kernel_bits(3, 40)
    assert kernel_bits.kernel_bits(3, 40) == (digest, evaluations, raised)
    assert kernel_bits.kernel_bits(4, 40)[0] != digest
    assert evaluations == 40 * 6 * 2 and 0 < raised < evaluations
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
