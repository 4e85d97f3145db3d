"""The DiffScalar reference engine (tests/diffscalar.py) and the library's
value-and-gradient primitives (homoloss.dual)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diffscalar
from diffscalar import DiffScalar
from homoloss import dual
from homoloss.geometry import quat_to_rotmat
from oracles import rotation_grad_array

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-6)


def d(val, g0, g1):
    return DiffScalar(val, [g0, g1])


@given(finite, finite, finite, finite)
def test_product_rule(a, ga, b, gb):
    x = d(a, ga, 0.0)
    y = d(b, 0.0, gb)
    p = x * y
    assert p.val == a * b
    np.testing.assert_allclose(p.grad, [b * ga, a * gb])


@given(finite, finite, finite, finite)
def test_sum_rule(a, ga, b, gb):
    s = d(a, ga, 1.0) + d(b, 2.0, gb)
    assert s.val == a + b
    np.testing.assert_allclose(s.grad, [ga + 2.0, 1.0 + gb])


@given(finite, nonzero)
def test_quotient_rule(a, b):
    q = d(a, 1.0, 0.0) / d(b, 0.0, 1.0)
    assert q.val == a / b
    np.testing.assert_allclose(
        q.grad, [1.0 / b, -a / (b * b)], rtol=1e-12, atol=1e-18
    )


def test_constants_carry_zero_grad():
    x = DiffScalar(3.0, np.zeros(2))
    assert x.val == 3.0
    assert np.all(x.grad == 0.0)
    y = x * 5.0 + 1.0
    assert np.all(y.grad == 0.0)


def test_mixed_float_arithmetic():
    x = d(2.0, 1.0, 0.0)
    assert (3.0 - x).val == 1.0
    np.testing.assert_array_equal((3.0 - x).grad, [-1.0, 0.0])
    assert (6.0 / x).val == 3.0
    np.testing.assert_array_equal((6.0 / x).grad, [-1.5, 0.0])


def test_elementary_functions_chain():
    x = d(0.7, 1.0, 0.0)
    assert diffscalar.sqrt(x).grad[0] == 0.5 / math.sqrt(0.7)
    assert diffscalar.exp(x).grad[0] == math.exp(0.7)
    np.testing.assert_allclose(
        diffscalar.acos(x).grad[0], -1.0 / math.sqrt(1 - 0.49)
    )


def test_abs_subgradient_zero_at_kink():
    x = d(0.0, 1.0, 2.0)
    assert abs(x).val == 0.0
    assert np.all(abs(x).grad == 0.0)
    assert np.array_equal(abs(d(-2.0, 1.0, 0.0)).grad, [-1.0, 0.0])


def test_norm2_zero_at_origin():
    zeros = diffscalar.seed([0.0, 0.0, 0.0])
    n = diffscalar.norm2(zeros)
    assert diffscalar.value(n) == 0.0
    assert np.all(diffscalar.gradient(n, 3) == 0.0)


def test_normalized_quaternion_norm_has_zero_gradient():
    q = diffscalar.seed([0.3, -0.5, 1.2, 0.8])
    norm = diffscalar.norm2(q)
    unit = [qi / norm for qi in q]
    out = diffscalar.norm2(unit)
    assert abs(diffscalar.value(out) - 1.0) < 1e-15
    assert np.max(np.abs(diffscalar.gradient(out, 4))) < 1e-15


def test_seed_identity_gradients():
    xs = diffscalar.seed([1.0, 2.0], n=3)
    np.testing.assert_array_equal(xs[0].grad, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(xs[1].grad, [0.0, 1.0, 0.0])


def test_division_value_matches_plain_float():
    # Dual evaluation must be bit-identical to running the same arithmetic
    # on plain floats.
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b = rng.normal(size=2)
        assert (d(a, 1, 0) / d(b, 0, 1)).val == a / b


# -- homoloss.dual: the primitives the closed-form kernels share ----------

def test_rotation_grad_matches_finite_differences():
    # f(q) = a . R(q) b; a body rotation w moves R b by R (w x b), so
    # df/dw = b x R^T a.
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.normal(size=4) * rng.uniform(0.5, 2.0)
        a, b = rng.normal(size=3), rng.normal(size=3)
        grad = dual.rotation_grad(q, np.cross(b, quat_to_rotmat(q).T @ a),
                                  dual.sum_squares(q.tolist()))
        fd = np.zeros(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-6
            fd[i] = (a @ quat_to_rotmat(q + e) @ b
                     - a @ quat_to_rotmat(q - e) @ b) / 2e-6
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)
        assert abs(grad @ q) < 1e-12 * np.linalg.norm(grad) * np.linalg.norm(q)


entry = st.one_of(st.just(0.0), st.just(-0.0), finite)


@settings(max_examples=300)
@given(st.tuples(entry, entry, entry, entry).filter(any),
       st.tuples(entry, entry, entry))
def test_rotation_grad_is_the_array_form(q, g):
    # 4 floats equal, sign bits too, to the product of arrays it replaced,
    # both scaled by 2 / qq with the kernels' left-to-right |q|^2; 2 / qq
    # overflows where qq is tiny, and a qq that underflows to 0 raises
    # (no kernel passes one: each rejects a zero |q|^2 first)
    qq = dual.sum_squares(q)
    if qq == 0.0:
        with pytest.raises(ZeroDivisionError):
            dual.rotation_grad(list(q), list(g), qq)
        return
    with np.errstate(all="ignore"):
        got = dual.rotation_grad(list(q), list(g), qq)
        want = rotation_grad_array(q, g, qq)
    assert len(got) == 4 and all(type(x) is float for x in got)
    np.testing.assert_array_equal(got, want)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()
