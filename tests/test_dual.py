import math

import numpy as np
from hypothesis import given, strategies as st

from homoloss import dual
from homoloss.dual import DiffScalar

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
    assert dual.sqrt(x).grad[0] == 0.5 / math.sqrt(0.7)
    assert dual.exp(x).grad[0] == math.exp(0.7)
    np.testing.assert_allclose(
        dual.acos(x).grad[0], -1.0 / math.sqrt(1 - 0.49)
    )


def test_lift_chains_partials_into_seeds():
    # Partials w.r.t. (a, b), where a and b are themselves functions of two
    # parameters: the lifted gradient is the chain-rule product.
    a = d(2.0, 1.0, 3.0)
    b = d(5.0, 0.0, -1.0)
    out = dual.lift(7.0, [2.0, 4.0], [a, b])
    assert out.val == 7.0
    np.testing.assert_array_equal(out.grad, [2.0, 6.0 - 4.0])


def test_lift_of_plain_floats_is_the_value():
    assert dual.lift(7.0, [2.0, 4.0], [2.0, 5.0]) == 7.0


def test_abs_subgradient_zero_at_kink():
    x = d(0.0, 1.0, 2.0)
    assert abs(x).val == 0.0
    assert np.all(abs(x).grad == 0.0)
    assert np.array_equal(abs(d(-2.0, 1.0, 0.0)).grad, [-1.0, 0.0])


def test_norm2_zero_at_origin():
    zeros = dual.seed([0.0, 0.0, 0.0])
    n = dual.norm2(zeros)
    assert dual.value(n) == 0.0
    assert np.all(dual.gradient(n, 3) == 0.0)


def test_normalized_quaternion_norm_has_zero_gradient():
    q = dual.seed([0.3, -0.5, 1.2, 0.8])
    norm = dual.norm2(q)
    unit = [qi / norm for qi in q]
    out = dual.norm2(unit)
    assert abs(dual.value(out) - 1.0) < 1e-15
    assert np.max(np.abs(dual.gradient(out, 4))) < 1e-15


def test_seed_identity_gradients():
    xs = dual.seed([1.0, 2.0], n=3)
    np.testing.assert_array_equal(xs[0].grad, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(xs[1].grad, [0.0, 1.0, 0.0])


def test_division_value_matches_plain_float():
    # Dual evaluation must be bit-identical to running the same arithmetic
    # on plain floats.
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b = rng.normal(size=2)
        assert (d(a, 1, 0) / d(b, 0, 1)).val == a / b
