from fractions import Fraction

import pytest

from ncsym.poly import Poly

from conftest import random_poly


def test_time_derivative_power_rule():
    d = 2
    t = Poly.t(d)
    assert (t * t).differentiate(0) == 2 * t


def test_mixed_partial_example():
    d = 2
    p = Poly.t(d) * Poly.x(d, 1) * Poly.x(d, 2)
    assert p.differentiate(1) == Poly.t(d) * Poly.x(d, 2)


def test_derivative_of_constant():
    p = Poly.const(3, 5)
    assert p.differentiate(0).is_zero()


def test_degree_drop():
    d = 2
    p = Poly.t(d) ** 3 + Poly.x(d, 1)
    assert max(exp[0] for exp in p.terms) == 3
    assert max(exp[0] for exp in p.differentiate(0).terms) == 2


def test_evaluate_exact_and_float():
    d = 1
    p = Poly.t(d) * Poly.t(d) + Poly.x(d, 1)
    assert p.evaluate([Fraction(2), Fraction(3)]) == Fraction(7)
    assert Poly.zero(d).evaluate([Fraction(9), Fraction(-1)]) == 0
    half_t = Poly.t(d) * Fraction(1, 2)
    assert half_t.evaluate([Fraction(1, 3), Fraction(0)]) == Fraction(1, 6)
    assert p.evaluate([2.0, 3.0]) == pytest.approx(7.0)


def test_no_zero_terms_stored():
    d = 1
    p = Poly.t(d) - Poly.t(d)
    assert p.is_zero() and p.terms == {}
    q = Poly(d, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in q.terms


def test_ring_axioms_random(rng):
    d = 2
    for _ in range(30):
        p = random_poly(rng, d)
        q = random_poly(rng, d)
        r = random_poly(rng, d)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_derivatives_commute(rng):
    d = 3
    for _ in range(20):
        p = random_poly(rng, d)
        for a in range(d + 1):
            for b in range(d + 1):
                assert p.differentiate(a).differentiate(b) == p.differentiate(b).differentiate(a)


def test_evaluate_is_ring_homomorphism(rng):
    d = 2
    pt = [Fraction(3, 2), Fraction(-1), Fraction(2, 5)]
    for _ in range(20):
        p = random_poly(rng, d)
        q = random_poly(rng, d)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_json_coefficients_are_fraction_strings():
    p = Poly(1, {(1, 0): Fraction(3, 2), (0, 0): Fraction(2)})
    coefs = {tuple(t["exp"]): t["coef"] for t in p.to_obj()["terms"]}
    assert coefs[(1, 0)] == "3/2"
    assert coefs[(0, 0)] == "2"


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Poly.t(1) + Poly.t(2)


def test_an_inexact_or_unknown_operand_is_refused():
    t = Poly.t(2)
    with pytest.raises(TypeError, match="not an exact rational"):
        Poly.const(2, 0.5)
    # arithmetic hands an operand it does not know to the other side
    for op in (lambda: t * 0.5, lambda: 0.5 * t, lambda: t + object(), lambda: t - 0.5):
        with pytest.raises(TypeError):
            op()
    assert t != 0.5 and not t == object()


@pytest.mark.parametrize("build, match", [
    (lambda: Poly(-1), "dimension must be >= 0"),
    (lambda: Poly(1, {(1,): 1}), "needs length 2"),
    (lambda: Poly(1, {(0, -1): 1}), "negative exponent"),
    (lambda: Poly.var(1, 2), r"index 2 out of range 0\.\.1"),
    (lambda: Poly.x(2, 0), r"index 0 out of range 1\.\.2"),
    (lambda: Poly.t(1).differentiate(2), r"index 2 out of range 0\.\.1"),
    (lambda: Poly.t(1).evaluate([0]), "needs length 2"),
    (lambda: Poly.t(1) ** -1, "negative power"),
    (lambda: Poly.t(1).constant_value(), "is not constant"),
], ids=["negative_dim", "exponent_length", "negative_exponent", "var_index", "x_index",
        "differentiate_index", "evaluate_length", "negative_power", "constant_value"])
def test_malformed_input_is_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_scalar_operands_and_equality_across_dimensions():
    t = Poly.t(1)
    assert t + 2 == Poly(1, {(1, 0): 1, (0, 0): 2})
    assert 2 - t == Poly(1, {(1, 0): -1, (0, 0): 2})
    assert Poly.t(1) != Poly.t(2)
    assert not t == "not a number"
    # exponents are read through int(), so equal ones add and may cancel
    assert Poly(1, {(1, 0): 2, ("1", "0"): -2}).is_zero()
