"""The Lie bracket from term products, against a sympy oracle and against
the directional-derivative formula X(Y^a) - Y(X^a) it replaced."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st

from ncsym import linalg, solver
from ncsym.lie import VectorField, lie_bracket
from ncsym.poly import Poly
from ncsym.solver import (
    INF,
    alt_subalgebra,
    restrict_cmil_z,
    restrict_sch_z,
    rotation,
    solve_cga,
    solve_cmil_flat,
    solve_gal,
    solve_sch,
    solve_sch_expanded,
    space_dilation,
    structure_constants,
    time_translation,
)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def components(draw, d):
    comps = [{} for _ in range(d + 1)]
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(d + 1))
        comps[draw(st.integers(0, d))][exp] = draw(COEFFS)
    return VectorField(d, [Poly(d, c) for c in comps])


@st.composite
def field_pairs(draw):
    """(X, Y) at d = 1..3; Y is sometimes a multiple of X, so that every
    term product cancels, and either field may be zero."""
    d = draw(st.integers(1, 3))
    X = draw(components(d))
    if draw(st.booleans()):
        Y = X.scale(draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)])))
    else:
        Y = draw(components(d))
    return X, Y


def sympy_bracket(X, Y):
    """[X,Y]^a = X^b d_b Y^a - Y^b d_b X^a in sympy, as {exp: Fraction} per component."""
    d = X.dim
    syms = sympy.symbols(f"v0:{d + 1}")

    def expr(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.prod([s**e for s, e in zip(syms, exp)])
             for exp, c in p.terms.items()),
            sympy.Integer(0),
        )

    xs, ys = [expr(p) for p in X.components], [expr(p) for p in Y.components]
    out = []
    for a in range(d + 1):
        val = sympy.expand(sum(
            (xs[b] * sympy.diff(ys[a], syms[b]) - ys[b] * sympy.diff(xs[a], syms[b])
             for b in range(d + 1)),
            sympy.Integer(0),
        ))
        terms = sympy.Poly(val, *syms).terms() if val != 0 else []
        out.append({exp: Fraction(int(c.p), int(c.q)) for exp, c in terms if c != 0})
    return out


@settings(max_examples=150, deadline=None)
@given(pair=field_pairs())
@example(pair=(VectorField(2, [Poly.zero(2)] * 3), rotation(2, 1, 2)))
@example(pair=(time_translation(3), space_dilation(3)))  # commuting: everything cancels
@example(pair=(rotation(3, 1, 2, 1), rotation(3, 1, 2, 1)))
def test_bracket_matches_sympy(pair):
    X, Y = pair
    br = lie_bracket(X, Y)
    assert br.dim == X.dim
    assert [dict(p.terms) for p in br.components] == sympy_bracket(X, Y)


def apply_bracket(X, Y):
    """The deleted formula: [X,Y]^a = X(Y^a) - Y(X^a) through VectorField.apply."""
    return VectorField(X.dim, [X.apply(Y[a]) - Y.apply(X[a]) for a in range(X.dim + 1)])


def apply_structure_constants(fields):
    span = linalg.Echelon(solver._field_vector(X) for X in fields)
    n = len(fields)
    c = {}
    for i in range(n):
        for j in range(n):
            coeffs, remainder = span.reduce(solver._field_vector(apply_bracket(fields[i], fields[j])))
            assert not remainder
            if coeffs:
                c[i, j] = coeffs
    return c


FINITE_FAMILIES = {
    "gal": solve_gal,
    "sch_expanded": solve_sch_expanded,
    "sch": solve_sch,
    "sch_z": lambda d: restrict_sch_z(solve_sch_expanded(d), Fraction(2, 3)),
    "sch_inf": lambda d: restrict_sch_z(solve_sch_expanded(d), INF),
    "cmil_c1": lambda d: solve_cmil_flat(d)[0],
    "cmil_c2": lambda d: solve_cmil_flat(d)[1],
    "cga": solve_cga,
    "cga_inf": lambda d: restrict_cmil_z(solve_cmil_flat(d)[0], INF),
    "alt_1": lambda d: alt_subalgebra(d, 1),
    "alt_2": lambda d: alt_subalgebra(d, 2),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
def test_structure_constants_equal_the_apply_formula(family, d):
    basis = FINITE_FAMILIES[family](d)
    assert structure_constants(basis).c == apply_structure_constants(basis.generators)
