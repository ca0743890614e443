"""The compiled derivative tables against Poly-path assembly, the oracle."""

from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from conftest import maxwell_rows, rotating_structure
from ncsym import em, solver
from ncsym.geometry import flat_structure
from ncsym.lie import OneForm, TwoForm, VectorField
from ncsym.poly import Poly
from ncsym.solver import (
    INF,
    alt_subalgebra,
    cga_expansion,
    quadratic_expansion,
    rotation,
    time_translation,
    translation,
)


def poly_path_rows(fields, residual_op):
    """The residual matrix assembled by applying the operator to each field
    through Poly arithmetic: the oracle for the compiled tables."""
    rows = {}
    for j, X in enumerate(fields):
        for i, p in enumerate(residual_op(X)):
            for exp, c in p.terms.items():
                rows.setdefault((i, exp), {})[j] = c
    return rows


def compiled_by(run):
    """The residual operators that run() compiles, in order."""
    seen = []
    real = solver._compile

    def spy(d, residual_op):
        seen.append(residual_op)
        return real(d, residual_op)

    with mock.patch.object(solver, "_compile", spy):
        run()
    return seen


# every operator the solvers compile; alt_subalgebra's is a closure
OPERATORS = {
    "conformal": solver.res_conformal,
    "isometry": solver.res_isometry,
    "timelike_projective": solver.res_timelike_projective,
    "lightlike_projective": solver.res_lightlike_projective,
    "milne_relaxed": solver.res_milne_relaxed,
    "observer_u_free": solver._res_u_free,
    "c1_slice": solver._res_c1_slice,
    "c2_slice": solver._res_c2_slice,
    "alt": compiled_by(lambda: alt_subalgebra(2, 3))[0],
    **{
        f"exponent_{z}": lambda X, z=z: solver.res_exponent(X, z)
        for z in (Fraction(1), Fraction(2), Fraction(2, 3), INF)
    },
    # polynomial coefficients, inside and outside a derivative
    "polynomial_coefficients": lambda X: [
        Poly.t(X.dim) * X[0].differentiate(1) - X[1] * Poly.x(X.dim, 1) ** 2,
        (X[2] * Poly.x(X.dim, 2) * Poly.t(X.dim)).differentiate(2).differentiate(0),
    ],
    # terms that cancel, and a product with zero
    "cancelling": lambda X: [
        X[1].differentiate(0) + X[0] - X[1].differentiate(0),
        (Poly.x(X.dim, 1) * X[1]).differentiate(1) - X[1] - X[1].differentiate(1) * Poly.x(X.dim, 1),
        X[2] * 0 + X[0] * Poly.zero(X.dim) + X[1],
    ],
}

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def field_lists(draw):
    d = draw(st.sampled_from([2, 3]))
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        comps = [{} for _ in range(d + 1)]
        for _ in range(draw(st.integers(1, 8))):
            exp = tuple(draw(st.integers(0, 3)) for _ in range(d + 1))
            comps[draw(st.integers(0, d))][exp] = draw(COEFFS)
        fields.append(VectorField(d, [Poly(d, c) for c in comps]))
    return fields


# solved generators: their residual entries cancel within a column and
# whole rows vanish, which random fields rarely reach
@pytest.mark.parametrize("name", sorted(OPERATORS))
@settings(max_examples=40, deadline=None)
@given(fields=field_lists())
@example(fields=[rotation(3, 1, 2), quadratic_expansion(3, 1, 1), cga_expansion(3)])
def test_compiled_table_rows_equal_poly_path_rows(name, fields):
    residual_op = OPERATORS[name]
    assert solver._residual_rows(fields, residual_op) == poly_path_rows(fields, residual_op)


def test_no_fields_give_no_rows():
    assert solver._residual_rows([], solver.res_conformal) == {}


STRUCTURES = {"flat": flat_structure(3), "rotating": rotating_structure()}


@st.composite
def polys3(draw, terms=3):
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        out[tuple(draw(st.integers(0, 2)) for _ in range(4))] = draw(COEFFS)
    return Poly(3, out)


@st.composite
def em_fields(draw):
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return [
        em.EMField(TwoForm.from_upper(3, {ab: draw(polys3()) for ab in pairs}), OneForm.zero(3))
        for _ in range(draw(st.integers(1, 2)))
    ]


# F -> (d L_X F, div L_X F) compiled with polynomial-coefficient jets, and
# F -> (dF, div F) when X is None, against the Poly-path Maxwell residuals
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@settings(max_examples=30, deadline=None)
@given(X=st.none() | st.builds(lambda cs: VectorField(3, cs), st.lists(polys3(), min_size=4, max_size=4)),
       fields=em_fields())
@example(X=rotation(3, 1, 2, k=1), fields=em.sourcefree_library())
@example(X=VectorField(3, [Poly.zero(3)] * 4), fields=em.sourcefree_library()[:1])
def test_compiled_maxwell_rows_equal_oracle_rows(structure, X, fields):
    nc = STRUCTURES[structure]
    rows, triples = em._maxwell_rows(X, fields, nc)
    assert rows == maxwell_rows(X, fields, nc, triples)


def test_alt_compiles_one_operator():
    # its own operator, then res_conformal for the check of the presentation
    compiled = compiled_by(lambda: alt_subalgebra(2, 3))
    assert len(compiled) == 2 and compiled[1] is solver.res_conformal


@pytest.mark.parametrize(
    "residual_op",
    [
        lambda X: [X[0] * X[1].differentiate(2)],
        lambda X: [Poly.t(X.dim) + X[0]],
        lambda X: [X[1] + Poly.t(X.dim)],
        lambda X: [Poly.zero(X.dim)],
    ],
    ids=["jet_times_jet", "poly_plus_jet", "jet_plus_poly", "row_not_a_jet"],
)
def test_operator_that_cannot_be_compiled_raises(residual_op):
    fields = [time_translation(3), translation(3, 1, 2)]
    with pytest.raises(TypeError):
        solver.restrict_span(fields, residual_op)
