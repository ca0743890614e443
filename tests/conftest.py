from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

import pytest

from ncsym.lie import OneForm, TwoForm, VectorField, exterior_derivative, lie_derive_two_form
from ncsym.poly import Poly
from ncsym.solver import res_spatial_linear

if TYPE_CHECKING:
    from ncsym.em import EMField
    from ncsym.geometry import NCStructure, Observer

_HALF = Fraction(1, 2)


@pytest.fixture
def rng():
    return random.Random(20240917)


def random_poly(rng, dim, max_degree=3, terms=4, coeff_range=5):
    """Random sparse polynomial with small rational coefficients."""
    out = {}
    for _ in range(terms):
        exp = [0] * (dim + 1)
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(dim + 1)] += 1
        num = rng.randint(-coeff_range, coeff_range)
        den = rng.randint(1, 3)
        out[tuple(exp)] = Fraction(num, den)
    return Poly(dim, out)


def vanishes(tensor) -> bool:
    """Every polynomial entry of a vector field or tensor is zero."""
    def entries(x):
        if isinstance(x, Poly):
            yield x
        else:
            for y in x:
                yield from entries(y)

    return all(p.is_zero() for p in entries(getattr(tensor, "comp", None) or tensor.components))


# The full lightlike system written out on Poly fields: the oracle that the
# witness tests check the observer search against.
def cnc_system_residuals(
    X: VectorField,
    f: Poly,
    g: Poly,
    obs: Observer,
    F: TwoForm,
) -> list[Poly]:
    """Residuals of the full lightlike-projective system for a given
    gauge pair (observer, Coriolis form).  With F = 0 and a constant
    observer as the ether this is the full NC-Milne system."""
    d = X.dim
    fp = f.differentiate(0)
    fgp = fp + g.differentiate(0)
    fg = f + g
    out = []
    for A in range(1, d + 1):
        for B in range(A, d + 1):
            val = X[A].differentiate(B) + X[B].differentiate(A)
            if A == B:
                val = val + f
            out.append(val)
    for A in range(1, d + 1):
        out.append(X[0].differentiate(A))
    out.append(X[0].differentiate(0) - g)
    for A in range(1, d + 1):
        out.append(
            X[A].differentiate(0).differentiate(0) - fgp * obs.U[A] - fg * F[0, A]
        )
        for B in range(1, d + 1):
            val = X[A].differentiate(0).differentiate(B) + fg * F[A, B] * _HALF
            if A == B:
                val = val + fp * _HALF
            out.append(val)
    out.extend(res_spatial_linear(X))
    return out


# The Maxwell residuals written out on Poly fields: the oracle for the
# compiled rows of ncsym.em.
def divergence(F: TwoForm, nc: NCStructure) -> OneForm:
    """div F_c = gamma^ab nabla_a F_bc for the structure's connection."""
    d = nc.dim
    n = d + 1
    gamma = nc.base.gamma
    conn = nc.connection
    comps = []
    for c in range(n):
        val = Poly.zero(d)
        for a in range(n):
            for b in range(n):
                g = gamma[a, b]
                if g.is_zero():
                    continue
                term = F[b, c].differentiate(a)
                for k in range(n):
                    for G, Fk in ((conn[k, a, b], F[k, c]), (conn[k, a, c], F[b, k])):
                        if not G.is_zero():  # every entry is zero on the flat chart
                            term = term - G * Fk
                val = val + g * term
        comps.append(val)
    return OneForm(d, comps)


def field_residual(em: EMField, nc: NCStructure):
    """(dF, div F - J): both must vanish identically for a solution."""
    dF = exterior_derivative(em.F)
    div = divergence(em.F, nc)
    return dF, OneForm(em.F.dim, [div[c] - em.J[c] for c in range(em.F.dim + 1)])


def is_solution(em: EMField, nc: NCStructure) -> bool:
    dF, div_res = field_residual(em, nc)
    return dF.is_zero() and div_res.is_zero()


def moved_field_residual(X: VectorField, em: EMField, nc: NCStructure):
    """(passed, dF, div F) of L_X F, for a field that has already passed
    require_source_free."""
    moved = lie_derive_two_form(X, em.F)
    dF = exterior_derivative(moved)
    div = divergence(moved, nc)
    return (dF.is_zero() and div.is_zero()), dF, div


def rotating_structure() -> NCStructure:
    """The d = 3 structure of the rest observer with Coriolis form
    dA, A = 2 (x^1 dx^2 - x^2 dx^1): its connection has spatially indexed
    components."""
    from ncsym.geometry import connection_from_observer, flat_galilei, rest_observer
    from ncsym.lie import exterior_derivative_one_form

    w = Fraction(2)
    z = Poly.zero(3)
    A_form = OneForm(3, [z, Poly.x(3, 2) * (-w), Poly.x(3, 1) * w, z])
    return connection_from_observer(
        flat_galilei(3), rest_observer(3), exterior_derivative_one_form(A_form)
    )


def maxwell_rows(X: VectorField | None, fields: list, nc: NCStructure, triples: list) -> dict:
    """The rows of ncsym.em._maxwell_rows from the oracle: the residuals
    (dF, div F - J) of each field, or (dF, div F) of L_X F, row i of dF
    being triples[i] and the divergence rows following them."""
    rows: dict = {}
    for j, em in enumerate(fields):
        dF, div = field_residual(em, nc) if X is None else moved_field_residual(X, em, nc)[1:]
        entries = [(triples.index(t), p) for t, p in dF.comp.items()]
        entries += [(len(triples) + c, div[c]) for c in range(nc.dim + 1)]
        for i, p in entries:
            for exp, c in p.terms.items():
                rows.setdefault((i, exp), {})[j] = c
    return rows
