"""Magnetic-type Galilean electromagnetism on a Newton-Cartan background.

Field equations for the two-form field and one-form current:
closedness dF = 0 together with div F = J, where
div F_c = gamma^ab nabla_a F_bc.  In the flat d = 3 chart this is the
non-relativistic Maxwell pair without displacement current; the E/B
dictionary E_A = F_A0, B^A = 1/2 eps^ABC F_BC makes Gauss, Faraday and
the divergence-free magnetic law come out in their textbook form while
Ampere's law reads curl B = -j for this orientation of the current.
All residuals here are exact: the solver's compiler runs F -> (dF, div F),
composed with L_X for a symmetry check, on jets of the components F_ab
(a < b), the connection and X entering as polynomial coefficients, and
the residual rows of every field come from that one table.
"""

from __future__ import annotations

from itertools import product

from . import solver
from .geometry import NCStructure
from .lie import OneForm, TwoForm, VectorField, exterior_derivative, lie_derive_two_form
from .poly import Poly


class EMField:
    __slots__ = ("F", "J")

    def __init__(self, F: TwoForm, J: OneForm):
        self.F = F
        self.J = J


def field_from_EB(E, B) -> EMField:
    """Source-free d = 3 field from electric/magnetic polynomial triples."""
    # F_0A = -E_A, and F_23, F_31, F_12 = B^1, B^2, B^3
    upper = {(0, 1): -E[0], (0, 2): -E[1], (0, 3): -E[2], (2, 3): B[0], (1, 3): -B[1], (1, 2): B[2]}
    return EMField(F=TwoForm.from_upper(3, upper), J=OneForm.zero(3))


def _divergence(F: TwoForm, nc: NCStructure) -> list:
    """div F_c = gamma^ab (d_a F_bc - Gamma^k_ab F_kc - Gamma^k_ac F_bk) on
    a two-form of jets, the connection entering as polynomial
    coefficients; the terms b = c are dropped, as nabla_a F_cc = 0."""
    n = nc.dim + 1
    gamma, conn = nc.base.gamma, nc.connection
    out = []
    for c in range(n):
        val = Poly.zero(nc.dim)
        for a, b in product(range(n), repeat=2):
            if b != c and not gamma[a, b].is_zero():
                term = F[b, c].differentiate(a)
                for k in range(n):
                    for G, Fk in ((conn[k, a, b], F[k, c]), (conn[k, a, c], F[b, k])):
                        if not G.is_zero():  # every entry is zero on the flat chart
                            term = term - G * Fk
                val = val + gamma[a, b] * term
        out.append(val)
    return out


def _maxwell_rows(X: VectorField | None, fields: list[EMField], nc: NCStructure):
    """solver._residual_rows of the fields' components F_ab (a < b) under
    F -> (dF, div F), composed with L_X unless X is None, and the index
    triples of the dF rows, which come first.  The operator is compiled
    once for all the fields."""
    d = nc.dim
    pairs = [(a, b) for a in range(d + 1) for b in range(a + 1, d + 1)]
    triples = []

    def maxwell(comps):
        F = TwoForm.from_upper(d, dict(zip(pairs, comps)))
        if X is not None:
            F = lie_derive_two_form(X, F)
        dF = exterior_derivative(F).comp
        triples.extend(dF)
        return list(dF.values()) + _divergence(F, nc)

    rows = solver._residual_rows([tuple(f.F[ab] for ab in pairs) for f in fields], maxwell)
    return rows, triples


def require_source_free(fields: list[EMField], nc: NCStructure) -> None:
    """The precondition of a symmetry check (ValueError otherwise), for
    every field at once on one compiled table; a caller moving the fields
    by many generators checks them once."""
    if any(not f.J.is_zero() for f in fields) or _maxwell_rows(None, fields, nc)[0]:
        raise ValueError("symmetry check expects a source-free solution")


def failing_fields(X: VectorField, fields: list[EMField], nc: NCStructure) -> list[int]:
    """Indices of the source-free fields that L_X takes off the solutions,
    from one table compiled for X."""
    return sorted({j for row in _maxwell_rows(X, fields, nc)[0].values() for j in row})


def sourcefree_library() -> list[EMField]:
    """Polynomial source-free solutions at d = 3 used as test targets."""
    d = 3
    z = Poly.zero(d)
    c1 = Poly.const(d, 1)
    x, y = Poly.x(d, 1), Poly.x(d, 2)
    xz = Poly.x(d, 3)
    t = Poly.t(d)
    return [
        # uniform magnetic field
        field_from_EB([z, z, z], [z, z, c1]),
        # uniform electric field with a transverse magnetic component
        field_from_EB([c1, z, z], [z, c1 * 2, z]),
        # curl-free, divergence-free electric field, linear
        field_from_EB([y, x, z], [z, z, c1]),
        # harmonic-gradient electric field E = grad(xyz)
        field_from_EB([y * xz, x * xz, x * y], [z, z, z]),
        # linearly growing magnetic field fed by a rotational electric field
        field_from_EB([y * Poly.const(d, "1/2"), x * Poly.const(d, "-1/2"), z], [z, z, t]),
        # anisotropic linear electric field
        field_from_EB([x, y * -1, z], [c1, z, z]),
    ]
