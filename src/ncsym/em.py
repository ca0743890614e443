"""Magnetic-type Galilean electromagnetism on a Newton-Cartan background.

Field equations for the two-form field and one-form current:
closedness dF = 0 together with div F = J, where
div F_c = gamma^ab nabla_a F_bc.  In the flat d = 3 chart this is the
non-relativistic Maxwell pair without displacement current; the E/B
dictionary E_A = F_A0, B^A = 1/2 eps^ABC F_BC makes Gauss, Faraday and
the divergence-free magnetic law come out in their textbook form while
Ampere's law reads curl B = -j for this orientation of the current.
All residuals here are exact polynomial identities.
"""

from __future__ import annotations

from .geometry import NCStructure
from .lie import (
    OneForm,
    TwoForm,
    VectorField,
    exterior_derivative,
    lie_derive_two_form,
)
from .poly import Poly


class EMField:
    __slots__ = ("F", "J")

    def __init__(self, F: TwoForm, J: OneForm):
        self.F = F
        self.J = J

    @property
    def dim(self) -> int:
        return self.F.dim


def field_from_EB(E, B) -> EMField:
    """Source-free d = 3 field from electric/magnetic polynomial triples."""
    d = 3
    entries = {
        (1, 0): E[0],
        (2, 0): E[1],
        (3, 0): E[2],
        (2, 3): B[0],
        (3, 1): B[1],
        (1, 2): B[2],
    }
    upper = {}
    for (a, b), val in entries.items():
        if a < b:
            upper[(a, b)] = val
        else:
            upper[(b, a)] = -val
    return EMField(F=TwoForm.from_upper(d, upper), J=OneForm.zero(d))


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
    return dF, OneForm(em.dim, [div[c] - em.J[c] for c in range(em.dim + 1)])


def is_solution(em: EMField, nc: NCStructure) -> bool:
    dF, div_res = field_residual(em, nc)
    return dF.is_zero() and div_res.is_zero()


def require_source_free(em: EMField, nc: NCStructure) -> None:
    """The precondition of a symmetry check (ValueError otherwise); a
    caller moving one field by many generators checks it once."""
    if not em.J.is_zero() or not is_solution(em, nc):
        raise ValueError("symmetry check expects a source-free solution")


def symmetry_check(X: VectorField, em: EMField, nc: NCStructure):
    """Does the Lie-transported field still solve the source-free system?

    Exact: computes L_X F and re-runs the residuals on it.  Returns
    (passed, dF residual, divergence residual).
    """
    require_source_free(em, nc)
    return moved_field_residual(X, em, nc)


def moved_field_residual(X: VectorField, em: EMField, nc: NCStructure):
    """symmetry_check without its precondition, for a field that has
    already passed require_source_free."""
    moved = lie_derive_two_form(X, em.F)
    dF = exterior_derivative(moved)
    div = divergence(moved, nc)
    return (dF.is_zero() and div.is_zero()), dF, div


def sourcefree_library() -> list[EMField]:
    """Polynomial source-free solutions at d = 3 used as test targets."""
    d = 3
    z = Poly.zero(d)
    c1 = Poly.const(d, 1)
    x, y = Poly.x(d, 1), Poly.x(d, 2)
    xz = Poly.x(d, 3)
    t = Poly.t(d)
    fields = [
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
    return fields
