from fractions import Fraction

import pytest

from conftest import field_residual, is_solution, maxwell_rows, rotating_structure
from ncsym import em
from ncsym.em import (
    EMField,
    failing_fields,
    field_from_EB,
    require_source_free,
    sourcefree_library,
)
from ncsym.geometry import flat_structure
from ncsym.lie import OneForm, TwoForm
from ncsym.poly import Poly
from ncsym.solver import (
    rotation,
    solve_cga,
    solve_cmil_flat,
    solve_sch,
    solve_cnc_flat,
)

D3 = flat_structure(3)
Z3 = Poly.zero(3)
ONE = Poly.const(3, 1)


# -- the textbook-form oracle: Maxwell's equations on the E/B components -----


def eb_components(F):
    """(E, B) view of a d = 3 two-form: E_A = F_A0, B^A = 1/2 eps^ABC F_BC."""
    E = [F[1, 0], F[2, 0], F[3, 0]]
    B = [F[2, 3], F[3, 1], F[1, 2]]
    return E, B


def component_residuals_d3(em):
    """Textbook-form residuals at d = 3 on the flat structure: div B,
    Faraday (curl E + dB/dt), Gauss (div E - rho), Ampere (curl B + j; no
    displacement current enters)."""
    E, B = eb_components(em.F)

    def curl(v):
        return [
            v[2].differentiate(2) - v[1].differentiate(3),
            v[0].differentiate(3) - v[2].differentiate(1),
            v[1].differentiate(1) - v[0].differentiate(2),
        ]

    div_b = B[0].differentiate(1) + B[1].differentiate(2) + B[2].differentiate(3)
    curl_e = curl(E)
    faraday = [curl_e[A] + B[A].differentiate(0) for A in range(3)]
    div_e = E[0].differentiate(1) + E[1].differentiate(2) + E[2].differentiate(3)
    gauss = div_e - em.J[0]
    curl_b = curl(B)
    ampere = [curl_b[A] + em.J[A + 1] for A in range(3)]
    return {"div_B": div_b, "faraday": faraday, "gauss": gauss, "ampere": ampere}


def test_constant_magnetic_field_is_solution():
    f = field_from_EB([Z3, Z3, Z3], [Z3, Z3, ONE])
    dF, div_res = field_residual(f, D3)
    assert dF.is_zero() and div_res.is_zero()


def test_curlfree_divergence_free_electric_field():
    # E = (a y, a x, 0) with constant B: solves the source-free system
    a = Fraction(3)
    f = field_from_EB([Poly.x(3, 2) * a, Poly.x(3, 1) * a, Z3], [Z3, Z3, ONE])
    assert is_solution(f, D3)


def test_time_dependent_magnetic_field_violates_closedness():
    f = field_from_EB([Z3, Z3, Z3], [Z3, Z3, Poly.t(3)])
    dF, _ = field_residual(f, D3)
    assert dF.comp == {(0, 1, 2): ONE}


def test_component_view_matches_covariant_residuals():
    lib = sourcefree_library()
    assert len(lib) >= 5
    for f in lib:
        comp = component_residuals_d3(f)
        assert comp["div_B"].is_zero()
        assert all(p.is_zero() for p in comp["faraday"])
        assert comp["gauss"].is_zero()
        assert all(p.is_zero() for p in comp["ampere"])


def test_divergence_uses_the_connection():
    # a rotating-frame background has spatially indexed connection
    # components, so the compiled rows of a magnetic field differ from the
    # flat ones, and each equal the oracle's
    f = field_from_EB([Z3, Z3, Z3], [Z3, Z3, ONE])
    flat_rows, flat_triples = em._maxwell_rows(None, [f], D3)
    nc = rotating_structure()
    curved_rows, curved_triples = em._maxwell_rows(None, [f], nc)
    assert flat_rows != curved_rows
    assert flat_rows == maxwell_rows(None, [f], D3, flat_triples)
    assert curved_rows == maxwell_rows(None, [f], nc, curved_triples)


def test_all_milne_generators_are_symmetries():
    c1, _ = solve_cmil_flat(3)
    assert c1.dim == 16
    lib = sourcefree_library()
    require_source_free(lib, D3)
    for X in c1.generators:
        assert failing_fields(X, lib, D3) == []


def test_projective_z2_generators_are_symmetries():
    lib = sourcefree_library()
    require_source_free(lib, D3)
    for X in solve_sch(3).generators:
        assert failing_fields(X, lib, D3) == []


def test_time_dependent_rotation_fails_exactly():
    rot_t = rotation(3, 1, 2, k=1)
    lib = sourcefree_library()
    require_source_free(lib, D3)
    assert 0 in failing_fields(rot_t, lib, D3)
    # the uniform magnetic field is a witness with an exact residual
    f = lib[0]
    rows, triples = em._maxwell_rows(rot_t, [f], D3)
    assert rows == maxwell_rows(rot_t, [f], D3, triples)
    div0 = Poly(3, {e: row[0] for (i, e), row in rows.items() if i == len(triples)})
    assert div0 == Poly.const(3, 2)


def test_lightlike_family_members_beyond_milne_fail():
    # maximality: some generator of the wider lightlike family breaks the
    # field equations on a suitable solution
    cnc, _ = solve_cnc_flat(3, 2)
    lib = sourcefree_library()
    require_source_free(lib, D3)
    outside = [
        X
        for X, lbl in zip(cnc.generators, cnc.labels)
        if "t^" in lbl and lbl.startswith("omega")
    ]
    assert outside
    assert any(failing_fields(X, lib, D3) for X in outside)


def test_symmetry_outcome_invariant_under_rescaling():
    rot_t = rotation(3, 1, 2, k=1)
    cga = solve_cga(3)
    fields = sourcefree_library()[:3]
    scaled = [
        EMField(F=TwoForm(3, [[v * Fraction(7, 3) for v in row] for row in f.F.comp]), J=f.J)
        for f in fields
    ]
    require_source_free(fields + scaled, D3)
    for X in (rot_t, cga.generators[0], cga.generators[-1]):
        assert failing_fields(X, fields, D3) == failing_fields(X, scaled, D3)


def test_require_source_free_rejects_sources():
    f = field_from_EB([Poly.x(3, 1), Z3, Z3], [Z3, Z3, Z3])  # div E = 1: charged
    assert not is_solution(f, D3)
    with pytest.raises(ValueError):
        require_source_free([f], D3)
    sourced = EMField(F=sourcefree_library()[0].F, J=OneForm(3, [ONE, Z3, Z3, Z3]))
    with pytest.raises(ValueError):
        require_source_free([sourced], D3)


def test_eb_roundtrip():
    E = [Poly.x(3, 2), Poly.t(3), Z3]
    B = [Z3, ONE, Poly.x(3, 1)]
    f = field_from_EB(E, B)
    E2, B2 = eb_components(f.F)
    assert E2 == E and B2 == B
