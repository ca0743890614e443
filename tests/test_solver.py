import re
from fractions import Fraction

import pytest

from ncsym import solver
from ncsym.cli import main
from ncsym.geometry import constant_observer, flat_galilei, rest_observer
from ncsym.lie import TwoForm, VectorField, conformal_factors, lie_bracket
from ncsym.poly import Poly
from ncsym.solver import (
    INF,
    AlgebraBasis,
    NotClosedError,
    StructureConstants,
    alt_closure_scan,
    alt_obstruction_coefficient,
    cga_expansion,
    closure_check,
    cmil_generator_ether,
    bracket_closure_grow,
    lightlike_gauge_witness,
    parse_z,
    sch_expansion,
    solve,
    space_dilation,
    span_contains,
    span_equal,
    structure_constants,
    time_translation,
    translation,
)

from conftest import cnc_system_residuals, vanishes


# ---------------------------------------------------------------------------
# conformal family
# ---------------------------------------------------------------------------


def test_cgal_dimensions():
    assert solve("cgal", 3, deg_t=0).dim == 11  # 3 + 3 + 3 + 1 + 1
    assert solve("cgal", 2, deg_t=0).dim == 7  # 1 + 2 + 2 + 1 + 1


def test_cgal_time_projection_is_homomorphism():
    # the time components bracket like vector fields on the line
    basis = solve("cgal", 2, deg_t=2)
    pool = basis.generators[::5]
    for X in pool:
        for Y in pool:
            br = lie_bracket(X, Y)
            xi1, xi2 = X[0], Y[0]
            line = xi1 * xi2.differentiate(0) - xi2 * xi1.differentiate(0)
            assert br[0] == line


def test_cgal_generators_solve_their_system(rng):
    basis = solve("cgal", 3, deg_t=1)
    for X in basis.generators:
        assert all(p.is_zero() for p in solver.res_conformal(X))


@pytest.mark.parametrize("d", [2, 3])
def test_graded_templates_solve_their_system_above_the_truncation(d):
    # grades past MAX_TIME_DEGREE, which no solve reaches
    nt = solver.MAX_TIME_DEGREE + 2
    systems = [("cgal", None, solver.res_conformal), ("cnc", None, solver.res_lightlike_projective)]
    for z in (Fraction(1), Fraction(3, 2), Fraction(2), INF):
        op = lambda X, z=z: solver.res_conformal(X) + solver.res_exponent(X, z)
        systems.append(("cgal_z", z, op))
    for family, z, op in systems:
        named = solver._graded(solver._GRADED_FAMILIES[family], d, nt, z)
        assert not solver._residual_rows([X for _, X in named], op), (family, z)
    # at d = 3 a grade holds 11 cgal and 8 cnc generators, the slice dimensions
    if d == 3:
        for family, per_grade in (("cgal", 11), ("cnc", 8)):
            names = solver._GRADED_FAMILIES[family]
            assert len(solver._graded(names, d, 0)) == per_grade
            assert len(solver._graded(names, d, nt)) == per_grade * (nt + 1)


def test_cgal_z_dimensions_and_factors():
    b = solve("cgal-z", 3, z=Fraction(2), deg_t=2)
    assert b.dim == 21
    binf = solve("cgal-z", 3, z=INF, deg_t=2)
    assert binf.dim == 21
    for f, g in binf.factors:
        assert f.is_zero()


def test_cgal_z_exponent_constraint_holds():
    for z in (Fraction(2), Fraction(1), Fraction(2, 3)):
        b = solve("cgal-z", 3, z=z, deg_t=2)
        for f, g in b.factors:
            assert (f + g * (Fraction(2) / z)).is_zero()


def test_cgal_z_tensor_power_transport():
    # generators at exponent z = 2/n annihilate gamma x theta^n exactly
    from ncsym.lie import lie_derive_gamma_theta_power

    base = flat_galilei(3)
    for n in (1, 2):
        b = solve("cgal-z", 3, z=Fraction(2, n), deg_t=1)
        for X in b.generators:
            assert lie_derive_gamma_theta_power(X, base.gamma, base.theta, n) == {}


def test_parse_z():
    assert parse_z("2") == Fraction(2)
    assert parse_z("2/3") == Fraction(2, 3)
    assert parse_z("inf") == INF
    with pytest.raises(ValueError):
        parse_z("-1")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_z("1/0")
    for text in ("\u0661", "1/\u0662"):  # ARABIC-INDIC digits one and two
        with pytest.raises(ValueError, match="must be 'p/q' or 'inf'"):
            parse_z(text)


def _z_entry_points(z):
    """A call of every entry point that reads a dynamical exponent, at z."""
    expanded = solve("sch-expanded", 2)
    c1, c2 = (solve("cmil", 2, branch=branch) for branch in ("c1", "c2"))
    cnc = solve("cnc", 2, deg_t=1)
    return [
        lambda: solve("cgal-z", 2, z=z, deg_t=1),
        lambda: solve("sch", expanded.d, expanded, z=z),
        lambda: solve("sch", c2.d, c2, z=z),
        lambda: solve("cga", c1.d, c1, z=z),
        lambda: solve("cnc-z", cnc.d, cnc, z=z),
        lambda: solver.alt_candidate(2, 1, z),
        lambda: alt_obstruction_coefficient(2, 1, z),
        lambda: alt_closure_scan(2, 1, [z]),
    ]


@pytest.mark.parametrize("z", [Fraction(0), Fraction(-2)])
def test_every_z_entry_point_rejects_a_nonpositive_exponent(z):
    for call in _z_entry_points(z):
        with pytest.raises(ValueError, match="z must be positive or 'inf'"):
            call()


@pytest.mark.parametrize("z, message", [
    (0.1, "z must be an int, a Fraction, 'p/q' or 'inf', got 0.1"),
    (2.0, "z must be an int, a Fraction, 'p/q' or 'inf', got 2.0"),
    (True, "z must be an int, a Fraction, 'p/q' or 'inf', got True"),
    ("2.0", "must be 'p/q' or 'inf', got '2.0'"),
    (" 2 ", "must be 'p/q' or 'inf', got ' 2 '"),
])
def test_every_z_entry_point_reads_z_by_one_rule(z, message):
    # an int, a Fraction, 'p/q' or 'inf': never a float, a bool or a
    # string parse_z refuses
    for call in _z_entry_points(z):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    assert solve("sch", 2, z=2).z == solve("sch", 2, z="2").z == Fraction(2)


def test_sch_slice_of_the_second_milne_branch_equals_sch():
    c1, c2 = (solve("cmil", 3, branch=branch) for branch in ("c1", "c2"))
    s = solve("sch", 3)
    from_c2 = solve("sch", c2.d, c2, z=Fraction(2))
    assert (from_c2.family, from_c2.labels) == (s.family, s.labels)
    assert from_c2.to_report() == s.to_report()
    with pytest.raises(ValueError, match="restriction expects"):
        solve("sch", c1.d, c1, z=Fraction(2))
    with pytest.raises(ValueError, match="restriction expects"):
        solve("cga", c2.d, c2, z=Fraction(1))


# ---------------------------------------------------------------------------
# timelike-projective family
# ---------------------------------------------------------------------------


def test_sch_expanded_dimension_and_gal():
    assert solve("sch-expanded", 3).dim == 13
    assert solve("gal", 3).dim == 10


def test_sch_expanded_connection_transport():
    # every generator Lie-derives the flat connection into g' delta^c_(a theta_b)
    from ncsym.lie import Connection, lie_derive_connection

    d = 3
    basis = solve("sch-expanded", d)
    base = flat_galilei(d)
    half = Fraction(1, 2)
    for X, (f, g) in zip(basis.generators, basis.factors):
        gp = g.differentiate(0)
        LG = lie_derive_connection(X, Connection.zero(d))
        for c in range(d + 1):
            for a in range(d + 1):
                for b in range(d + 1):
                    expect = Poly.zero(d)
                    if c == a:
                        expect = expect + gp * base.theta[b] * half
                    if c == b:
                        expect = expect + gp * base.theta[a] * half
                    assert LG[c, a, b] == expect
        assert (f.differentiate(0) + gp).is_zero()


def test_sch_restrictions():
    e = solve("sch-expanded", 3)
    assert solve("sch", e.d, e, z=Fraction(2)).dim == 12
    assert solve("sch", e.d, e, z=Fraction(3)).dim == 11
    assert solve("sch", e.d, e, z=INF).dim == 11
    e2 = solve("sch-expanded", 2)
    assert solve("sch", e2.d, e2, z=Fraction(2)).dim == 8


def test_sch_inf_keeps_time_dilation():
    b = solve("sch", 3, solve("sch-expanded", 3), z=INF)
    assert "mu" in b.labels
    assert span_contains(b.generators, [time_translation(3, 1)])
    assert not span_contains(b.generators, [space_dilation(3)])


def test_inclusion_chain():
    gal = solve("gal", 3)
    sch = solve("sch", 3)
    expanded = solve("sch-expanded", 3)
    assert span_contains(sch.generators, gal.generators)
    assert span_contains(expanded.generators, sch.generators)
    assert not span_contains(sch.generators, expanded.generators)


# ---------------------------------------------------------------------------
# lightlike-projective family
# ---------------------------------------------------------------------------


def test_cnc_dimension_and_coriolis():
    basis = solve("cnc", 3, deg_t=2)
    assert basis.dim == 24  # (3 + 1 + 3 + 1) * 3
    # upper-index transported connection vanishes: no spatial quadratics
    for X in basis.generators:
        for c in range(4):
            for A in range(1, 4):
                for B in range(1, 4):
                    assert X[c].differentiate(A).differentiate(B).is_zero()


def test_sch2_inside_cnc_with_balanced_factors():
    # every z = 2 generator solves the lightlike system with the trivial
    # gauge pair and f + g = 0
    d = 3
    sch = solve("sch", 3)
    U = rest_observer(d)
    F = TwoForm.zero(d)
    for X, (f, g) in zip(sch.generators, sch.factors):
        assert (f + g).is_zero()
        assert all(r.is_zero() for r in cnc_system_residuals(X, f, g, U, F))
    cnc = solve("cnc", 3, deg_t=2)
    assert span_contains(cnc.generators, sch.generators)


def test_cnc_z_matches_cgal_z_basis_for_basis():
    cnc = solve("cnc", 3, deg_t=2)
    for z in (Fraction(2), Fraction(1), Fraction(1, 2), INF):
        sliced = solve("cnc-z", cnc.d, cnc, z=z)
        ref = solve("cgal-z", 3, z=z, deg_t=2)
        assert span_equal(sliced, ref.generators)
        assert len(sliced) == ref.dim


def test_cnc_witnesses_exist_for_constructible_classes():
    basis = solve("cnc", 3, deg_t=2)
    witnesses = [lightlike_gauge_witness(X) for X in basis.generators]
    base = flat_galilei(3)
    witnessed = {label for label, w in zip(basis.labels, witnesses) if w is not None}
    # every time reparametrization has a witness, as do the degree <= 1
    # rotations, dilations and translations
    for label in ("xi", "xi*t^1", "xi*t^2", "omega[1,2]", "dil", "dil*t^1",
                  "eta[1]", "eta[1]*t^1"):
        assert label in witnessed
    for label, X, w in zip(basis.labels, basis.generators, witnesses):
        if w is None:
            continue
        f, g = conformal_factors(X, base.gamma, base.theta)
        res = cnc_system_residuals(X, f, g, w.observer, w.coriolis)
        assert all(r.is_zero() for r in res)


def test_cnc_time_dependent_rotation_obstruction():
    # the mixed equation reads (f+g) F_AB = -2 omega'_AB; a pure rotation
    # has f + g = 0, so no gauge pair exists once omega depends on time
    basis = solve("cnc", 3, deg_t=2)
    witnesses = [lightlike_gauge_witness(X) for X in basis.generators]
    base = flat_galilei(3)
    for label, X, w in zip(basis.labels, basis.generators, witnesses):
        if not label.startswith("omega") or "t^" not in label:
            continue
        assert w is None
        f, g = conformal_factors(X, base.gamma, base.theta)
        assert (f + g).is_zero()
        omega_p = (X[1].differentiate(2) - X[2].differentiate(1)).differentiate(0)
        assert not omega_p.is_zero() or "[1,2]" not in label


def test_cnc_witness_for_mixed_generator():
    # a quadratic translation paired with the matching reparametrization
    # admits a constant-ether witness even though neither piece does alone
    d = 3
    X = time_translation(d, 2) + translation(d, 1, 2)
    w = solver.lightlike_gauge_witness(X)
    assert w is not None
    base = flat_galilei(d)
    f, g = conformal_factors(X, base.gamma, base.theta)
    assert all(r.is_zero() for r in cnc_system_residuals(X, f, g, w.observer, w.coriolis))
    assert w.observer.U[1] == Poly.const(d, 1)


# ---------------------------------------------------------------------------
# NC-Milne family
# ---------------------------------------------------------------------------


def test_cmil_branch_dimensions():
    c1, c2 = (solve("cmil", 3, branch=branch) for branch in ("c1", "c2"))
    assert c1.dim == 16
    assert c2.dim == 13
    c1_d2 = solve("cmil", 2)
    assert c1_d2.dim == 11  # 1 + 6 + 4


def test_cmil_c2_is_expanded_timelike_algebra():
    c2 = solve("cmil", 3, branch="c2")
    sch = solve("sch-expanded", 3)
    assert span_equal(c2.generators, sch.generators)


def test_cmil_raw_space_strictly_contains_branches():
    raw = solve("cmil-raw", 3)
    assert len(raw) == 17
    c1, c2 = (solve("cmil", 3, branch=branch) for branch in ("c1", "c2"))
    assert span_contains(raw, c1.generators)
    assert span_contains(raw, c2.generators)
    union = c1.generators + c2.generators
    assert not span_contains(union, raw) or len(raw) > 16  # strictly larger as a set
    # a pure quadratic time reparametrization solves the relaxed system
    # but belongs to neither branch
    stray = time_translation(3, 2)
    assert span_contains(raw, [stray])
    assert not span_contains(c1.generators, [stray])
    assert not span_contains(c2.generators, [stray])


def test_cmil_branches_closed_and_maximal():
    c1, c2 = (solve("cmil", 3, branch=branch) for branch in ("c1", "c2"))
    assert closure_check(c1.generators).closed
    assert closure_check(c2.generators).closed
    # the raw space grows with its time bound (17, 21, 25 elements); the
    # branches stay maximal closed subalgebras above the bound they were
    # solved at
    for nt, size in ((2, 17), (3, 21), (4, 25)):
        raw = solve("cmil-raw", 3, deg_t=nt)
        assert len(raw) == size
        grown = bracket_closure_grow(c1.generators, raw)
        assert span_equal(grown, c1.generators)
        grown = bracket_closure_grow(c2.generators, raw)
        assert span_equal(grown, c2.generators)


def test_closure_grows_a_time_translation_to_a_maximal_closed_set():
    sch = solve("sch", 3)
    grown = bracket_closure_grow([time_translation(3)], sch.generators)
    named = dict(zip(sch.labels, sch.generators))
    expected = ["omega[1,2]", "beta[3]", "gamma[3]", "kappa", "lambda", "epsilon"]
    assert len(grown) == 6
    assert span_equal(grown, [named[label] for label in expected])
    assert closure_check(grown).closed
    # no single further direction of sch(3) keeps it closed
    for label, X in named.items():
        if label not in expected:
            assert not closure_check(grown + [X]).closed, label


def test_wrong_presentation_fails_the_span_proof(monkeypatch):
    # gal's presentation with a space dilation in place of the time translation
    monkeypatch.setattr(solver, "time_translation", lambda d, k=0: space_dilation(d))
    with pytest.raises(AssertionError, match="gal: presentation does not match the solved span"):
        solve("gal", 2)


def test_cmil_generator_ether_witnesses():
    ether = constant_observer(3, [Fraction(1, 2), 0, 0])
    c1 = solve("cmil", 3, ether=ether)
    base = flat_galilei(3)
    for label, X in zip(c1.labels, c1.generators):
        w = cmil_generator_ether(X)
        if label.startswith("alpha"):
            # accelerations satisfy the pointwise system only jointly with
            # the expansion generator (the closure constraint in action)
            assert w is None
            kappa = next(
                Y for lbl, Y in zip(c1.labels, c1.generators) if lbl == "kappa"
            )
            combined = kappa + X
            w2 = cmil_generator_ether(combined)
            assert w2 is not None
            f, g = conformal_factors(combined, base.gamma, base.theta)
            assert all(r.is_zero() for r in cnc_system_residuals(combined, f, g, w2, TwoForm.zero(3)))
        else:
            assert w is not None
            f, g = conformal_factors(X, base.gamma, base.theta)
            assert all(r.is_zero() for r in cnc_system_residuals(X, f, g, w, TwoForm.zero(3)))


def test_cmil_kappa_generator_carries_the_given_ether():
    u = [Fraction(1, 2), Fraction(-1), Fraction(0)]
    ether = constant_observer(3, u)
    c1 = solve("cmil", 3, ether=ether)
    kappa = next(X for lbl, X in zip(c1.labels, c1.generators) if lbl == "kappa")
    w = cmil_generator_ether(kappa)
    assert w is not None
    assert [w.U[A] for A in range(1, 4)] == [Poly.const(3, v) for v in u]


def test_cmil_rejects_nonconstant_ether():
    from ncsym.geometry import Observer

    bad = Observer(
        VectorField(3, [Poly.const(3, 1), Poly.t(3), Poly.zero(3), Poly.zero(3)])
    )
    with pytest.raises(ValueError):
        solve("cmil", 3, ether=bad)


# Verdict and observer (U^1, U^2, U^3) of the two observer searches on
# each generator and on each sum of neighbours in label order, pinned
# from the case-analysis searches that the bounded solve replaced: None
# means no observer, REST the rest observer.
REST = ("0", "0", "0")

CNC_WITNESSES = {
    "omega[1,2]": REST,
    "omega[1,2] + omega[1,3]": REST,
    "omega[1,3]": REST,
    "omega[1,3] + omega[2,3]": REST,
    "omega[2,3]": REST,
    "omega[2,3] + omega[1,2]*t^1": None,
    "omega[1,2]*t^1": None,
    "omega[1,2]*t^1 + omega[1,3]*t^1": None,
    "omega[1,3]*t^1": None,
    "omega[1,3]*t^1 + omega[2,3]*t^1": None,
    "omega[2,3]*t^1": None,
    "omega[2,3]*t^1 + omega[1,2]*t^2": None,
    "omega[1,2]*t^2": None,
    "omega[1,2]*t^2 + omega[1,3]*t^2": None,
    "omega[1,3]*t^2": None,
    "omega[1,3]*t^2 + omega[2,3]*t^2": None,
    "omega[2,3]*t^2": None,
    "omega[2,3]*t^2 + dil": None,
    "dil": REST,
    "dil + dil*t^1": REST,
    "dil*t^1": REST,
    "dil*t^1 + dil*t^2": None,
    "dil*t^2": None,
    "dil*t^2 + eta[1]": None,
    "eta[1]": REST,
    "eta[1] + eta[2]": REST,
    "eta[2]": REST,
    "eta[2] + eta[3]": REST,
    "eta[3]": REST,
    "eta[3] + eta[1]*t^1": REST,
    "eta[1]*t^1": REST,
    "eta[1]*t^1 + eta[2]*t^1": REST,
    "eta[2]*t^1": REST,
    "eta[2]*t^1 + eta[3]*t^1": REST,
    "eta[3]*t^1": REST,
    "eta[3]*t^1 + eta[1]*t^2": None,
    "eta[1]*t^2": None,
    "eta[1]*t^2 + eta[2]*t^2": None,
    "eta[2]*t^2": None,
    "eta[2]*t^2 + eta[3]*t^2": None,
    "eta[3]*t^2": None,
    "eta[3]*t^2 + xi": None,
    "xi": REST,
    "xi + xi*t^1": REST,
    "xi*t^1": REST,
    "xi*t^1 + xi*t^2": REST,
    "xi*t^2": REST,
    # non-neighbour sums with a unique observer that is not the rest one
    "dil + eta[1]*t^2": ("-1*t", "0", "0"),
    "dil*t^1 + eta[2]*t^2": ("0", "-1", "0"),
    "eta[3]*t^2 + xi*t^1": ("0", "0", "2*t"),
    "eta[1]*t^2 + xi*t^2": ("1", "0", "0"),
}

CMIL_ETHERS = {
    ("rest", "c1"): {
        "omega[1,2]": REST,
        "omega[1,2] + omega[1,3]": REST,
        "omega[1,3]": REST,
        "omega[1,3] + omega[2,3]": REST,
        "omega[2,3]": REST,
        "omega[2,3] + alpha[1]": None,
        "alpha[1]": None,
        "alpha[1] + alpha[2]": None,
        "alpha[2]": None,
        "alpha[2] + alpha[3]": None,
        "alpha[3]": None,
        "alpha[3] + beta[1]": None,
        "beta[1]": REST,
        "beta[1] + beta[2]": REST,
        "beta[2]": REST,
        "beta[2] + beta[3]": REST,
        "beta[3]": REST,
        "beta[3] + gamma[1]": REST,
        "gamma[1]": REST,
        "gamma[1] + gamma[2]": REST,
        "gamma[2]": REST,
        "gamma[2] + gamma[3]": REST,
        "gamma[3]": REST,
        "gamma[3] + kappa": REST,
        "kappa": REST,
        "kappa + lambda": REST,
        "lambda": REST,
        "lambda + mu": REST,
        "mu": REST,
        "mu + epsilon": REST,
        "epsilon": REST,
    },
    ("rest", "c2"): {
        "omega[1,2]": REST,
        "omega[1,2] + omega[1,3]": REST,
        "omega[1,3]": REST,
        "omega[1,3] + omega[2,3]": REST,
        "omega[2,3]": REST,
        "omega[2,3] + beta[1]": REST,
        "beta[1]": REST,
        "beta[1] + beta[2]": REST,
        "beta[2]": REST,
        "beta[2] + beta[3]": REST,
        "beta[3]": REST,
        "beta[3] + gamma[1]": REST,
        "gamma[1]": REST,
        "gamma[1] + gamma[2]": REST,
        "gamma[2]": REST,
        "gamma[2] + gamma[3]": REST,
        "gamma[3]": REST,
        "gamma[3] + kappa": REST,
        "kappa": REST,
        "kappa + mu": REST,
        "mu": REST,
        "mu + lambda": REST,
        "lambda": REST,
        "lambda + epsilon": REST,
        "epsilon": REST,
    },
    ("u1=1/2", "c1"): {
        "omega[1,2]": REST,
        "omega[1,2] + omega[1,3]": REST,
        "omega[1,3]": REST,
        "omega[1,3] + omega[2,3]": REST,
        "omega[2,3]": REST,
        "omega[2,3] + alpha[1]": None,
        "alpha[1]": None,
        "alpha[1] + alpha[2]": None,
        "alpha[2]": None,
        "alpha[2] + alpha[3]": None,
        "alpha[3]": None,
        "alpha[3] + beta[1]": None,
        "beta[1]": REST,
        "beta[1] + beta[2]": REST,
        "beta[2]": REST,
        "beta[2] + beta[3]": REST,
        "beta[3]": REST,
        "beta[3] + gamma[1]": REST,
        "gamma[1]": REST,
        "gamma[1] + gamma[2]": REST,
        "gamma[2]": REST,
        "gamma[2] + gamma[3]": REST,
        "gamma[3]": REST,
        "gamma[3] + kappa": ("1/2", "0", "0"),
        "kappa": ("1/2", "0", "0"),
        "kappa + lambda": ("1/2", "0", "0"),
        "lambda": REST,
        "lambda + mu": REST,
        "mu": REST,
        "mu + epsilon": REST,
        "epsilon": REST,
    },
    ("u1=1/2", "c2"): {
        "omega[1,2]": REST,
        "omega[1,2] + omega[1,3]": REST,
        "omega[1,3]": REST,
        "omega[1,3] + omega[2,3]": REST,
        "omega[2,3]": REST,
        "omega[2,3] + beta[1]": REST,
        "beta[1]": REST,
        "beta[1] + beta[2]": REST,
        "beta[2]": REST,
        "beta[2] + beta[3]": REST,
        "beta[3]": REST,
        "beta[3] + gamma[1]": REST,
        "gamma[1]": REST,
        "gamma[1] + gamma[2]": REST,
        "gamma[2]": REST,
        "gamma[2] + gamma[3]": REST,
        "gamma[3]": REST,
        "gamma[3] + kappa": REST,
        "kappa": REST,
        "kappa + mu": REST,
        "mu": REST,
        "mu + lambda": REST,
        "lambda": REST,
        "lambda + epsilon": REST,
        "epsilon": REST,
    },
}


def _sum_of(named: dict, key: str) -> VectorField:
    first, *rest = [named[label] for label in key.split(" + ")]
    return sum(rest, first)


def _neighbour_keys(labels: list) -> list:
    return labels + [f"{a} + {b}" for a, b in zip(labels, labels[1:])]


def _velocity(U) -> tuple | None:
    return None if U is None else tuple(repr(U[A]) for A in range(1, U.dim + 1))


def test_cnc_witness_table():
    basis = solve("cnc", 3, deg_t=2)
    witnesses = [lightlike_gauge_witness(X) for X in basis.generators]
    assert set(_neighbour_keys(basis.labels)) <= set(CNC_WITNESSES)
    assert [_velocity(w and w.observer.U) for w in witnesses] == [
        CNC_WITNESSES[label] for label in basis.labels
    ]
    named = dict(zip(basis.labels, basis.generators))
    for key, expected in CNC_WITNESSES.items():
        w = solver.lightlike_gauge_witness(_sum_of(named, key))
        assert _velocity(w and w.observer.U) == expected, key
        if w is not None:
            # F is the Coriolis form of U: F_0A = d_t U^A, no spatial part
            U = w.observer.U
            F = TwoForm.from_upper(3, {(0, A): U[A].differentiate(0) for A in range(1, 4)})
            assert w.coriolis.comp == F.comp, key


def test_cmil_ether_table():
    ethers = {"rest": None, "u1=1/2": constant_observer(3, [Fraction(1, 2), 0, 0])}
    for name, ether in ethers.items():
        for branch in ("c1", "c2"):
            basis = solve("cmil", 3, ether=ether, branch=branch)
            table = CMIL_ETHERS[name, branch]
            assert set(_neighbour_keys(basis.labels)) == set(table)
            named = dict(zip(basis.labels, basis.generators))
            for key, expected in table.items():
                w = cmil_generator_ether(_sum_of(named, key))
                assert _velocity(w and w.U) == expected, key


def test_cga_restriction_dimensions():
    c1 = solve("cmil", 3)
    assert solve("cga", c1.d, c1, z=Fraction(1)).dim == 15
    assert solve("cga", c1.d, c1, z=Fraction(3)).dim == 14
    assert solve("cga", c1.d, c1, z=INF).dim == 14
    c1_d2 = solve("cmil", 2)
    assert solve("cga", c1_d2.d, c1_d2, z=Fraction(1)).dim == 10


def test_cga_generator_shapes():
    cga = solve("cga", 3)
    d = 3
    # time component of the expansion is t^2/2, acceleration is -t^2/2 d_A
    kappa = next(X for lbl, X in zip(cga.labels, cga.generators) if lbl == "kappa")
    assert kappa[0] == Poly.t(d) * Poly.t(d) * Fraction(1, 2)
    alpha1 = next(X for lbl, X in zip(cga.labels, cga.generators) if lbl == "alpha[1]")
    assert alpha1[1] == Poly.t(d) * Poly.t(d) * Fraction(-1, 2)
    lam = next(X for lbl, X in zip(cga.labels, cga.generators) if lbl == "lambda")
    assert lam[0] == Poly.t(d)
    assert lam[1] == Poly.x(d, 1)
    assert span_contains(solve("cmil", 3).generators, cga.generators)


# ---------------------------------------------------------------------------
# structure constants and closure
# ---------------------------------------------------------------------------


def test_structure_constants_sl2_block():
    sch = solve("sch", 3)
    sc = structure_constants(sch)
    labels = sch.labels
    iH = labels.index("epsilon")
    iD = labels.index("lambda")
    iK = labels.index("kappa")
    # [D,H] = -2H, [D,K] = 2K, [K,H] = -D
    assert sc.c[iD, iH] == {iH: Fraction(-2)}
    assert sc.c[iD, iK] == {iK: Fraction(2)}
    assert sc.c[iK, iH] == {iD: Fraction(-1)}


def test_structure_constants_abelian_pair():
    fields = [translation(3, 1), translation(3, 2)]
    sc = structure_constants(fields)
    assert sc.c == {}


def test_cga_acceleration_bracket():
    cga = solve("cga", 3)
    sc = structure_constants(cga)
    labels = cga.labels
    ia = labels.index("alpha[1]")
    ie = labels.index("epsilon")
    ib = labels.index("beta[1]")
    # [acceleration, time translation] = boost along the same axis
    assert sc.c[ia, ie] == {ib: Fraction(1)}


def test_antisymmetry_and_jacobi_flags():
    sc = structure_constants(solve("sch", 2))
    assert sc.antisymmetry_ok()
    assert sc.jacobi_ok()


def test_antisymmetry_flag_fails_without_the_reversed_bracket():
    # [X_0, X_1] = X_0 with no entry for [X_1, X_0]
    assert not StructureConstants(2, {(0, 1): {0: Fraction(1)}}).antisymmetry_ok()
    # [X_0, X_0] = X_1 is its own reverse but not zero
    assert not StructureConstants(2, {(0, 0): {1: Fraction(1)}}).antisymmetry_ok()


def test_jacobi_flag_fails_on_antisymmetric_constants():
    # [X_0, X_1] = X_2, [X_0, X_2] = X_0: the Jacobi sum of (0, 1, 2) is -X_2
    sc = StructureConstants(3, {
        (0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)},
        (0, 2): {0: Fraction(1)}, (2, 0): {0: Fraction(-1)},
    })
    assert sc.antisymmetry_ok()
    assert not sc.jacobi_ok()


def test_not_closed_error_carries_witness():
    # the two expansion conventions bracket to a quadratic dilation that
    # neither spans; mixing them breaks closure
    mixed = [sch_expansion(3), cga_expansion(3)]
    with pytest.raises(NotClosedError) as err:
        structure_constants(mixed)
    assert err.value.pair in {(0, 1), (1, 0)}
    assert not vanishes(err.value.residual)


def test_mixed_dilation_conventions_span_check():
    # [t dt + x.d, t^2 dt + t x.d] lands back on the expansion itself,
    # so that particular pair closes; the certificate proves it
    report = closure_check([time_translation(3, 1) + space_dilation(3), sch_expansion(3)])
    assert report.closed


def test_closure_check_counterexample_and_certificate():
    assert closure_check([sch_expansion(3)]).closed  # [X, X] = 0
    assert closure_check(solve("sch", 3).generators).closed
    report = closure_check([sch_expansion(3), cga_expansion(3)])
    assert not report.closed
    i, j, residual = report.witness
    assert not vanishes(residual)


# ---------------------------------------------------------------------------
# polynomial families at fixed exponent
# ---------------------------------------------------------------------------


def test_alt_dimensions():
    for d in (2, 3):
        for N in (1, 2, 3):
            expect = d * (d - 1) // 2 + 3 + (N + 1) * d
            basis = solve("alt", d, N=N)
            assert basis.dim == expect
            structure_constants(basis)  # raises NotClosedError unless it closes


def test_alt_recovers_projective_families():
    a1 = solve("alt", 2, N=1)
    sch2 = solve("sch", 2, solve("sch-expanded", 2), z=Fraction(2))
    assert span_equal(a1.generators, sch2.generators)
    a2 = solve("alt", 2, N=2)
    c1 = solve("cmil", 2)
    cga = solve("cga", c1.d, c1, z=Fraction(1))
    assert span_equal(a2.generators, cga.generators)


def test_alt_closure_scan_only_at_matching_exponent():
    grid = [Fraction(2), Fraction(1), Fraction(2, 3), Fraction(1, 2),
            Fraction(3, 2), Fraction(3), Fraction(2, 5)]
    for N in (1, 2, 3, 4):
        verdicts = alt_closure_scan(2, N, grid)
        for z in grid:
            assert verdicts[str(z)] == (z == Fraction(2, N))


def test_alt_obstruction_coefficient():
    # bracket of the expansion with a top-degree translation leaves the
    # family unless N/2 - 1/z = 0
    for N in (1, 2, 3, 4):
        for z in (Fraction(2), Fraction(1), Fraction(2, 3), Fraction(1, 2)):
            coeff = alt_obstruction_coefficient(3, N, z)
            expect = Fraction(N, 2) - Fraction(1) / z
            assert coeff == expect
            assert (coeff == 0) == (z == Fraction(2, N))


def test_alt_candidate_at_infinite_exponent():
    # 1/z = 0: the expansion and mu carry no space dilation
    assert alt_obstruction_coefficient(2, 1, INF) == Fraction(1, 2)
    assert alt_closure_scan(2, 1, [INF, "2"]) == {"inf": False, "2": True}
    assert dict(solver.alt_candidate(2, 1, INF))["mu"] == time_translation(2, 1)


def test_alt_closure_certificate():
    a = solve("alt", 3, N=3)
    sc = structure_constants(a)
    assert sc.antisymmetry_ok() and sc.jacobi_ok()


def test_a_slice_presents_only_itself(monkeypatch):
    # a slice restricts its parent's raw span, which spans what the parent's
    # presentation would: cga restricts cmil c1's, sch sch-expanded's
    presented = []
    real = solver._presented

    def spy(family, *args, **kwargs):
        presented.append(family)
        return real(family, *args, **kwargs)

    monkeypatch.setattr(solver, "_presented", spy)
    assert solve("cga", 3).dim == 15
    assert solve("sch", 3).dim == 12
    assert presented == ["cga", "sch"]


def test_alt_off_its_exponent_is_refused(monkeypatch, capsys):
    # at z = 1 the N = 1 candidate still presents its solved span, but its
    # brackets leave it: the library and the CLI both refuse the family
    monkeypatch.setattr(solver.FAMILIES["alt"], "exponent", lambda q: Fraction(1))
    basis = solve("alt", 3, N=1)
    assert (basis.dim, basis.z) == (12, Fraction(1))
    assert not closure_check(basis.generators).closed
    with pytest.raises(NotClosedError, match="leaves the span"):
        structure_constants(basis)
    for command in ("solve", "bracket-table"):
        assert main([command, "--family", "alt", "--d", "3", "--N", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: bracket of generators \d+, \d+ leaves the span\n", err)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_roundtrip():
    sch = solve("sch", 3)
    sc = structure_constants(sch)
    rep = sch.to_report(sc)
    assert rep["dim"] == 12
    assert rep["z"] == "2"
    assert len(rep["generators"]) == 12


def test_dimension_formulas_hold_at_d4():
    d = 4
    expanded = solve("sch-expanded", d)
    assert expanded.dim == d * (d - 1) // 2 + 2 * d + 4  # 18
    sch = solve("sch", expanded.d, expanded, z=Fraction(2))
    assert sch.dim == d * (d - 1) // 2 + 2 * d + 3  # 17
    assert solve("gal", d).dim == d * (d - 1) // 2 + 2 * d + 1  # 15
    c1, c2 = (solve("cmil", d, branch=branch) for branch in ("c1", "c2"))
    assert c1.dim == d * (d - 1) // 2 + 3 * d + 4  # 22
    assert c2.dim == expanded.dim
    assert solve("cga", c1.d, c1, z=Fraction(1)).dim == d * (d - 1) // 2 + 3 * d + 3  # 21
    alt = solve("alt", d, N=2)
    assert alt.dim == d * (d - 1) // 2 + 3 + 3 * d  # 21
    structure_constants(alt)  # raises NotClosedError unless it closes


# ---------------------------------------------------------------------------
# conformal factors
# ---------------------------------------------------------------------------


def test_factors_equal_conformal_factors():
    c1, c2 = (solve("cmil", 3, branch=branch) for branch in ("c1", "c2"))
    families = [
        solve("cgal", 2, deg_t=2), solve("cgal-z", 3, z=Fraction(3, 2), deg_t=1),
        solve("cgal-z", 3, z=INF, deg_t=1),
        solve("gal", 3), solve("sch-expanded", 3), solve("sch", 3), solve("cnc", 3, deg_t=1),
        c1, c2, solve("cga", 3), solve("alt", 3, N=2),
    ]
    for basis in families:
        base = flat_galilei(basis.d)
        assert len(basis.factors) == basis.dim
        for X, (f, g) in zip(basis.generators, basis.factors):
            assert conformal_factors(X, base.gamma, base.theta) == (f, g), basis.family
            # the closed forms f = -(2/d) div X, g = d_t X^0 of a conformal field
            assert (solver.trace_factor(X), solver.time_factor(X)) == (f, g), basis.family


def test_presented_rejects_a_field_that_is_not_conformal():
    stretch = solver._unit_field(3, 1, [0, 1, 0, 0])  # x^1 d_1 alone
    assert conformal_factors(stretch, flat_galilei(3).gamma, flat_galilei(3).theta) is None
    with pytest.raises(AssertionError, match="not a conformal field"):
        solver._presented("stretch", 3, [stretch], [("s", stretch)])


def test_a_shear_has_no_conformal_factors():
    shear = solver._unit_field(3, 2, [0, 1, 0, 0])  # x^1 d_2
    assert AlgebraBasis("shear", 3, [shear], ["s"]).factors == [None]


def test_the_spatial_bound_truncates_cgal_at_d2_only(monkeypatch):
    # at d = 2 a larger spatial bound admits holomorphic fields of degree 3,
    # which the presentation lacks; at d = 3, and for cgal-z, it adds none
    monkeypatch.setattr(solver, "SPATIAL_DEGREE", 3)
    assert solve("cgal", 3, deg_t=1).dim == 22
    assert solve("cgal-z", 2, z=Fraction(3, 2), deg_t=1).dim == 8
    with pytest.raises(AssertionError, match="cgal: presentation does not match"):
        solve("cgal", 2, deg_t=1)


def test_a_request_rejects_an_option_the_family_does_not_read():
    with pytest.raises(TypeError, match="gal does not read z"):
        solve("gal", 2, z=Fraction(2))
    with pytest.raises(TypeError, match="cmil does not read deg_t"):
        solve("cmil", 2, deg_t=3)
    # only the cmil c1 presentation reads an ether
    ether = constant_observer(2, [Fraction(1, 2), 0])
    for family in ("gal", "sch", "alt", "cga", "cmil-raw"):
        with pytest.raises(TypeError, match=f"^{family} does not read ether$"):
            solve(family, 2, ether=ether)


@pytest.mark.parametrize("family, d, given, option", [
    ("gal", 3.0, {}, "d"),
    ("gal", True, {}, "d"),
    ("cgal", 2, {"deg_t": 1.5}, "deg_t"),
    ("cnc", 2, {"deg_t": False}, "deg_t"),
    ("alt", 2, {"N": True}, "N"),
    ("alt", 2, {"N": "1"}, "N"),
])
def test_a_request_rejects_a_count_that_is_not_an_int(family, d, given, option):
    with pytest.raises(TypeError, match=f"^{option} must be an int, got "):
        solve(family, d, **given)


def test_an_ether_of_another_dimension_is_refused():
    for ether_d, d in ((2, 3), (3, 2)):
        ether = constant_observer(ether_d, [Fraction(1, 2)] + [0] * (ether_d - 1))
        with pytest.raises(ValueError, match=f"ether has dimension {ether_d}, need d = {d}"):
            solve("cmil", d, ether=ether)


def test_a_parent_of_another_dimension_is_refused():
    # refused before the restriction is solved, never blamed on a presentation
    expanded = solve("sch-expanded", 2)
    for parent in (expanded, expanded.generators):
        with pytest.raises(ValueError, match="parent fields have dimension 2, need d = 3"):
            solve("sch", 3, parent)
