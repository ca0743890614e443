from fractions import Fraction

import pytest

from ncsym.geometry import (
    GalileiStructure,
    NCStructure,
    Observer,
    connection_from_observer,
    constant_observer,
    coriolis_from_observer,
    covariant_derivative_gamma,
    covariant_derivative_theta,
    flat_galilei,
    flat_structure,
    milne_boost,
    newtonian_connection,
    observer_cometric,
    rest_observer,
    vary_connection,
)
from ncsym.lie import (
    Connection,
    OneForm,
    SymTensor2Up,
    TwoForm,
    VectorField,
    exterior_derivative_one_form,
)
from ncsym.poly import Poly

from conftest import random_poly, vanishes


def _rand_one_form(rng, d, deg=2):
    return OneForm(d, [random_poly(rng, d, max_degree=deg, terms=3) for _ in range(d + 1)])


def _closed_two_form(rng, d, deg=2):
    return exterior_derivative_one_form(_rand_one_form(rng, d, deg))


def _connections_equal(a: Connection, b: Connection) -> bool:
    n = a.dim + 1
    return all(a[c, i, j] == b[c, i, j] for c in range(n) for i in range(n) for j in range(n))


def test_flat_structure_d3():
    nc = flat_structure(3)
    one = Poly.const(3, 1)
    for a in range(4):
        for b in range(4):
            expect = one if (a == b and a >= 1) else Poly.zero(3)
            assert nc.base.gamma[a, b] == expect
    assert nc.base.theta[0] == one
    assert vanishes(nc.connection)


def test_flat_structure_rejects_low_dimension():
    with pytest.raises(ValueError):
        flat_structure(1)


def test_is_flat_chart_compares_with_flat_galilei():
    assert flat_galilei(3).is_flat_chart()
    # flat_galilei starts at d = 2, so a hand-built d = 1 pair is not on its chart
    z1, one1 = Poly.zero(1), Poly.const(1, 1)
    line = GalileiStructure(1, SymTensor2Up(1, [[z1, z1], [z1, one1]]), OneForm(1, [one1, z1]))
    assert line.is_flat_chart() is False


def test_kernel_invariant_checked():
    d = 2
    one = Poly.const(d, 1)
    bad_gamma = SymTensor2Up(d, [[one if a == b else Poly.zero(d) for b in range(3)] for a in range(3)])
    theta = OneForm(d, [one, Poly.zero(d), Poly.zero(d)])
    with pytest.raises(ValueError):
        GalileiStructure(d, bad_gamma, theta)


def test_compatibility_invariant_enforced():
    d = 2
    base = flat_galilei(d)
    bad = [[[Poly.zero(d)] * 3 for _ in range(3)] for _ in range(3)]
    bad[0][1][1] = Poly.const(d, 1)  # time component breaks nabla theta = 0
    with pytest.raises(ValueError):
        NCStructure(base, Connection(d, bad))


def test_a_connection_that_moves_gamma_is_refused():
    d = 2
    base = flat_galilei(d)
    bad = [[[Poly.zero(d)] * 3 for _ in range(3)] for _ in range(3)]
    # nabla_1 gamma^12 = Gamma^1_12 gamma^22 = 1, while theta stays parallel
    bad[1][1][2] = bad[1][2][1] = Poly.const(d, 1)
    with pytest.raises(ValueError, match="does not parallel-transport gamma"):
        NCStructure(base, Connection(d, bad))


def test_newtonian_connection_component():
    d = 3
    V = Poly.x(d, 1) * Poly.x(d, 1) * Fraction(1, 2)
    nc = newtonian_connection(d, V)
    assert nc.connection[1, 0, 0] == Poly.x(d, 1)
    others = [
        (c, a, b)
        for c in range(4)
        for a in range(4)
        for b in range(4)
        if not nc.connection[c, a, b].is_zero()
    ]
    assert others == [(1, 0, 0)]


def test_rotating_frame_connection_components():
    # A = -V dt + omega_BC x^B dx^C with constant rotation in the (1,2) plane
    d = 3
    V = Poly.x(d, 1) ** 2 + Poly.x(d, 2) ** 2
    w = Fraction(2)
    A = OneForm(d, [-V, Poly.x(d, 2) * (-w), Poly.x(d, 1) * w, Poly.zero(d)])
    F = exterior_derivative_one_form(A)
    nc = connection_from_observer(flat_galilei(d), rest_observer(d), F)
    # Gamma^A_00 = d_A V and Gamma^A_B0 = -omega^A_B
    assert nc.connection[1, 0, 0] == V.differentiate(1)
    assert nc.connection[2, 0, 0] == V.differentiate(2)
    assert nc.connection[1, 2, 0] == Poly.const(d, -w)
    assert nc.connection[2, 1, 0] == Poly.const(d, w)


def test_connection_trivial_gauge():
    d = 3
    nc = connection_from_observer(flat_galilei(d), rest_observer(d), TwoForm.zero(d))
    assert vanishes(nc.connection)


def test_connection_rejects_open_two_form():
    d = 3
    F = TwoForm.from_upper(d, {(1, 2): Poly.t(d)})
    with pytest.raises(ValueError):
        connection_from_observer(flat_galilei(d), rest_observer(d), F)


def test_connection_rejects_a_two_form_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        connection_from_observer(flat_galilei(3), rest_observer(3), TwoForm.zero(2))


def test_compatibility_for_random_gauge_pairs(rng):
    d = 3
    base = flat_galilei(d)
    for _ in range(4):
        U = Observer(VectorField(d, [Poly.const(d, 1)] + [random_poly(rng, d, 2, 3) for _ in range(d)]))
        F = _closed_two_form(rng, d)
        nc = connection_from_observer(base, U, F)
        for c in range(4):
            for a in range(4):
                for b in range(4):
                    assert covariant_derivative_gamma(nc.connection, base.gamma, c, a, b).is_zero()
                    assert covariant_derivative_theta(nc.connection, base.theta, a, b).is_zero()


def test_milne_boost_identity():
    d = 3
    base = flat_galilei(d)
    U, F = rest_observer(d), TwoForm.zero(d)
    U2, F2 = milne_boost(base, U, F, OneForm.zero(d))
    assert U2.U == U.U and vanishes(F2)


def test_milne_boost_constant_boost():
    d = 3
    base = flat_galilei(d)
    psi = OneForm(d, [Poly.zero(d), Poly.const(d, 2), Poly.const(d, -1), Poly.zero(d)])
    U2, F2 = milne_boost(base, rest_observer(d), TwoForm.zero(d), psi)
    assert U2.U[1] == Poly.const(d, 2) and U2.U[2] == Poly.const(d, -1)
    assert vanishes(F2)
    nc_a = connection_from_observer(base, rest_observer(d), TwoForm.zero(d))
    nc_b = connection_from_observer(base, U2, F2)
    assert _connections_equal(nc_a.connection, nc_b.connection)


def test_milne_gauge_invariance_random(rng):
    d = 3
    base = flat_galilei(d)
    for _ in range(3):
        U = Observer(VectorField(d, [Poly.const(d, 1)] + [random_poly(rng, d, 1, 2) for _ in range(d)]))
        F = _closed_two_form(rng, d)
        psi = _rand_one_form(rng, d, 2)
        nc_a = connection_from_observer(base, U, F)
        U2, F2 = milne_boost(base, U, F, psi)
        nc_b = connection_from_observer(base, U2, F2)
        assert _connections_equal(nc_a.connection, nc_b.connection)


def test_milne_infinitesimal_consistency(rng):
    # expanding the boost in eps: dU = gamma(psi) exactly (linear),
    # dF linear part equals d(psi - psi(U) theta)
    d = 3
    base = flat_galilei(d)
    U = Observer(VectorField(d, [Poly.const(d, 1)] + [random_poly(rng, d, 1, 2) for _ in range(d)]))
    F = _closed_two_form(rng, d)
    psi = _rand_one_form(rng, d, 2)

    def boosted(eps):
        scaled = OneForm(d, [psi[a] * eps for a in range(d + 1)])
        return milne_boost(base, U, F, scaled)

    U1, F1 = boosted(Fraction(1))
    U2, F2 = boosted(Fraction(2))
    # observer change is linear in psi
    for a in range(d + 1):
        gamma_psi = Poly.zero(d)
        for b in range(d + 1):
            gamma_psi = gamma_psi + base.gamma[a, b] * psi[b]
        assert U1.U[a] - U.U[a] == gamma_psi
        assert U2.U[a] - U.U[a] == gamma_psi * 2
    # linear part of the two-form change: (4 (F1 - F) - (F2 - F)) / 2
    lin = [
        [(f1 * 4 - f2 - f * 3) * Fraction(1, 2) for f, f1, f2 in zip(*rows)]
        for rows in zip(F.comp, F1.comp, F2.comp)
    ]
    pairing = psi.pair(U.U)
    phi = OneForm(d, [psi[a] - pairing * base.theta[a] for a in range(d + 1)])
    assert lin == exterior_derivative_one_form(phi).comp


def test_coriolis_examples():
    d = 3
    flat = flat_structure(d)
    assert vanishes(coriolis_from_observer(flat, rest_observer(d)))
    assert vanishes(coriolis_from_observer(flat, constant_observer(d, [1, 2, 3])))
    U = Observer(VectorField(d, [Poly.const(d, 1), Poly.t(d), Poly.zero(d), Poly.zero(d)]))
    F = coriolis_from_observer(flat, U)
    assert F[0, 1] == Poly.const(d, 1)
    assert F[1, 2].is_zero() and F[1, 3].is_zero() and F[2, 3].is_zero()


def test_coriolis_round_trip(rng):
    d = 3
    base = flat_galilei(d)
    for _ in range(3):
        U = Observer(VectorField(d, [Poly.const(d, 1)] + [random_poly(rng, d, 2, 3) for _ in range(d)]))
        F = _closed_two_form(rng, d)
        nc = connection_from_observer(base, U, F)
        back = coriolis_from_observer(nc, U)
        assert vanishes(back - F)


def test_observer_cometric_conditions(rng):
    d = 3
    base = flat_galilei(d)
    U = Observer(VectorField(d, [Poly.const(d, 1)] + [random_poly(rng, d, 2, 2) for _ in range(d)]))
    ug = observer_cometric(base, U)  # raises internally if conditions fail
    assert ug[1][1] == Poly.const(d, 1)
    assert ug[0][1] == -U.U[1]


def _flat_gamma_with_clock(d, theta_0, monkeypatch):
    """The flat gamma with theta = theta_0 dt, passed off as the flat chart."""
    zero = Poly.zero(d)
    theta = OneForm(d, [Poly.const(d, theta_0)] + [zero] * d)
    monkeypatch.setattr(GalileiStructure, "is_flat_chart", lambda self: True)
    return GalileiStructure(d, flat_galilei(d).gamma, theta)


def test_observer_cometric_refuses_a_failed_projector(monkeypatch):
    # theta(U) = 2 for the rest observer, so delta - U theta fails at (0, 0)
    base = _flat_gamma_with_clock(2, 2, monkeypatch)
    with pytest.raises(AssertionError, match="projector condition failed"):
        observer_cometric(base, rest_observer(2))


def test_observer_cometric_refuses_a_failed_transversality(monkeypatch):
    # theta = dt/2 and U = 2 d_t + d_1: theta(U) = 1, so the projector holds,
    # but the 00 entry, solved for U^0 = 1, leaves Ugam_0k U^k = 1/2
    d = 2
    base = _flat_gamma_with_clock(d, Fraction(1, 2), monkeypatch)
    obs = object.__new__(Observer)  # Observer itself insists on U^0 = 1
    obs.U = VectorField(d, [Poly.const(d, 2), Poly.const(d, 1), Poly.zero(d)])
    with pytest.raises(AssertionError, match="transversality failed"):
        observer_cometric(base, obs)


def test_vary_connection_zero():
    d = 3
    base = flat_galilei(d)
    out = vary_connection(base, rest_observer(d), TwoForm.zero(d), Poly.zero(d), Poly.zero(d))
    assert vanishes(out)


def test_vary_connection_timelike_branch():
    # f = -g pins the variation to g' delta^c_(a theta_b)
    d = 3
    base = flat_galilei(d)
    g = Poly.t(d) * 2
    f = -g
    out = vary_connection(base, rest_observer(d), TwoForm.zero(d), f, g)
    gp = g.differentiate(0)
    half = Fraction(1, 2)
    for c in range(4):
        for a in range(4):
            for b in range(4):
                expect = Poly.zero(d)
                if c == a:
                    expect = expect + gp * base.theta[b] * half
                if c == b:
                    expect = expect + gp * base.theta[a] * half
                assert out[c, a, b] == expect


def _lightlike_form(base, obs, F, f, g):
    """-f' delta^c_(a theta_b) + (f'+g') U^c theta_a theta_b
    + (f+g) gamma^ck theta_(a F_b)k, for f and g functions of t."""
    d = base.dim
    n = d + 1
    half = Fraction(1, 2)
    fp = f.differentiate(0)
    fgp = (f + g).differentiate(0)
    out = {}
    for c in range(n):
        for a in range(n):
            for b in range(n):
                val = fgp * obs.U[c] * base.theta[a] * base.theta[b]
                if c == a:
                    val = val - fp * base.theta[b] * half
                if c == b:
                    val = val - fp * base.theta[a] * half
                for k in range(n):
                    val = val + (f + g) * base.gamma[c, k] * (
                        base.theta[a] * F[b, k] + base.theta[b] * F[a, k]
                    ) * half
                out[(c, a, b)] = val
    return out


def test_vary_connection_lightlike_branch():
    # f' + g' = 0 leaves -f' delta^c_(a theta_b), the paper's lightlike form
    d = 3
    base = flat_galilei(d)
    f = Poly.t(d) * 3
    g = Poly.t(d) * (-3) + Poly.const(d, 1)
    U = rest_observer(d)
    out = vary_connection(base, U, TwoForm.zero(d), f, g)
    fp = f.differentiate(0)
    half = Fraction(1, 2)
    for c in range(4):
        for a in range(4):
            for b in range(4):
                expect = Poly.zero(d)
                if c == a:
                    expect = expect - fp * base.theta[b] * half
                if c == b:
                    expect = expect - fp * base.theta[a] * half
                assert out[c, a, b] == expect
    assert _lightlike_form(base, U, TwoForm.zero(d), f, g) == {
        (c, a, b): out[c, a, b] for c in range(4) for a in range(4) for b in range(4)
    }


def _random_time_poly(rng, d, degree=3):
    t = Poly.t(d)
    return sum(
        (t ** k * Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(degree + 1)),
        Poly.zero(d),
    )


def test_vary_connection_reduces_to_lightlike_form_for_time_factors(rng):
    # f = f(t), g = g(t): d_b f = f' theta_b and gamma^ck d_k f = 0 collapse
    # the general form onto the lightlike one, for any observer and closed F
    for d in (2, 3):
        base = flat_galilei(d)
        n = d + 1
        for _ in range(4):
            U = Observer(
                VectorField(d, [Poly.const(d, 1)] + [random_poly(rng, d, 2, 3) for _ in range(d)])
            )
            assert not all(p.is_constant() for p in U.U.components)
            F = _closed_two_form(rng, d)
            assert not vanishes(F)
            f, g = _random_time_poly(rng, d), _random_time_poly(rng, d)
            out = vary_connection(base, U, F, f, g)
            assert _lightlike_form(base, U, F, f, g) == {
                (c, a, b): out[c, a, b] for c in range(n) for a in range(n) for b in range(n)
            }


def test_vary_connection_rejects_a_non_flat_base():
    # theta = dt with gamma = diag(0, 2, 1, 1) is a Galilei pair off the flat chart
    d = 3
    z, one = Poly.zero(d), Poly.const(d, 1)
    diag = [z, Poly.const(d, 2), one, one]
    gamma = SymTensor2Up(d, [[diag[a] if a == b else z for b in range(4)] for a in range(4)])
    base = GalileiStructure(d, gamma, OneForm(d, [one, z, z, z]))
    t = Poly.t(d)
    with pytest.raises(ValueError):
        vary_connection(base, rest_observer(d), TwoForm.zero(d), t, t * t)


def test_vary_connection_rejects_spatial_g():
    d = 2
    base = flat_galilei(d)
    with pytest.raises(ValueError):
        vary_connection(base, rest_observer(d), TwoForm.zero(d), Poly.zero(d), Poly.x(d, 1))


def test_observer_must_be_unit():
    d = 2
    with pytest.raises(ValueError):
        Observer(VectorField(d, [Poly.const(d, 2), Poly.zero(d), Poly.zero(d)]))


def test_variation_formula_matches_lie_transport_timelike():
    # dual route: the four-term variation at a generator's (f, g) must
    # equal the Lie derivative of the flat connection along it
    from ncsym.lie import lie_derive_connection
    from ncsym.solver import solve_sch_expanded

    d = 3
    base = flat_galilei(d)
    basis = solve_sch_expanded(d)
    for X, (f, g) in zip(basis.generators, basis.factors):
        via_variation = vary_connection(base, rest_observer(d), TwoForm.zero(d), f, g)
        via_transport = lie_derive_connection(X, Connection.zero(d))
        assert vanishes(via_variation - via_transport)


def test_variation_formula_matches_lie_transport_lightlike():
    # same check on the lightlike family, using each generator's own
    # exact gauge witness where one exists
    from ncsym.lie import conformal_factors, lie_derive_connection
    from ncsym.solver import solve_cnc_flat

    d = 3
    base = flat_galilei(d)
    basis, witnesses = solve_cnc_flat(d, 2)
    checked = 0
    for X, w in zip(basis.generators, witnesses):
        if w is None:
            continue
        f, g = conformal_factors(X, base.gamma, base.theta)
        via_variation = vary_connection(base, w.observer, w.coriolis, f, g)
        via_transport = lie_derive_connection(X, Connection.zero(d))
        assert vanishes(via_variation - via_transport)
        checked += 1
    assert checked >= 14
