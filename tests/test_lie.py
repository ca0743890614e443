import pytest

from ncsym.geometry import flat_galilei
from ncsym.lie import (
    Connection,
    OneForm,
    SymTensor2Up,
    TwoForm,
    VectorField,
    canonical_lift,
    conformal_factors,
    exterior_derivative,
    exterior_derivative_one_form,
    lie_bracket,
    lie_derive_connection,
    lie_derive_gamma_theta_power,
    lie_derive_one_form,
    lie_derive_structure,
    lie_derive_two_form,
)
from ncsym.poly import Poly
from ncsym.solver import (
    sch_expansion,
    space_dilation,
    time_translation,
    rotation,
)

from conftest import random_poly, vanishes


def sch_dilation(d):
    """2t d_t + x.d: dilates time twice as much as space (z = 2)."""
    return time_translation(d, 1).scale(2) + space_dilation(d)


def cga_dilation(d):
    """t d_t + x.d: space and time at the same rate (z = 1)."""
    return time_translation(d, 1) + space_dilation(d)


def _random_field(rng, d, max_degree=3):
    return VectorField(d, [random_poly(rng, d, max_degree, terms=3) for _ in range(d + 1)])


def test_bracket_simple():
    d = 2
    H = time_translation(d)
    tH = time_translation(d, 1)
    assert lie_bracket(H, tH) == H


def test_bracket_dilation_expansion():
    # [2t dt + x.d, t^2 dt + t x.d] = 2 (t^2 dt + t x.d), by hand expansion
    d = 3
    D = sch_dilation(d)
    K = sch_expansion(d)
    assert lie_bracket(D, K) == K.scale(2)


def test_bracket_time_translation_expansion():
    d = 3
    H = time_translation(d)
    K = sch_expansion(d)
    assert lie_bracket(H, K) == sch_dilation(d)


def test_bracket_antisymmetric_and_jacobi(rng):
    d = 2
    for _ in range(12):
        X = _random_field(rng, d)
        Y = _random_field(rng, d)
        Z = _random_field(rng, d)
        assert lie_bracket(X, Y) == lie_bracket(Y, X).scale(-1)
        total = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        assert vanishes(total)


def test_lie_derive_structure_translation_isometry():
    d = 3
    base = flat_galilei(d)
    lg, lt = lie_derive_structure(time_translation(d), base.gamma, base.theta)
    assert vanishes(lg) and lt.is_zero()


def test_lie_derive_structure_dilation():
    d = 3
    base = flat_galilei(d)
    lg, lt = lie_derive_structure(sch_dilation(d), base.gamma, base.theta)
    assert lg.comp == [[v * -2 for v in row] for row in base.gamma.comp]
    assert [lt[a] for a in range(d + 1)] == [base.theta[a] * 2 for a in range(d + 1)]


def test_lie_derive_structure_expansion():
    d = 3
    base = flat_galilei(d)
    t = Poly.t(d)
    lg, lt = lie_derive_structure(sch_expansion(d), base.gamma, base.theta)
    assert lg.comp == [[v * (-2 * t) for v in row] for row in base.gamma.comp]
    assert [lt[a] for a in range(d + 1)] == [base.theta[a] * (2 * t) for a in range(d + 1)]


def test_conformal_factors_examples():
    d = 3
    base = flat_galilei(d)
    f, g = conformal_factors(sch_dilation(d), base.gamma, base.theta)
    assert f == Poly.const(d, -2) and g == Poly.const(d, 2)
    f, g = conformal_factors(rotation(d, 1, 2), base.gamma, base.theta)
    assert f.is_zero() and g.is_zero()
    stretch = VectorField(d, [Poly.zero(d), Poly.x(d, 1), Poly.zero(d), Poly.zero(d)])
    assert conformal_factors(stretch, base.gamma, base.theta) is None


def test_conformal_factors_refuse_a_clock_form_the_field_moves():
    # theta = dt + dx^1 with the flat gamma is no Galilei pair: a rotation
    # keeps gamma but moves theta by -dx^2, which is no multiple of theta
    d = 3
    base = flat_galilei(d)
    one, zero = Poly.const(d, 1), Poly.zero(d)
    theta = OneForm(d, [one, one, zero, zero])
    assert conformal_factors(rotation(d, 1, 2), base.gamma, theta) is None


def test_conformal_factors_refuse_a_clock_factor_that_depends_on_x():
    # the flat pair with tau = t + x^1 as its time: theta = d tau and gamma =
    # (d_1 - d_t)^2 + d_2^2 + d_3^2.  The expansion tau^2 d_tau + tau y.d_y of
    # that chart is conformal, with g = 2 tau depending on x^1
    d = 3
    one, zero = Poly.const(d, 1), Poly.zero(d)
    gamma = SymTensor2Up(d, [[one, -one, zero, zero], [-one, one, zero, zero],
                             [zero, zero, one, zero], [zero, zero, zero, one]])
    theta = OneForm(d, [one, one, zero, zero])
    t = Poly.t(d)
    tau = t + Poly.x(d, 1)
    X = VectorField(d, [tau * t] + [tau * Poly.x(d, A) for A in range(1, d + 1)])
    lg, lt = lie_derive_structure(X, gamma, theta)
    assert lg.comp == [[v * (-2 * tau) for v in row] for row in gamma.comp]
    assert [lt[a] for a in range(d + 1)] == [theta[a] * (2 * tau) for a in range(d + 1)]
    assert conformal_factors(X, gamma, theta) is None


def test_conformal_bracket_relation(rng):
    # f_[X,Y] = X f_Y - Y f_X on pairs of conformal generators
    d = 3
    base = flat_galilei(d)
    pool = [
        sch_dilation(d),
        sch_expansion(d),
        time_translation(d),
        rotation(d, 1, 2),
        space_dilation(d, 1),
        time_translation(d, 2),
    ]
    for X in pool:
        for Y in pool:
            fX, _ = conformal_factors(X, base.gamma, base.theta)
            fY, _ = conformal_factors(Y, base.gamma, base.theta)
            pair = conformal_factors(lie_bracket(X, Y), base.gamma, base.theta)
            assert pair is not None
            assert pair[0] == X.apply(fY) - Y.apply(fX)


def test_lie_derive_connection_flat_expansion():
    d = 3
    LK = lie_derive_connection(sch_expansion(d), Connection.zero(d))
    assert LK[0, 0, 0] == Poly.const(d, 2)
    for A in range(1, d + 1):
        assert LK[A, 0, A] == Poly.const(d, 1)
        assert LK[A, A, 0] == Poly.const(d, 1)
    nonzero = {(c, a, b) for c in range(4) for a in range(4) for b in range(4)
               if not LK[c, a, b].is_zero()}
    assert nonzero == {(0, 0, 0)} | {(A, 0, A) for A in range(1, 4)} | {(A, A, 0) for A in range(1, 4)}


def test_lie_derive_connection_linear_field_vanishes(rng):
    d = 2
    X = VectorField(d, [random_poly(rng, d, max_degree=1, terms=3) for _ in range(d + 1)])
    assert vanishes(lie_derive_connection(X, Connection.zero(d)))


def test_lie_derive_connection_newtonian_time_translation():
    from ncsym.geometry import newtonian_connection

    d = 3
    V = Poly.x(d, 1) ** 2 + Poly.x(d, 2) * Poly.x(d, 3)
    nc = newtonian_connection(d, V)
    assert vanishes(lie_derive_connection(time_translation(d), nc.connection))


def test_lie_derive_two_form_examples():
    d = 3
    const_F = TwoForm.from_upper(d, {(1, 2): Poly.const(d, 1)})
    assert vanishes(lie_derive_two_form(time_translation(d), const_F))
    assert vanishes(lie_derive_two_form(rotation(d, 1, 2), TwoForm.zero(d)))
    # rotational invariance of the area form, verified by expansion
    assert vanishes(lie_derive_two_form(rotation(d, 1, 2), const_F))


def test_exterior_derivative_examples():
    d = 3
    const_F = TwoForm.from_upper(d, {(1, 2): Poly.const(d, 1)})
    assert exterior_derivative(const_F).is_zero()
    Ft = TwoForm.from_upper(d, {(1, 2): Poly.t(d)})
    dF = exterior_derivative(Ft)
    assert dF.comp == {(0, 1, 2): Poly.const(d, 1)}
    # exactness: d(dA) = 0 for A = -V dt
    V = Poly.x(d, 1) * Poly.x(d, 2) + Poly.t(d) * Poly.x(d, 3)
    A = OneForm(d, [-V, Poly.zero(d), Poly.zero(d), Poly.zero(d)])
    assert exterior_derivative(exterior_derivative_one_form(A)).is_zero()


def test_exterior_derivative_squared_random(rng):
    d = 3
    for _ in range(8):
        A = OneForm(d, [random_poly(rng, d) for _ in range(d + 1)])
        assert exterior_derivative(exterior_derivative_one_form(A)).is_zero()


def test_lie_derivative_commutes_with_d(rng):
    d = 2
    for _ in range(10):
        A = OneForm(d, [random_poly(rng, d, max_degree=2, terms=3) for _ in range(d + 1)])
        X = _random_field(rng, d, max_degree=2)
        lhs = lie_derive_two_form(X, exterior_derivative_one_form(A))
        rhs = exterior_derivative_one_form(lie_derive_one_form(X, A))
        assert vanishes(lhs - rhs)


def test_canonical_lift_examples():
    d = 2
    lift = canonical_lift(time_translation(d))
    assert lift.base == time_translation(d)
    assert all(p.is_zero() for row in lift.momentum for p in row)

    stretch = VectorField(d, [Poly.zero(d), Poly.x(d, 1), Poly.zero(d)])
    lift = canonical_lift(stretch)
    assert lift.momentum[1][1] == Poly.const(d, -1)
    assert sum(1 for row in lift.momentum for p in row if not p.is_zero()) == 1


def lift_derivative_of_null_shell(X, gamma):
    """Coefficient matrix R^{ab} of p_a p_b in X~(gamma^{ab} p_a p_b), from
    the canonical lift X~.  The lift is tangent to the shell
    {gamma^{ab} p_a p_b = const} iff R vanishes; independently, R equals
    L_X gamma."""
    d = X.dim
    lift = canonical_lift(X)
    n = d + 1
    out = [[Poly.zero(d) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            val = X.apply(gamma[a, b])
            # p-part: dQ/dp_a = 2 gamma^{ab} p_b, contracted with dp_a/ds
            for k in range(n):
                val = val + lift.momentum[k][a] * gamma[k, b]
                val = val + lift.momentum[k][b] * gamma[a, k]
            out[a][b] = val
            out[b][a] = val
    return SymTensor2Up(d, out)


def test_lift_tangent_to_null_shell():
    d = 3
    base = flat_galilei(d)
    rot = rotation(d, 1, 2)
    deriv = lift_derivative_of_null_shell(rot, base.gamma)
    assert vanishes(deriv)
    # a dilation rescales, so the lift is not tangent
    deriv = lift_derivative_of_null_shell(space_dilation(d), base.gamma)
    assert not vanishes(deriv)


def test_shell_derivative_equals_structure_derivative(rng):
    from ncsym.lie import lie_derive_sym2up

    d = 2
    base = flat_galilei(d)
    for _ in range(8):
        X = _random_field(rng, d, max_degree=2)
        lhs = lift_derivative_of_null_shell(X, base.gamma)
        rhs = lie_derive_sym2up(X, base.gamma)
        assert vanishes(lhs - rhs)


def test_gamma_theta_power_weights():
    # L_X(gamma x theta^n) = (f + n g) gamma x theta^n, so the n = 1
    # product is transported by the z = 2 fields and the n = 2 product by
    # the z = 1 fields (exponent z = 2/n), full tensor formula expansion.
    d = 3
    base = flat_galilei(d)
    X2 = sch_dilation(d)  # f = -2, g = 2: kills gamma x theta
    assert lie_derive_gamma_theta_power(X2, base.gamma, base.theta, 1) == {}
    assert lie_derive_gamma_theta_power(X2, base.gamma, base.theta, 2) != {}
    X1 = cga_dilation(d)  # f = -2, g = 1: kills gamma x theta x theta
    assert lie_derive_gamma_theta_power(X1, base.gamma, base.theta, 2) == {}
    assert lie_derive_gamma_theta_power(X1, base.gamma, base.theta, 1) != {}
    # generic weight check on the space dilation
    Y = space_dilation(d)
    out = lie_derive_gamma_theta_power(Y, base.gamma, base.theta, 2)
    fY, gY = conformal_factors(Y, base.gamma, base.theta)
    weight = fY + 2 * gY
    expect = {}
    for a in range(1, d + 1):
        expect[(a, a, 0, 0)] = base.gamma[a, a] * weight
    assert out == expect


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        lie_bracket(time_translation(2), time_translation(3))


def test_vector_fields_and_one_forms_are_values():
    d = 2
    comps = [Poly.t(d), Poly.x(d, 1), Poly.zero(d)]
    X, Y = VectorField(d, comps), VectorField(d, list(comps))
    assert X == Y and hash(X) == hash(Y) and len({X, Y}) == 1
    assert X != X.scale(2) and X != OneForm(d, comps)
    assert OneForm(d, comps) == OneForm(d, tuple(comps))
    assert hash(OneForm(d, comps)) == hash(OneForm(d, tuple(comps)))
    with pytest.raises(ValueError):
        VectorField(d, comps[:2])
    with pytest.raises(ValueError):
        VectorField(d, [Poly.t(3)] * 3)
    with pytest.raises(ValueError):
        OneForm(d, comps[:2])


def test_vector_fields_and_one_forms_add_and_subtract_by_component():
    d = 2
    X = VectorField(d, [Poly.t(d), Poly.x(d, 1), Poly.zero(d)])
    Y = VectorField(d, [Poly.const(d, 1), Poly.zero(d), Poly.x(d, 2)])
    assert X - Y == VectorField(d, [a - b for a, b in zip(X.components, Y.components)])
    assert (X + Y) - Y == X
    with pytest.raises(ValueError, match="dimension mismatch"):
        X - VectorField(3, [Poly.zero(3)] * 4)
    w, v = OneForm(d, X.components), OneForm(d, Y.components)
    assert w + v == OneForm(d, [a + b for a, b in zip(X.components, Y.components)])
    assert (w + v) - v == w and (w - w).is_zero()


Z2, T2 = Poly.zero(2), Poly.t(2)


def _grid(n, entry=lambda a, b: Z2):
    return [[entry(a, b) for b in range(n)] for a in range(n)]


def _cube(n, entry=lambda c, a, b: Z2):
    return [[[entry(c, a, b) for b in range(n)] for a in range(n)] for c in range(n)]


@pytest.mark.parametrize("build, match", [
    (lambda: SymTensor2Up(2, _grid(2)), r"must be \(d\+1\)x\(d\+1\)"),
    (lambda: SymTensor2Up(2, _grid(3, lambda a, b: T2 if (a, b) == (0, 1) else Z2)),
     "not symmetric"),
    (lambda: TwoForm(2, _grid(2)), r"must be \(d\+1\)x\(d\+1\)"),
    (lambda: TwoForm(2, _grid(3, lambda a, b: T2 if a == b == 1 else Z2)), "nonzero diagonal"),
    (lambda: TwoForm(2, _grid(3, lambda a, b: T2 if a != b else Z2)), "not antisymmetric"),
    (lambda: TwoForm.from_upper(2, {(1, 0): T2}), "use a < b keys"),
    (lambda: Connection(2, _cube(2)), r"must be \(d\+1\)\^3"),
    (lambda: Connection(2, _cube(3, lambda c, a, b: T2 if (a, b) == (0, 1) else Z2)),
     "not symmetric in lower indices"),
    (lambda: conformal_factors(time_translation(2), SymTensor2Up(2, _grid(
        3, lambda a, b: T2 if a == b >= 1 else Z2)), flat_galilei(2).theta),
     "gamma has no constant reference component"),
    (lambda: conformal_factors(time_translation(2), flat_galilei(2).gamma,
                               OneForm(2, [T2, Z2, Z2])),
     "theta has no constant reference component"),
], ids=["sym2up_shape", "sym2up_symmetry", "two_form_shape", "two_form_diagonal",
        "two_form_antisymmetry", "from_upper_order", "connection_shape",
        "connection_symmetry", "gamma_reference", "theta_reference"])
def test_malformed_tensor_is_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# -- the tensor Lie-derivative adapters against hand-written formulas -------


def _oracle_sym2up(X, G):
    n = X.dim + 1
    out = [[Poly.zero(X.dim) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            val = X.apply(G[a, b])
            for c in range(n):
                val = val - X[a].differentiate(c) * G[b, c] - X[b].differentiate(c) * G[a, c]
            out[a][b] = out[b][a] = val
    return out


def _oracle_one_form(X, w):
    n = X.dim + 1
    out = []
    for a in range(n):
        val = X.apply(w[a])
        for b in range(n):
            val = val + w[b] * X[b].differentiate(a)
        out.append(val)
    return out


def _oracle_two_form(X, F):
    n = X.dim + 1
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            val = X.apply(F[a, b])
            for c in range(n):
                val = val + F[c, b] * X[c].differentiate(a) + F[a, c] * X[c].differentiate(b)
            out[(a, b)] = val
    return out


def _oracle_connection(X, G):
    n = X.dim + 1
    out = {}
    for c in range(n):
        for a in range(n):
            for b in range(n):
                val = X.apply(G[c, a, b]) + X[c].differentiate(a).differentiate(b)
                for k in range(n):
                    val = val - G[k, a, b] * X[c].differentiate(k)
                    val = val + G[c, k, b] * X[k].differentiate(a)
                    val = val + G[c, a, k] * X[k].differentiate(b)
                out[(c, a, b)] = val
    return out


def _oracle_gamma_theta_power(X, gamma, theta, ncov):
    from itertools import product

    n = X.dim + 1

    def T(a, b, cs):
        val = gamma[a, b]
        for c in cs:
            val = val * theta[c]
        return val

    out = {}
    for a in range(n):
        for b in range(n):
            for cs in product(range(n), repeat=ncov):
                val = Poly.zero(X.dim)
                for k in range(n):
                    transport = gamma[a, b].differentiate(k)
                    for c in cs:
                        transport = transport * theta[c]
                    for i in range(ncov):
                        term = gamma[a, b] * theta[cs[i]].differentiate(k)
                        for j, c in enumerate(cs):
                            if j != i:
                                term = term * theta[c]
                        transport = transport + term
                    val = val + X[k] * transport
                    val = val - X[a].differentiate(k) * T(k, b, cs)
                    val = val - X[b].differentiate(k) * T(a, k, cs)
                    for i in range(ncov):
                        swapped = list(cs)
                        swapped[i] = k
                        val = val + X[k].differentiate(cs[i]) * T(a, b, tuple(swapped))
                if not val.is_zero():
                    out[(a, b) + cs] = val
    return out


def _random_sym2up(rng, d):
    from ncsym.lie import SymTensor2Up

    n = d + 1
    comp = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            comp[a][b] = comp[b][a] = random_poly(rng, d, max_degree=2, terms=2)
    return SymTensor2Up(d, comp)


def _random_one_form(rng, d):
    return OneForm(d, [random_poly(rng, d, max_degree=2, terms=2) for _ in range(d + 1)])


def _random_connection(rng, d):
    n = d + 1
    comp = [[[None] * n for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                comp[c][a][b] = comp[c][b][a] = random_poly(rng, d, max_degree=2, terms=2)
    return Connection(d, comp)


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_lie_derivatives_match_hand_formulas(rng, d):
    from ncsym.lie import lie_derive_sym2up

    n = d + 1
    for _ in range(4):
        X = _random_field(rng, d, max_degree=3)
        G = _random_sym2up(rng, d)
        assert lie_derive_sym2up(X, G).comp == _oracle_sym2up(X, G)
        w = _random_one_form(rng, d)
        assert list(lie_derive_one_form(X, w).components) == _oracle_one_form(X, w)
        F = exterior_derivative_one_form(_random_one_form(rng, d)) + TwoForm.from_upper(
            d, {(0, 1): random_poly(rng, d, max_degree=2, terms=2)}
        )
        LF = lie_derive_two_form(X, F)
        for (a, b), val in _oracle_two_form(X, F).items():
            assert LF[a, b] == val and LF[b, a] == -val
        C = _random_connection(rng, d)
        LC = lie_derive_connection(X, C)
        for (c, a, b), val in _oracle_connection(X, C).items():
            assert LC[c, a, b] == val
    for ncov in (1, 2):
        X = _random_field(rng, d, max_degree=2)
        gamma = _random_sym2up(rng, d)
        theta = OneForm(d, [random_poly(rng, d, max_degree=1, terms=2) for _ in range(n)])
        expect = _oracle_gamma_theta_power(X, gamma, theta, ncov)
        assert expect
        assert lie_derive_gamma_theta_power(X, gamma, theta, ncov) == expect


@pytest.mark.parametrize("d", [2, 3])
def test_lie_derive_structure_on_closed_and_open_theta(rng, d):
    from ncsym.lie import lie_derive_sym2up

    for _ in range(6):
        X = _random_field(rng, d, max_degree=3)
        gamma = _random_sym2up(rng, d)
        h = random_poly(rng, d, max_degree=3, terms=4)
        closed = OneForm(d, [h.differentiate(a) for a in range(d + 1)])
        lg, lt = lie_derive_structure(X, gamma, closed)
        assert lg.comp == lie_derive_sym2up(X, gamma).comp
        pairing = closed.pair(X)
        assert list(lt.components) == [pairing.differentiate(a) for a in range(d + 1)]
        theta = _random_one_form(rng, d)
        assert not vanishes(exterior_derivative_one_form(theta))
        _, lt = lie_derive_structure(X, gamma, theta)
        assert list(lt.components) == list(lie_derive_one_form(X, theta).components)
        assert list(lt.components) == _oracle_one_form(X, theta)
