import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncsym.fluids import (
    Jet2,
    Potential,
    ZERO_POTENTIAL,
    acceleration,
    boost,
    chaplygin_rest,
    eval_field,
    expansion,
    fluid_charges,
    fluid_residual,
    gaussian_packet,
    generalized_expansion,
    polytropic_exponent,
    random_points,
    self_similar_free,
    time_dilation,
    uniform_flow,
    z_dilation,
)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def test_jet_derivatives_match_central_differences():
    def field(t, x, y):
        return (x * y + t * t * x) * (y + 2.0) / (t + 3.0)

    pt = np.array([[0.4, 0.7, -0.3]])
    jet = eval_field(field, pt)

    def scalar(v):
        t, x, y = v
        return (x * y + t * t * x) * (y + 2.0) / (t + 3.0)

    base = pt[0]
    for i in range(3):
        step = np.zeros(3)
        step[i] = 1e-6
        fd = (scalar(base + step) - scalar(base - step)) / 2e-6
        assert jet.grad[i][0] == pytest.approx(fd, abs=1e-6)
        step[i] = 1e-4
        fd2 = (scalar(base + step) - 2.0 * scalar(base) + scalar(base - step)) / 1e-8
        assert jet.diag[i][0] == pytest.approx(fd2, abs=1e-6)


def test_jet_exp_and_pow():
    def field(t, x):
        return (x * x + 1.0).exp() ** 0.5

    pt = np.array([[0.0, 0.3]])
    jet = eval_field(field, pt)
    expect = np.exp((0.3**2 + 1.0) / 2.0)
    assert jet.val[0] == pytest.approx(expect)
    assert jet.grad[1][0] == pytest.approx(expect * 0.3)


class _ArrayJet2:
    """The jet with every entry a numpy array of the batch shape and the
    full n x n Hessian: the reference whose value, gradient and Hessian
    diagonal the number-agnostic Jet2 must reproduce bit for bit."""

    __slots__ = ("val", "grad", "hess", "n")

    def __init__(self, val, grad, hess, n):
        self.val = np.asarray(val, float)
        self.grad = np.asarray(grad, float)
        self.hess = np.asarray(hess, float)
        self.n = n

    @classmethod
    def variable(cls, index, value, n):
        value = np.asarray(value, float)
        grad = np.zeros((n,) + value.shape)
        grad[index] = 1.0
        return cls(value, grad, np.zeros((n, n) + value.shape), n)

    @classmethod
    def constant(cls, value, n, batch_shape=()):
        value = np.broadcast_to(np.asarray(value, float), batch_shape).copy()
        return cls(value, np.zeros((n,) + batch_shape), np.zeros((n, n) + batch_shape), n)

    def _lift(self, other):
        if isinstance(other, _ArrayJet2):
            return other
        return _ArrayJet2.constant(other, self.n, self.val.shape)

    def __add__(self, other):
        o = self._lift(other)
        return _ArrayJet2(self.val + o.val, self.grad + o.grad, self.hess + o.hess, self.n)

    __radd__ = __add__

    def __neg__(self):
        return _ArrayJet2(-self.val, -self.grad, -self.hess, self.n)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        val = self.val * o.val
        grad = self.grad * o.val + self.val * o.grad
        hess = (
            self.hess * o.val
            + self.val * o.hess
            + self.grad[:, None] * o.grad[None, :]
            + o.grad[:, None] * self.grad[None, :]
        )
        return _ArrayJet2(val, grad, hess, self.n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self._reciprocal()

    def _reciprocal(self):
        inv = 1.0 / self.val
        grad = -self.grad * inv**2
        hess = -self.hess * inv**2 + 2.0 * self.grad[:, None] * self.grad[None, :] * inv**3
        return _ArrayJet2(inv, grad, hess, self.n)

    def __pow__(self, e):
        if isinstance(e, int) and e >= 0:
            out = _ArrayJet2.constant(1.0, self.n, self.val.shape)
            for _ in range(e):
                out = out * self
            return out
        v = self.val**e
        dv = e * self.val ** (e - 1)
        ddv = e * (e - 1) * self.val ** (e - 2)
        return self._chain(v, dv, ddv)

    def exp(self):
        v = np.exp(self.val)
        return self._chain(v, v, v)

    def _chain(self, v, dv, ddv):
        grad = dv * self.grad
        hess = dv * self.hess + ddv * self.grad[:, None] * self.grad[None, :]
        return _ArrayJet2(v, grad, hess, self.n)


# Expression trees whose leaves are float constants and linear forms
# ("x", (c0, c1, c2)) = c0 t + c1 x + c2 y, so that products mix every
# gradient component.  Denominators and the bases of negative and float
# powers are kept >= 1/2, and exp arguments in [-3, 3].  No jet is raised
# to the power 0: that gives the constant jet 1, whose float entries stand
# for the whole batch, and exp or a power of a float takes libm's rounding,
# not numpy's.
_COEF = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(st.tuples(st.just("x"), st.tuples(_COEF, _COEF, _COEF)), _COEF)


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("**"), children, st.one_of(
            st.sampled_from([-2, -1, 1, 2, 3, 4]),
            st.sampled_from([0.5, -0.5, 1.5, -1.0, 2.0, 1.0 / 3.0]))),
        st.tuples(st.just("exp"), children),
    )


_TREES = st.recursive(_LEAVES, _node, max_leaves=12)


def _evaluate(tree, coords):
    """The tree on coordinate jets; a subtree without leaves is a float."""
    if isinstance(tree, float):
        return tree
    if tree[0] == "x":
        t, x, y = coords
        c0, c1, c2 = tree[1]
        return t * c0 + x * c1 + y * c2
    if tree[0] == "exp":
        a = _evaluate(tree[1], coords)
        assume(np.all(np.abs(getattr(a, "val", a)) <= 3.0))
        return a.exp() if hasattr(a, "exp") else math.exp(a)
    op, a, b = tree[0], _evaluate(tree[1], coords), tree[2]
    if op == "**":
        positive = isinstance(b, float) or b < 0
        return (a * a + 0.5) ** b if positive else a**b
    b = _evaluate(b, coords)
    if op == "/" and isinstance(a, float) and not isinstance(b, float):
        a = coords[0] * 0.0 + a  # Jet2 has no float / jet: divide the constant jet a
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / (b * b + 0.5)


def _entries(jet):
    """Value, gradient and pure second derivatives: the diagonal of the
    array jet's full Hessian."""
    diag = [jet.hess[i][i] for i in range(jet.n)] if isinstance(jet, _ArrayJet2) else jet.diag
    return [jet.val, *jet.grad, *diag]


@settings(max_examples=150, deadline=None)
@given(
    _TREES,
    st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
             min_size=1, max_size=16),
)
def test_jet_entries_match_the_array_jet(tree, rows):
    points = np.array(rows)
    ref = _evaluate(tree, [_ArrayJet2.variable(i, points[:, i], 3) for i in range(3)])
    assume(isinstance(ref, _ArrayJet2))
    want = _entries(ref)
    assume(all(np.all(np.isfinite(w)) for w in want))
    got = _entries(_evaluate(tree, [Jet2.variable(i, points[:, i], 3) for i in range(3)]))
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(np.broadcast_to(g, w.shape), w)
    # One float jet per point.  numpy's exp and power differ from libm's by
    # an ulp for some arguments, and an entry whose terms cancel magnifies
    # that, hence the floor at 1e-13 of the jet's largest entry.
    for r, row in enumerate(rows):
        one = _entries(_evaluate(tree, [Jet2.variable(i, float(x), 3) for i, x in enumerate(row)]))
        floor = 1e-13 * max(abs(w[r]) for w in want)
        for g, w in zip(one, want, strict=True):
            assert isinstance(g, float)
            assert math.isclose(g, w[r], rel_tol=1e-14, abs_tol=floor)


# ---------------------------------------------------------------------------
# residuals on the solution catalog
# ---------------------------------------------------------------------------


def test_uniform_flow_residual():
    theta, rho = uniform_flow([0.3, -0.2, 0.5])
    pts = random_points(3, 40, seed=1)
    res = fluid_residual(theta, rho, ZERO_POTENTIAL, pts)
    assert res["continuity"] < 1e-12 and res["bernoulli"] < 1e-12


def test_self_similar_residual_and_negative_control():
    d = 3
    theta, rho = self_similar_free(a=1.0, rho0=2.0, d=d)
    pts = random_points(d, 60, seed=2)
    res = fluid_residual(theta, rho, ZERO_POTENTIAL, pts)
    assert res["continuity"] < 1e-10 and res["bernoulli"] < 1e-10

    def rho_wrong(t, *xs):
        return ((t + 1.0) ** (-1.0)) ** (d - 1) * 2.0

    res = fluid_residual(theta, rho_wrong, ZERO_POTENTIAL, pts)
    assert res["continuity"] > 1e-2


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


def test_boost_of_rest_fluid_is_uniform_flow():
    d = 3
    theta0, rho0 = uniform_flow([0.0, 0.0, 0.0])
    b = (0.7, 0.1, -0.4)
    theta, rho = boost(theta0, rho0, b)
    pts = random_points(d, 50, seed=3)
    res = fluid_residual(theta, rho, ZERO_POTENTIAL, pts)
    assert res["continuity"] < 1e-12 and res["bernoulli"] < 1e-12
    # velocity of the image is -b
    jet = eval_field(theta, pts[:1])
    assert np.allclose([jet.grad[A][0] for A in (1, 2, 3)], [-v for v in b])


def test_expansion_image_of_self_similar():
    d = 3
    theta, rho = self_similar_free(a=1.0, rho0=2.0, d=d)
    kappa = 0.4
    th2, rh2 = expansion(theta, rho, d, kappa)
    pts = random_points(d, 100, seed=4, predicate=lambda c: 1.0 - kappa * c[0] > 0.05)
    res = fluid_residual(th2, rh2, ZERO_POTENTIAL, pts)
    assert res["continuity"] < 1e-9 and res["bernoulli"] < 1e-9


def test_acceleration_is_not_a_symmetry():
    d = 3
    theta, rho = uniform_flow([0.3, -0.2, 0.5])
    a = (1.0, 0.0, 0.0)
    th2, rh2 = acceleration(theta, rho, a)
    pts = random_points(d, 60, seed=5)
    res = fluid_residual(th2, rh2, ZERO_POTENTIAL, pts)
    assert res["bernoulli"] > 0.1 * np.linalg.norm(a)


def test_z_dilation_group_law():
    d = 3
    theta, rho = self_similar_free(a=1.0, rho0=2.0, d=d)
    z = 2.0
    a_theta, a_rho = z_dilation(*z_dilation(theta, rho, d, 0.7, z), d, 1.3, z)
    b_theta, b_rho = z_dilation(theta, rho, d, 1.3 * 0.7, z)
    pts = random_points(d, 30, seed=6)
    ja, jb = eval_field(a_theta, pts), eval_field(b_theta, pts)
    assert np.max(np.abs(ja.val - jb.val)) < 1e-12
    ja, jb = eval_field(a_rho, pts), eval_field(b_rho, pts)
    assert np.max(np.abs(ja.val - jb.val)) < 1e-12


def test_free_symmetry_closure_at_solution_level():
    # boost, z-dilation (any z), expansion and time dilation all map the
    # residual-free solution to residual-free fields; acceleration does not
    d = 3
    theta, rho = self_similar_free(a=1.0, rho0=2.0, d=d)
    pts = random_points(d, 60, seed=7, predicate=lambda c: 1.0 - 0.3 * c[0] > 0.1)
    for name, (th2, rh2) in (
        ("boost", boost(theta, rho, (0.2, 0.1, -0.3))),
        ("z_dilation 2", z_dilation(theta, rho, d, 1.4, 2.0)),
        ("z_dilation 1.5", z_dilation(theta, rho, d, 0.8, 1.5)),
        ("expansion", expansion(theta, rho, d, 0.3)),
        ("time_dilation", time_dilation(theta, rho, 1.7)),
    ):
        res = fluid_residual(th2, rh2, ZERO_POTENTIAL, pts)
        assert max(res.values()) < 1e-9, name
    th2, rh2 = acceleration(theta, rho, (0.5, 0, 0))
    res = fluid_residual(th2, rh2, ZERO_POTENTIAL, pts)
    assert max(res.values()) > 0.05


# ---------------------------------------------------------------------------
# polytropic exponent relations
# ---------------------------------------------------------------------------


def z_of_gamma(gamma, d):
    """The inverse of polytropic_exponent, z = (gamma(d+2)-d)/(gamma+1);
    gamma = -1 is the inverse-density (time-dilation) case and has no
    finite exponent."""
    gamma = Fraction(gamma)
    if gamma == -1:
        return "chaplygin"
    return Fraction(gamma * (d + 2) - d, gamma + 1)


def test_polytropic_exponent_values():
    assert polytropic_exponent(Fraction(2), 3) == Fraction(5, 3)
    assert polytropic_exponent(Fraction(2), 2) == Fraction(2)
    assert z_of_gamma(Fraction(5, 3), 3) == Fraction(2)
    assert z_of_gamma(Fraction(-1), 3) == "chaplygin"
    with pytest.raises(ValueError):
        polytropic_exponent(Fraction(5), 3)


def test_forward_inverse_identity():
    for d in (2, 3):
        for z in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(2, 3)):
            assert z_of_gamma(polytropic_exponent(z, d), d) == z


def test_z_dilation_polytropic_consistency_scan():
    # on a uniform rest state with pressure, the dilation image solves the
    # system exactly when gamma matches (d+z)/(d+2-z) and fails otherwise
    d = 3
    z = 2.0
    lam = 1.3
    pts = random_points(d, 25, seed=8)
    for gamma in (Fraction(5, 3), Fraction(2), Fraction(3, 2), Fraction(4, 3), Fraction(3)):
        V = Potential("polytropic", c=0.7, gamma=float(gamma))
        rho0 = 1.4
        enth = 0.7 * float(gamma) * rho0 ** (float(gamma) - 1.0)

        def theta(t, *xs):
            return t * (-enth)

        def rho(t, *xs):
            return Jet2.constant(rho0, t.n)

        base = fluid_residual(theta, rho, V, pts)
        assert max(base.values()) < 1e-12
        th2, rh2 = z_dilation(theta, rho, d, lam, z)
        res = fluid_residual(th2, rh2, V, pts)
        if gamma == polytropic_exponent(Fraction(2), d):
            assert max(res.values()) < 1e-12
        else:
            assert max(res.values()) > 1e-3


def test_generalized_expansion_grid_refutation():
    # scanning the exponent quadruple: only (1, 1/2, -1, d) preserves the
    # solution property across the catalog
    d = 3
    kappa = 0.35
    solutions = [
        self_similar_free(a=1.0, rho0=2.0, d=d),
        uniform_flow([0.4, -0.2, 0.1]),
    ]
    pts = random_points(d, 40, seed=9, predicate=lambda c: 1.0 - kappa * c[0] > 0.1)
    special = (1.0, 0.5, -1.0, float(d))
    grid = []
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.25, 0.5, 1.0):
            for gamma in (-2.0, -1.0, 0.0):
                for delta in (float(d - 1), float(d), float(d + 1)):
                    grid.append((alpha, beta, gamma, delta))
    for combo in grid:
        worst = 0.0
        for theta, rho in solutions:
            th2, rh2 = generalized_expansion(theta, rho, d, kappa, *combo)
            res = fluid_residual(th2, rh2, ZERO_POTENTIAL, pts)
            worst = max(worst, max(res.values()))
        if combo == special:
            assert worst < 1e-9
        else:
            assert worst > 1e-6, combo


# ---------------------------------------------------------------------------
# charges
# ---------------------------------------------------------------------------


def test_charges_static_bump():
    d = 3

    def rho(t, x, y, z):
        s = x * x + y * y + z * z
        return (s * (-1.0)).exp()

    def theta(t, x, y, z):
        return Jet2.constant(0.0, t.n)

    V = Potential("polytropic", c=0.5, gamma=2.0)
    box = [(-5.0, 5.0)] * 3
    t0 = 0.7
    ch = fluid_charges(theta, rho, d, box, t=t0, V=V, order=32)
    assert np.allclose(ch["P"], 0)
    assert ch["M"] > 0
    assert ch["D"] == pytest.approx(t0 * ch["H"])
    # H reduces to the integrated potential: 0.5 * integral rho^2
    expect_H = 0.5 * (np.pi / 2.0) ** 1.5
    assert ch["H"] == pytest.approx(expect_H, rel=1e-6)


def test_charges_gaussian_packet_constant_in_time():
    d = 3
    theta, rho = gaussian_packet([0.25, -0.1, 0.15], sigma=1.0)
    box = [(-7.5, 7.5)] * 3
    charges = [fluid_charges(theta, rho, d, box, t, order=32) for t in (0.0, 0.4, 0.8)]
    ref = charges[0]
    for ch in charges[1:]:
        assert abs(ch["M"] - ref["M"]) < 1e-6
        assert np.max(np.abs(ch["P"] - ref["P"])) < 1e-6
        assert np.max(np.abs(ch["G"] - ref["G"])) < 1e-6


def test_chaplygin_time_dilation_charge():
    d = 3
    c = 0.8
    V = Potential("chaplygin", c=c)
    theta, rho = chaplygin_rest(c=c, rho0=1.2, t0=0.5)
    pts = random_points(d, 30, seed=10)
    assert max(fluid_residual(theta, rho, V, pts).values()) < 1e-12
    box = [(-1.0, 1.0)] * 3
    before = fluid_charges(theta, rho, d, box, t=0.3, V=V)
    th2, rh2 = time_dilation(theta, rho, 1.7)
    assert max(fluid_residual(th2, rh2, V, pts).values()) < 1e-12
    after = fluid_charges(th2, rh2, d, box, t=0.3, V=V)
    assert before["Delta"] != 0.0
    assert abs(before["Delta"] - after["Delta"]) < 1e-6
    # the charge is also constant in time
    later = fluid_charges(theta, rho, d, box, t=0.9, V=V)
    assert abs(before["Delta"] - later["Delta"]) < 1e-9


def test_residual_rejects_domain_violation():
    # expansions are only defined where 1 - kappa t stays positive
    d = 3
    theta, rho = self_similar_free(a=1.0, rho0=2.0, d=d)
    th2, rh2 = expansion(theta, rho, d, 2.0)
    bad = np.array([[0.5, 0.1, 0.1, 0.1]])  # 1 - 2 t = 0: pole
    with pytest.raises(ValueError):
        with np.errstate(divide="ignore", invalid="ignore"):
            fluid_residual(th2, rh2, ZERO_POTENTIAL, bad)


@pytest.mark.parametrize("call, match", [
    (lambda: Potential("isothermal").value(Jet2.constant(1.0, 2)), "unknown potential"),
    (lambda: Potential("isothermal").enthalpy(Jet2.constant(1.0, 2)), "unknown potential"),
    # theta = |x|^2 / (2(t + a)) has its pole at t = -a
    (lambda: fluid_residual(*self_similar_free(a=1.0, rho0=2.0, d=3), ZERO_POTENTIAL,
                            [[-1.0, 0.1, 0.1, 0.1]]), "outside its domain"),
], ids=["potential_value", "potential_enthalpy", "float_path_pole"])
def test_input_outside_the_model_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_charges_reject_nonfinite_samples():
    d = 2

    def theta(t, x, y):
        return Jet2.constant(0.0, t.n)

    def rho(t, x, y):
        # blows up to inf at the outer quadrature nodes
        with np.errstate(over="ignore", invalid="ignore"):
            return (x * x * 1000.0).exp()

    box = [(-1.0, 1.0)] * 2
    with pytest.raises(ValueError):
        fluid_charges(theta, rho, d, box, t=0.0)
