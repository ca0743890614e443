import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncsym import integrate, mechanics as mech
from ncsym.geometry import (
    connection_from_observer,
    flat_galilei,
    flat_structure,
    newtonian_connection,
    rest_observer,
)
from ncsym.lie import Connection, OneForm, exterior_derivative_one_form
from ncsym.poly import Poly


def _rows(res):
    """(steps+1, 2(d+1)) array view of a geodesic's flat trajectory."""
    return np.frombuffer(res["trajectory"]).reshape(-1, 2 * (res["dim"] + 1))


def _harmonic_connection(d=3, w2=Fraction(4)):
    V = Poly.zero(d)
    for A in range(1, d + 1):
        V = V + Poly.x(d, A) * Poly.x(d, A) * Fraction(1, 2) * w2
    return newtonian_connection(d, V).connection


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_free_geodesic_is_straight():
    res = integrate.integrate_geodesic(Connection.zero(3), [0.0, 1.0, -1.0, 0.0], [1.0, 0.2, 0.4, -0.1], 1e-2, 500)
    traj = _rows(res)
    taus = 1e-2 * np.arange(501)
    expect = np.array([1.0, -1.0, 0.0]) + np.outer(taus, [0.2, 0.4, -0.1])
    assert np.max(np.abs(traj[:, 1:4] - expect)) < 1e-12
    assert res["tdot_class"] == "timelike"


def test_harmonic_period():
    conn = _harmonic_connection()
    h, steps = 1e-3, 10000
    res = integrate.integrate_geodesic(conn, [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0], h, steps)
    traj = _rows(res)
    times = traj[:, 0]
    assert np.max(np.abs(times - h * np.arange(steps + 1))) < 1e-9
    exact1 = np.cos(2.0 * times)
    exact2 = 0.25 * np.sin(2.0 * times)
    assert np.max(np.abs(traj[:, 1] - exact1)) < 1e-6
    assert np.max(np.abs(traj[:, 2] - exact2)) < 1e-6


def _rotating_frame_connection():
    # connection built from A = -V dt + omega_BC(t) x^B dx^C, omega_12(t) = w0 + w1 t
    d = 3
    k = Fraction(1)
    V = Poly.zero(d)
    for A in range(1, d + 1):
        V = V + Poly.x(d, A) * Poly.x(d, A) * Fraction(1, 2) * k
    w0, w1 = Fraction(1, 2), Fraction(1, 4)
    om_poly = Poly.const(d, w0) + Poly.t(d) * w1
    A_form = OneForm(d, [-V, Poly.x(d, 2) * (-1) * om_poly, Poly.x(d, 1) * om_poly, Poly.zero(d)])
    F = exterior_derivative_one_form(A_form)
    return connection_from_observer(flat_galilei(d), rest_observer(d), F).connection, k, w0, w1


def test_rotating_frame_agrees_with_second_order_form():
    # geodesics of the rotating-frame connection against direct integration
    # of xdd = -grad V + omegadot x x + 2 omega x xd
    conn, k, w0, w1 = _rotating_frame_connection()
    h, steps = 1e-3, 2000
    res = integrate.integrate_geodesic(conn, [0.0, 1.0, 0.0, 0.3], [1.0, 0.1, -0.2, 0.0], h, steps)
    geo = _rows(res)

    def omega_vec(t):
        # dual vector of the matrix with omega_12 = w0 + w1 t
        return np.array([0.0, 0.0, -(float(w0) + float(w1) * t)])

    def rhs(t, y):
        y = np.asarray(y)
        x, v = y[:3], y[3:]
        wv = omega_vec(t)
        wdot = np.array([0.0, 0.0, -float(w1)])
        acc = -float(k) * x + np.cross(wdot, x) + 2.0 * np.cross(wv, v)
        return np.concatenate([v, acc])

    direct = np.frombuffer(integrate.rk4(rhs, [1.0, 0.0, 0.3, 0.1, -0.2, 0.0], h, steps)).reshape(-1, 6)
    gap = np.abs(geo[:, 1:4] - direct[:, :3])
    assert np.max(gap) < 1e-9 * steps
    # per-step agreement: the bound scales with the step index
    for i in (1, 10, 100, steps):
        assert np.max(gap[i]) < 1e-9 * i + 1e-15


@st.composite
def polys_and_points(draw):
    dim = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * (dim + 1)), min_size=1, max_size=6))
    coefs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    p = Poly(dim, {exp: draw(coefs) for exp in exps})
    x = draw(st.lists(st.floats(-10, 10), min_size=dim + 1, max_size=dim + 1))
    return p, x


@settings(max_examples=200, deadline=None)
@given(polys_and_points())
@example((Poly(2, {(0, 3, 1): Fraction(1, 3), (2, 0, 1): Fraction(-7, 2), (0, 0, 0): -1}), [0.1, -1.7, 3.3]))
def test_term_table_evaluates_bitwise_like_poly(case):
    # the compiled geodesic right-hand side with p in one Gamma entry: that
    # entry's accumulator is 0.0 - p(x) v^a v^a, every other one stays 0.0
    p, x = case
    n = p.dim + 1
    v = [0.5 - q for q in reversed(x)]
    for c in range(n):
        for a in range(n):
            comp = [[[Poly.zero(p.dim)] * n for _ in range(n)] for _ in range(n)]
            comp[c][a][a] = p
            got = integrate._geodesic_rhs(Connection(p.dim, comp))(0.0, x + v)
            want = v + [0.0] * n
            want[n + c] = 0.0 - float(p.evaluate(x)) * v[a] * v[a]
            assert [g.hex() for g in got] == [w.hex() for w in want]


def _reference_geodesic(conn, x0, xdot0, h, steps):
    """Array-valued RK4 with Kahan carry and a Poly.evaluate right-hand side."""
    n = conn.dim + 1
    entries = [
        (c, a, b, conn[c, a, b])
        for c in range(n) for a in range(n) for b in range(n)
        if not conn[c, a, b].is_zero()
    ]

    def rhs(_t, y):
        x, v = y[:n], y[n:]
        acc = np.zeros(n)
        for c, a, b, p in entries:
            acc[c] -= p.evaluate(list(x)) * v[a] * v[b]
        return np.concatenate([v, acc])

    y = np.concatenate([np.array(x0, float), np.array(xdot0, float)])
    carry = np.zeros_like(y)
    out = np.empty((steps + 1, y.size))
    out[0] = y
    t = 0.0
    for i in range(1, steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        incr = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        add = incr + carry
        new = y + add
        carry = add - (new - y)
        y = new
        t = i * h
        out[i] = y
    return out


def test_geodesic_trajectory_is_bitwise_the_array_reference():
    # time-dependent omega: several Gamma entries per c, Gamma depends on t
    rotating, _, _, _ = _rotating_frame_connection()
    entries = [
        (c, a, b)
        for c in range(4) for a in range(4) for b in range(4)
        if not rotating[c, a, b].is_zero()
    ]
    assert len(entries) > len({c for c, _, _ in entries})
    assert any(rotating[c, a, b].depends_on(0) for c, a, b in entries)
    args = ([0.0, 1.0, 0.0, 0.3], [1.0, 0.1, -0.2, 0.0], 1e-2, 300)
    # then the connections of `ncsym geodesic --model free|harmonic`
    for conn in (rotating, flat_structure(3).connection, _harmonic_connection(w2=Fraction(1))):
        got = _rows(integrate.integrate_geodesic(conn, *args))
        assert np.array_equal(got, _reference_geodesic(conn, *args))


def test_rk4_accepts_list_and_array_right_hand_sides():
    def as_array(_t, y):
        y = np.asarray(y)
        return np.concatenate([y[3:], -y[:3] / (1.0 + y[:3] @ y[:3])])

    y0 = [1.0, 0.2, -0.3, 0.0, 0.7, 0.1]
    a = integrate.rk4(as_array, y0, 1e-2, 100)
    b = integrate.rk4(lambda t, y: as_array(t, y).tolist(), y0, 1e-2, 100)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        integrate.rk4(lambda t, y: [0.0], y0, 1e-2, 1)


def test_float_overflow_in_the_right_hand_side_is_a_non_finite_state():
    # x1 ** 3 raises OverflowError once x1 passes ~1e103, where x1 * x1 * x1
    # would give inf; rk4 reports both alike
    z = Poly.zero(1)
    comp = [[[z, z], [z, z]], [[Poly.monomial(1, (0, 3)), z], [z, z]]]
    with pytest.raises(ValueError, match="not finite at step 1 "):
        integrate.integrate_geodesic(Connection(1, comp), [0.0, 1.0], [1.0, 0.0], 1e100, 5)


def test_rk4_rejects_steps_above_cap_before_allocating(monkeypatch):
    def no_kernel(n):
        raise AssertionError("integration started")

    def no_call(t, y):
        raise AssertionError("right-hand side called")

    monkeypatch.setattr(integrate, "_rk4_kernel", no_kernel)
    with pytest.raises(ValueError, match="steps"):
        integrate.rk4(no_call, [0.0, 1.0], 1e-3, integrate.MAX_STEPS + 1)


def test_trajectory_is_eight_bytes_per_value():
    # a flat row-major double array, not rows of Python floats
    steps, y0 = 50, [1.0, 0.2, -0.3, 0.0, 0.7, 0.1]
    traj = integrate.rk4(lambda t, y: y[3:] + [-q for q in y[:3]], y0, 1e-2, steps)
    assert len(traj) == (steps + 1) * len(y0)
    assert memoryview(traj).format == "d"
    assert memoryview(traj).nbytes == 8 * len(traj)
    assert traj[: len(y0)].tolist() == y0


def test_geodesic_lightlike_class_preserved():
    res = integrate.integrate_geodesic(Connection.zero(3), [0.5, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], 1e-2, 100)
    assert res["tdot_class"] == "lightlike"
    assert np.max(np.abs(_rows(res)[:, 4])) == 0.0


# ---------------------------------------------------------------------------
# massive charges and lifts
# ---------------------------------------------------------------------------


def test_massive_charges_rest_state():
    st = mech.MassiveState(2.0, np.array([1.0, 2.0, 2.0]), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    ch = mech.massive_charges(st, 2.0, 0.5)
    assert np.allclose(ch["P"], 0)
    assert ch["D"] == 0
    assert ch["K"] == pytest.approx(2.0 * 9.0 / 2.0)
    assert np.allclose(ch["G"], 2.0 * st.x)


def test_massive_charges_mass_positive():
    st = mech.MassiveState(0.0, np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        mech.massive_charges(st, -1.0, 0.0)


def test_free_flow_conserves_all_charges():
    st = mech.MassiveState(0.0, np.array([0.1, -0.2, 0.05]), np.array([0.12, 0.07, -0.09]),
                           np.array([0.0, 0.6, 0.8]))
    m, s = 1.7, 0.4
    ref = mech.massive_charges(st, m, s)
    for dt in np.linspace(0.0, 10.0, 23):
        ch = mech.massive_charges(mech.free_flow(st, dt), m, s)
        for key in ref:
            assert np.max(np.abs(np.atleast_1d(ch[key] - ref[key]))) < 1e-12


def test_free_rk4_charge_drift_below_1e12():
    res = integrate.integrate_geodesic(Connection.zero(3), [0.0, 0.1, -0.2, 0.05],
                                  [1.0, 0.12, 0.07, -0.09], 1e-3, 10000)
    traj = _rows(res)
    # no time components in the connection: tdot stays exactly 1
    assert np.all(traj[:, 4] == 1.0)
    m, s = 1.7, 0.4
    u = np.array([0.0, 0.6, 0.8])
    ref = None
    for row in traj[::50]:
        st = mech.MassiveState(row[0], row[1:4], row[5:8], u)
        ch = mech.massive_charges(st, m, s)
        if ref is None:
            ref = ch
            continue
        for key in ref:
            assert np.max(np.abs(np.atleast_1d(ch[key] - ref[key]))) < 1e-12


def test_spin_separately_conserved():
    st = mech.MassiveState(0.0, np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    moved = mech.free_flow(st, 5.0)
    assert np.array_equal(moved.u, st.u)


def test_massive_lift_components():
    st = mech.MassiveState(0.7, np.array([1.0, 2.0, 3.0]), np.array([0.2, -0.1, 0.4]),
                           np.array([0.0, 0.0, 1.0]))
    # pure time translation
    prm = mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 0.0, 0.0, 1.0)
    dt, dx, dv, du = mech.massive_lift(prm, st)
    assert dt == 1.0 and np.allclose(dx, 0) and np.allclose(dv, 0) and np.allclose(du, 0)
    # boost gains velocity
    prm = mech.SchParams(np.zeros((3, 3)), np.array([2.0, 0.0, 0.0]), np.zeros(3), 0.0, 0.0, 0.0)
    dt, dx, dv, du = mech.massive_lift(prm, st)
    assert dt == 0.0 and np.allclose(dx, [2.0 * st.t, 0, 0]) and np.allclose(dv, [2.0, 0, 0])
    # expansion gains kappa (x - v t) in the velocity slot
    prm = mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 1.0, 0.0, 0.0)
    dt, dx, dv, du = mech.massive_lift(prm, st)
    assert np.allclose(dv, st.x - st.v * st.t)
    assert dt == pytest.approx(st.t**2)


def test_noether_charge_signs():
    st = mech.MassiveState(0.7, np.array([1.0, 2.0, 3.0]), np.array([0.2, -0.1, 0.4]),
                           np.array([0.0, 0.0, 1.0]))
    m, s = 1.3, 0.5
    ch = mech.massive_charges(st, m, s)
    prm = mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 0.0, 0.0, 1.0)
    assert mech.massive_noether_charge(prm, st, m, s) == pytest.approx(-ch["H"])
    prm = mech.SchParams(np.zeros((3, 3)), np.array([1.0, 0, 0]), np.zeros(3), 0.0, 0.0, 0.0)
    assert mech.massive_noether_charge(prm, st, m, s) == pytest.approx(-ch["G"][0])
    prm = mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 1.0, 0.0, 0.0)
    assert mech.massive_noether_charge(prm, st, m, s) == pytest.approx(-ch["K"])


def test_noether_relation_all_generators():
    rng = np.random.default_rng(11)
    pts = [
        mech.MassiveState(rng.normal(), rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        for _ in range(50)
    ]
    m, s = 1.3, 0.7
    om = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    generators = [
        mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 0, 0, 1),
        mech.SchParams(om, np.zeros(3), np.zeros(3), 0, 0, 0),
        mech.SchParams(np.zeros((3, 3)), np.array([1.0, 2.0, 0.0]), np.zeros(3), 0, 0, 0),
        mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.array([1.0, 0.0, 2.0]), 0, 0, 0),
        mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 1, 0, 0),
        mech.SchParams(np.zeros((3, 3)), np.zeros(3), np.zeros(3), 0, 1, 0),
        mech.SchParams(om, np.array([0.3, 0, 0]), np.array([0, 0.2, 0]), 0.5, -0.25, 1.5),
    ]
    for prm in generators:
        assert mech.massive_noether_residual(prm, m, s, pts) < 1e-6


def _massive_lift_case():
    rng = np.random.default_rng(3)
    states = []
    for _ in range(3):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        states.append(mech.MassiveState(rng.normal(), rng.normal(size=3), rng.normal(size=3), u))
    om = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    prm = mech.SchParams(om, np.array([0.3, 0.0, 0.1]), np.array([0.0, 0.2, 0.0]), 0.5, -0.25, 1.5)
    return prm, states


def test_presymplectic_massive_lift_symmetric():
    prm, states = _massive_lift_case()
    assert mech.presymplectic_residual_massive(prm, states, 1.3, 0.7) < 1e-6


def test_presymplectic_massive_doubled_dv_is_not_symmetric(monkeypatch):
    # negative control: a lift with its velocity component doubled
    prm, states = _massive_lift_case()
    true_lift = mech.massive_lift

    def doubled_dv(params, state):
        dt, dx, dv, du = true_lift(params, state)
        return dt, dx, 2.0 * dv, du

    monkeypatch.setattr(mech, "massive_lift", doubled_dv)
    assert mech.presymplectic_residual_massive(prm, states, 1.3, 0.7) > 0.1


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------


def test_poisson_central_extension():
    rep = mech.poisson_brackets(m=1.3, s=0.5, n_points=20, seed=2)
    for A in range(3):
        for B in range(3):
            lo, hi = rep["tables"][f"{{P{A},G{B}}}"]
            target = 1.3 if A == B else 0.0
            assert abs(lo - target) < 1e-9 and abs(hi - target) < 1e-9


def test_poisson_spin_sector_consistent_sign():
    rep = mech.poisson_brackets(m=2.0, s=0.25, n_points=20, seed=4)
    assert rep["jj_sign"] in (1.0, -1.0)
    lo, hi = rep["tables"]["{J0,J1}/J2"]
    assert abs(lo - rep["jj_sign"]) < 1e-9 and abs(hi - rep["jj_sign"]) < 1e-9


def test_poisson_spin_sector_sign_flip_is_reported(monkeypatch):
    # a sphere frame of alternating orientation flips the spin part of
    # {J0, J1} at every other point; where the spin s u dominates q x p the
    # ratio to J2 changes sign, and the report says so with jj_sign 0
    frame = mech._sphere_frame
    calls = []

    def alternating(u):
        calls.append(u)
        e1, e2 = frame(u)
        return (e1, e2) if len(calls) % 2 else (e2, e1)

    monkeypatch.setattr(mech, "_sphere_frame", alternating)
    rep = mech.poisson_brackets(m=1.0, s=1000.0, n_points=4, seed=0)
    assert len(calls) == 4
    assert rep["jj_sign"] == 0.0


def test_poisson_brackets_table_is_pinned():
    # recorded before the constant P and G gradients moved out of the loop
    rep = mech.poisson_brackets(1.0, 0.5, n_points=20, seed=0)
    unit, zero = (1.0, 1.0), (0.0, 0.0)
    tables = {f"{{P{A},G{B}}}": unit if A == B else zero for A in range(3) for B in range(3)}
    tables["{J0,J1}/J2"] = (-1.0000000000000002, -0.9999999999999942)
    assert rep == {"m": 1.0, "s": 0.5, "tables": tables, "jj_sign": -1.0}


@pytest.mark.parametrize("build, match", [
    (lambda: mech.MassiveState(0.0, np.zeros(3), np.zeros(3), np.zeros(3)), "spin direction"),
    (lambda: mech.poisson_brackets(m=0.0, s=0.5, n_points=1, seed=0), "mass must be positive"),
    (lambda: mech.poisson_brackets(m=-1.0, s=0.5, n_points=1, seed=0), "mass must be positive"),
], ids=["zero_spin", "zero_mass", "negative_mass"])
def test_massive_input_outside_the_model_is_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_poisson_requires_spin():
    with pytest.raises(ValueError):
        mech.poisson_brackets(m=1.0, s=0.0, n_points=1, seed=0)
    # rejected before any draw
    for s, n_points in [(0.0, 0), (0.0, -3), (0.5, 0), (0.5, -3)]:
        with pytest.raises(ValueError):
            mech.poisson_brackets(m=1.0, s=s, n_points=n_points, seed=0)


# ---------------------------------------------------------------------------
# photon
# ---------------------------------------------------------------------------


def test_photon_flow_examples():
    st = mech.PhotonState(0.3, np.array([0.0, 0.0, 0.0]), 1.5, np.array([1.0, 0.0, 0.0]))
    moved = mech.photon_flow(st, 2.0)
    assert np.allclose(moved.x, [2.0, 0.0, 0.0])
    assert moved.t == st.t and moved.E == st.E and np.array_equal(moved.u, st.u)
    frozen = mech.photon_flow(st, 0.0)
    assert frozen.t == st.t and frozen.E == st.E
    assert np.array_equal(frozen.x, st.x) and np.array_equal(frozen.u, st.u)


def test_photon_unit_direction_required():
    with pytest.raises(ValueError):
        mech.PhotonState(0.0, np.zeros(3), 1.0, np.array([1.0, 1.0, 0.0]))


def test_photon_flow_matches_lightlike_geodesic():
    st = mech.PhotonState(0.5, np.array([0.1, 0.2, 0.0]), 1.0, np.array([0.0, 0.6, 0.8]))
    res = integrate.integrate_geodesic(Connection.zero(3), [st.t, *st.x], [0.0, *st.u], 1e-2, 100)
    traj = _rows(res)
    assert res["tdot_class"] == "lightlike"
    end = mech.photon_flow(st, 1.0)
    assert np.allclose(traj[-1][1:4], end.x, atol=1e-12)
    assert traj[-1][0] == st.t


def test_photon_charge_drift():
    omega = [[Poly.const(1, c) for c in row] for row in [[0, 1, "1/2"], [-1, 0, 0], ["-1/2", 0, 0]]]
    eta = [Poly.t(1) * 2 + Poly.const(1, 1), Poly.t(1) ** 3, Poly.const(1, 2)]
    xi = Poly.t(1) ** 2 + Poly.const(1, 1)
    st = mech.PhotonState(0.7, np.array([0.2, -0.1, 0.4]), 1.3, np.array([0.0, 0.6, 0.8]))
    k, s = 2.0, 0.5
    ref = mech.photon_charge(st, k, s, omega, eta, xi)
    # stepping flow: 10^3 arclength steps
    cur = st
    for _ in range(1000):
        cur = mech.photon_flow(cur, 1e-3)
        assert abs(mech.photon_charge(cur, k, s, omega, eta, xi) - ref) < 1e-12


def test_photon_charge_boost_is_conserved():
    # eta(t) = beta t: the boost charge is constant because motion is
    # instantaneous (t never changes along the flow)
    z = Poly.zero(1)
    beta = [Poly.t(1), z, z]
    st = mech.PhotonState(1.1, np.array([0.3, 0.0, 0.0]), 0.9, np.array([0.0, 1.0, 0.0]))
    val = mech.photon_charge(st, 1.0, 0.0, [[z] * 3] * 3, beta, z)
    moved = mech.photon_flow(st, 7.0)
    assert mech.photon_charge(moved, 1.0, 0.0, [[z] * 3] * 3, beta, z) == pytest.approx(val)
    # and equals k u.beta t = -G.beta with G = -P t
    assert val == pytest.approx(1.0 * st.u[0] * st.t)


def test_photon_charge_rejects_bad_inputs():
    z, t = Poly.zero(1), Poly.t(1)
    st = mech.PhotonState(0.0, np.zeros(3), 1.0, np.array([1.0, 0.0, 0.0]))
    for k, omega, match in [
        (-1.0, [[z] * 3] * 3, "color k must be positive"),
        # zero at t = 0, where the state sits, but not antisymmetric
        (1.0, [[z, t, z], [t, z, z], [z] * 3], "antisymmetric 3x3"),
        (1.0, [[z] * 2] * 2, "antisymmetric 3x3"),
    ]:
        with pytest.raises(ValueError, match=match):
            mech.photon_charge(st, k, 0.0, omega, [z] * 3, z)


def test_photon_charge_time_dependent_rotation_needs_spinless():
    # omega(t) is fine for s = 0 and conserved along the flow, but the
    # spin term forces omega' = 0 once s != 0
    z = Poly.zero(1)
    om_t = [[z, Poly.t(1), z], [Poly.t(1) * (-1), z, z], [z, z, z]]
    st = mech.PhotonState(0.8, np.array([0.4, -0.2, 0.1]), 1.2, np.array([0.0, 0.6, 0.8]))
    val = mech.photon_charge(st, 2.0, 0.0, om_t, [z] * 3, z)
    moved = mech.photon_flow(st, 3.0)
    # x moves along u, so (x cross u).omega_vec picks up no u-parallel part
    assert mech.photon_charge(moved, 2.0, 0.0, om_t, [z] * 3, z) == pytest.approx(val)
    with pytest.raises(ValueError, match="spin obstructs"):
        mech.photon_charge(st, 2.0, 0.5, om_t, [z] * 3, z)


def test_sch_params_validate_rotation_block():
    with pytest.raises(ValueError):
        mech.SchParams(np.ones((3, 3)), np.zeros(3), np.zeros(3), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        mech.SchParams(np.zeros((2, 2)), np.zeros(3), np.zeros(3), 0.0, 0.0, 0.0)


def test_photon_presymplectic_residuals():
    z = Poly.zero(1)

    def omega_const(w):
        m = [[z for _ in range(3)] for _ in range(3)]
        m[0][1] = Poly.const(1, w)
        m[1][0] = Poly.const(1, -w)
        return m

    def omega_linear(w):
        m = [[z for _ in range(3)] for _ in range(3)]
        m[0][1] = Poly.t(1) * w
        m[1][0] = Poly.t(1) * (-w)
        return m

    eta = [Poly.t(1) * 2, Poly.const(1, 1), z]
    xi = Poly.t(1) ** 2
    k, s = 2.0, 1.0
    states = [
        mech.PhotonState(0.3, np.array([0.5, -0.2, 0.8]), 1.5, np.array([0.0, 0.6, 0.8])),
        mech.PhotonState(-0.4, np.array([1.0, 0.3, 0.0]), 0.7, np.array([1.0, 0.0, 0.0])),
    ]
    lift = mech.photon_lift(k, omega_const(1), eta, xi)
    assert mech.presymplectic_residual_photon(lift, states, k, s) < 1e-6
    # spinning photon with a time-dependent rotation: non-symmetry witness
    wdot = 1
    lift_bad = mech.photon_lift(k, omega_linear(wdot), [z] * 3, z)
    residual = mech.presymplectic_residual_photon(lift_bad, states, k, s)
    assert residual > 0.1 * s * wdot
    # the same rotation with s = 0 is a symmetry again
    assert mech.presymplectic_residual_photon(lift_bad, states, k, 0.0) < 1e-6


# ---------------------------------------------------------------------------
# inverse-square charges
# ---------------------------------------------------------------------------


def _series(out):
    """The x rows and the E, D, K series of a central-potential run, as
    array views."""
    traj = np.frombuffer(out["trajectory"]).reshape(-1, 6)
    return traj[:, :3], {key: np.frombuffer(out[key]) for key in "EDK"}


@pytest.mark.parametrize("m, c", [(1.0, -1.0), (1.7, 0.3)])
def test_charge_series_round_as_the_array_form(m, c):
    # the series as numpy computes them from the stacked rows, bit for bit
    h, steps = 2e-3, 1500
    out = integrate.inverse_square_trajectory(m, c, [0.4, -0.5, 0.9], [0.3, -0.2, 0.7], h, steps)
    traj = np.frombuffer(out["trajectory"]).reshape(-1, 6)
    xs, vs = traj[:, :3], traj[:, 3:]
    t = h * np.arange(steps + 1)
    r2 = np.sum(xs * xs, axis=1)
    E = 0.5 * m * np.sum(vs * vs, axis=1) + c / r2
    D = m * np.sum(vs * xs, axis=1) - 2.0 * E * t
    K = 0.5 * m * r2 - t * D - E * t * t
    for key, want in zip("EDK", (E, D, K)):
        assert np.array_equal(np.frombuffer(out[key]), want), key


def test_jacobi_charges_circular_orbit():
    m, c = 1.0, -1.0
    v = math.sqrt(2.0)
    x, out = _series(integrate.inverse_square_trajectory(
        m, c, [1.0, 0.0, 0.0], [0.0, v, 0.0], 1e-3, 10000
    ))
    assert np.min(np.sqrt(np.sum(x ** 2, axis=1))) >= 0.5
    assert np.max(np.abs(out["E"] - out["E"][0])) < 1e-9
    assert np.max(np.abs(out["D"] - out["D"][0])) < 1e-6
    assert np.max(np.abs(out["K"] - out["K"][0])) < 1e-6


def test_virial_identity_inverse_square():
    # d^2/dt^2 (m x^2 / 2) equals 2E when the potential has degree -2;
    # measured by central differences of the radius series
    m, c = 1.0, -1.0
    x, out = _series(integrate.inverse_square_trajectory(
        m, c, [1.2, 0.0, 0.0], [0.1, 1.3, 0.0], 1e-3, 4000
    ))
    h = 1e-3
    half_mr2 = 0.5 * m * np.sum(x ** 2, axis=1)
    second = (half_mr2[2:] - 2.0 * half_mr2[1:-1] + half_mr2[:-2]) / h**2
    expect = 2.0 * out["E"][1:-1]
    assert np.max(np.abs(second - expect)) < 1e-5


def test_virial_identity_detects_other_degrees():
    # for the harmonic potential (degree +2) the same combination misses
    # by -(k+2) U != 0
    x, out = _series(integrate.harmonic_trajectory(
        1.0, 2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3, 4000
    ))
    h = 1e-3
    half_mr2 = 0.5 * np.sum(x ** 2, axis=1)
    second = (half_mr2[2:] - 2.0 * half_mr2[1:-1] + half_mr2[:-2]) / h**2
    expect = 2.0 * out["E"][1:-1]
    assert np.max(np.abs(second - expect)) > 0.5


def test_jacobi_free_case_closed_form():
    # with no potential, D = p.x - 2 E t reduces to p.x0 for all t
    m = 1.0
    _, out = _series(integrate.inverse_square_trajectory(
        m, 0.0, [1.0, 0.5, 0.0], [0.3, -0.2, 0.1], 1e-3, 2000
    ))
    p0 = m * np.array([0.3, -0.2, 0.1])
    expect = float(p0 @ np.array([1.0, 0.5, 0.0]))
    assert np.max(np.abs(out["D"] - expect)) < 1e-10


def test_jacobi_rmin_guard():
    # weak coupling keeps the run ballistic, so the path crosses the
    # guarded ball and the integrator must refuse
    with pytest.raises(ValueError):
        integrate.inverse_square_trajectory(1.0, -1e-10, [0.01, 0.0, 0.0], [-1.0, 0.0, 0.0], 1e-3, 100)


def test_harmonic_dilation_charge_drifts():
    _, out = _series(integrate.harmonic_trajectory(
        1.0, 2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3, 10000
    ))
    assert np.max(np.abs(out["D"] - out["D"][0])) > 1e-2


def test_rk4_order_on_harmonic():
    conn = _harmonic_connection()

    def max_err(h):
        steps = int(round(2.0 / h))
        res = integrate.integrate_geodesic(conn, [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0], h, steps)
        traj = _rows(res)
        return np.max(np.abs(traj[:, 1] - np.cos(2.0 * traj[:, 0])))

    exponent = math.log2(max_err(2e-3) / max_err(1e-3))
    assert 3.7 < exponent < 4.3
