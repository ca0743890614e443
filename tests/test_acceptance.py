"""Acceptance suite: the package's exit criteria.

Each criterion runs at its stated tolerance, prints one PASS/FAIL line,
and enforces its runtime budget.  Everything symbolic is exact rational
arithmetic; numeric drift bounds are as stated, nothing is calibrated
after the fact.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ncsym import em, fluids, integrate, mechanics as mech, representations as reps, solver
from ncsym.geometry import flat_structure, rest_observer
from ncsym.lie import Connection, TwoForm
from ncsym.poly import Poly

from conftest import cnc_system_residuals


def _report(name: str, ok: bool, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"{'PASS' if ok else 'FAIL'}  {name}  [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_dimension_table():
    started = time.monotonic()
    ok = True
    ok &= solver.solve("sch", 3, solver.solve("sch-expanded", 3), z=Fraction(2)).dim == 12
    ok &= solver.solve("sch-expanded", 3).dim == 13
    ok &= solver.solve("gal", 3).dim == 10
    c1_3 = solver.solve("cmil", 3)
    ok &= c1_3.dim == 16
    ok &= solver.solve("cga", c1_3.d, c1_3, z=Fraction(1)).dim == 15
    c1_2 = solver.solve("cmil", 2)
    ok &= solver.solve("cga", c1_2.d, c1_2, z=Fraction(1)).dim == 10
    ok &= solver.solve("sch", 2, solver.solve("sch-expanded", 2), z=Fraction(2)).dim == 8
    for d in (2, 3):
        for N in (1, 2, 3):
            expect = d * (d - 1) // 2 + 3 + (N + 1) * d
            alt = solver.solve("alt", d, N=N)
            ok &= alt.dim == expect
            solver.structure_constants(alt)  # raises NotClosedError unless it closes
    _report("criterion 1: solver dimension table", ok, started, 10.0)


def test_criterion_2_closure_and_jacobi():
    started = time.monotonic()
    ok = True
    sch = solver.solve("sch", 3, solver.solve("sch-expanded", 3), z=Fraction(2))
    c1 = solver.solve("cmil", 3)
    cga = solver.solve("cga", c1.d, c1, z=Fraction(1))
    alt23 = solver.solve("alt", 3, N=3)  # dynamical exponent 2/3
    for basis in (sch, cga, c1, alt23):
        sc = solver.structure_constants(basis)
        ok &= sc.antisymmetry_ok()
        ok &= sc.jacobi_ok()
    _report("criterion 2: exact closure and Jacobi identities", ok, started, 30.0)


def test_criterion_3_representations():
    started = time.monotonic()
    ok = True
    sign = None
    for kind in ("sch", "cga"):
        report = reps.verify_representation(kind, 3)
        ok &= report["faithful"]
        ok &= report["mismatches"] == []
        ok &= report["sign"] in (1, -1)
        sign = report["sign"] if sign is None else sign
        ok &= report["sign"] == sign
    sch = solver.solve("sch", 3, solver.solve("sch-expanded", 3), z=Fraction(2))
    sc = solver.structure_constants(sch)
    rot = {i for i, l in enumerate(sch.labels) if l.startswith("omega")}
    radical = {i for i, l in enumerate(sch.labels) if l.startswith(("beta", "gamma"))}
    sl2 = {sch.labels.index("kappa"), sch.labels.index("lambda"), sch.labels.index("epsilon")}
    levi = reps.levi_check(sc, radical, rot, sl2)
    ok &= levi["ideal"] and levi["abelian"] and levi["quotient"]
    c1 = solver.solve("cmil", 3)
    cga = solver.solve("cga", c1.d, c1, z=Fraction(1))
    sc = solver.structure_constants(cga)
    rot = {i for i, l in enumerate(cga.labels) if l.startswith("omega")}
    radical = {i for i, l in enumerate(cga.labels) if l.startswith(("alpha", "beta", "gamma"))}
    sl2 = {cga.labels.index("kappa"), cga.labels.index("lambda"), cga.labels.index("epsilon")}
    levi = reps.levi_check(sc, radical, rot, sl2)
    ok &= levi["ideal"] and levi["abelian"] and levi["quotient"]
    _report("criterion 3: faithful bracket-consistent representations + Levi splits", ok, started, 10.0)


def test_criterion_4_inclusions_and_scans():
    started = time.monotonic()
    ok = True
    # z = 2 timelike generators solve the lightlike system with f + g = 0
    sch = solver.solve("sch", 3, solver.solve("sch-expanded", 3), z=Fraction(2))
    U = rest_observer(3)
    F0 = TwoForm.zero(3)
    for X, (f, g) in zip(sch.generators, sch.factors):
        ok &= (f + g).is_zero()
        ok &= all(r.is_zero() for r in cnc_system_residuals(X, f, g, U, F0))
    cnc = solver.solve("cnc", 3, deg_t=2)
    ok &= solver.span_contains(cnc.generators, sch.generators)
    # upper-index connection transport vanishes for the lightlike family
    for X in cnc.generators:
        for c in range(4):
            for A in range(1, 4):
                for B in range(1, 4):
                    ok &= X[c].differentiate(A).differentiate(B).is_zero()
    # the z-slices of the lightlike family equal the conformal solver spans
    for z in (Fraction(2), Fraction(1), solver.INF):
        sliced = solver.solve("cnc-z", cnc.d, cnc, z=z)
        ref = solver.solve("cgal-z", 3, z=z, deg_t=2)
        ok &= solver.span_equal(sliced, ref.generators)
    # polynomial-family closure happens exactly at z = 2/N
    grid = [Fraction(2), Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(3, 2)]
    for N in (1, 2, 3, 4):
        verdicts = solver.alt_closure_scan(2, N, grid)
        for z in grid:
            ok &= verdicts[str(z)] == (z == Fraction(2, N))
    _report("criterion 4: inclusion chain, slice identities, closure scan", ok, started, 60.0)


def test_criterion_5_massive_mechanics():
    started = time.monotonic()
    ok = True
    # free particle: all six charges below 1e-12 drift over 10^4 steps
    res = integrate.integrate_geodesic(
        Connection.zero(3), [0.0, 0.1, -0.2, 0.05], [1.0, 0.12, 0.07, -0.09], 1e-3, 10000
    )
    traj = np.frombuffer(res["trajectory"]).reshape(-1, 8)
    m, s = 1.7, 0.4
    u = np.array([0.0, 0.6, 0.8])
    ref = None
    for row in traj[::25]:
        st = mech.MassiveState(row[0], row[1:4], row[5:8], u)
        ch = mech.massive_charges(st, m, s)
        if ref is None:
            ref = ch
            continue
        for key in ref:
            ok &= float(np.max(np.abs(np.atleast_1d(ch[key] - ref[key])))) < 1e-12
    # inverse-square charges over 10^4 RK4 steps at h = 1e-3, radius >= 0.5
    orbit = integrate.inverse_square_trajectory(
        1.0, -1.0, [1.0, 0.0, 0.0], [0.0, math.sqrt(2.0), 0.0], 1e-3, 10000
    )
    x = np.frombuffer(orbit["trajectory"]).reshape(-1, 6)[:, :3]
    D, K = np.frombuffer(orbit["D"]), np.frombuffer(orbit["K"])
    ok &= float(np.min(np.sqrt(np.sum(x ** 2, axis=1)))) >= 0.5
    ok &= float(np.max(np.abs(D - D[0]))) < 1e-6
    ok &= float(np.max(np.abs(K - K[0]))) < 1e-6
    # harmonic control: the dilation charge must visibly drift
    control = integrate.harmonic_trajectory(1.0, 2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3, 10000)
    D = np.frombuffer(control["D"])
    ok &= float(np.max(np.abs(D - D[0]))) > 1e-2
    # Poisson table at 20 random points
    table = mech.poisson_brackets(m=1.3, s=0.5, n_points=20, seed=2)
    for A in range(3):
        for B in range(3):
            lo, hi = table["tables"][f"{{P{A},G{B}}}"]
            target = 1.3 if A == B else 0.0
            ok &= abs(lo - target) < 1e-9 and abs(hi - target) < 1e-9
    _report("criterion 5: massive particle drift and Poisson structure", ok, started, 60.0)


def test_criterion_6_photon_suite():
    started = time.monotonic()
    ok = True
    st = mech.PhotonState(0.7, np.array([0.2, -0.1, 0.4]), 1.3, np.array([0.0, 0.6, 0.8]))
    moved = mech.photon_flow(st, 5.0)
    ok &= moved.t == st.t  # instantaneous: exact
    omega = [[Poly.const(1, c) for c in row] for row in [[0, 1, "1/2"], [-1, 0, 0], ["-1/2", 0, 0]]]
    eta = [Poly.t(1) * 2 + Poly.const(1, 1), Poly.t(1) ** 3, Poly.const(1, 2)]
    xi = Poly.t(1) ** 2 + Poly.const(1, 1)
    k, s = 2.0, 0.5
    ref = mech.photon_charge(st, k, s, omega, eta, xi)
    cur = st
    for _ in range(1000):
        cur = mech.photon_flow(cur, 1e-3)
        ok &= abs(mech.photon_charge(cur, k, s, omega, eta, xi) - ref) < 1e-12
    z = Poly.zero(1)
    om_const = [[z] * 3 for _ in range(3)]
    om_const[0] = [z, Poly.const(1, 1), z]
    om_const[1] = [Poly.const(1, -1), z, z]
    om_lin = [[z] * 3 for _ in range(3)]
    om_lin[0] = [z, Poly.t(1), z]
    om_lin[1] = [Poly.t(1) * (-1), z, z]
    states = [
        mech.PhotonState(0.3, np.array([0.5, -0.2, 0.8]), 1.5, np.array([0.0, 0.6, 0.8])),
        mech.PhotonState(-0.4, np.array([1.0, 0.3, 0.0]), 0.7, np.array([1.0, 0.0, 0.0])),
    ]
    lift = mech.photon_lift(2.0, om_const, [Poly.t(1) * 2, Poly.const(1, 1), z], Poly.t(1) ** 2)
    ok &= mech.presymplectic_residual_photon(lift, states, 2.0, 1.0) < 1e-6
    lift_bad = mech.photon_lift(2.0, om_lin, [z] * 3, z)
    ok &= mech.presymplectic_residual_photon(lift_bad, states, 2.0, 1.0) > 0.1 * 1.0 * 1.0
    _report("criterion 6: photon charges and presymplectic residuals", ok, started, 30.0)


def test_criterion_7_fluid_suite():
    started = time.monotonic()
    ok = True
    d = 3
    theta, rho = fluids.self_similar_free(a=1.0, rho0=2.0, d=d)
    pts = fluids.random_points(d, 100, seed=21)
    base = fluids.fluid_residual(theta, rho, fluids.ZERO_POTENTIAL, pts)
    ok &= max(base.values()) < 1e-10
    kappa = 0.4
    th_e, rh_e = fluids.expansion(theta, rho, d, kappa)
    pts_e = fluids.random_points(d, 100, seed=22, predicate=lambda c: 1.0 - kappa * c[0] > 0.05)
    ok &= max(fluids.fluid_residual(th_e, rh_e, fluids.ZERO_POTENTIAL, pts_e).values()) < 1e-9
    th_b, rh_b = fluids.boost(theta, rho, (0.7, 0.1, -0.4))
    ok &= max(fluids.fluid_residual(th_b, rh_b, fluids.ZERO_POTENTIAL, pts).values()) < 1e-9
    thu, rhu = fluids.uniform_flow([0.3, -0.2, 0.5])
    a = (1.0, 0.0, 0.0)
    th_a, rh_a = fluids.acceleration(thu, rhu, a)
    ok &= max(fluids.fluid_residual(th_a, rh_a, fluids.ZERO_POTENTIAL, pts).values()) > 0.1
    # generalized-expansion grid scan singles out (1, 1/2, -1, d)
    special = (1.0, 0.5, -1.0, float(d))
    solutions = [fluids.self_similar_free(a=1.0, rho0=2.0, d=d), fluids.uniform_flow([0.4, -0.2, 0.1])]
    pts_g = fluids.random_points(d, 40, seed=23, predicate=lambda c: 1.0 - 0.35 * c[0] > 0.1)
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.25, 0.5, 1.0):
            for gam in (-2.0, -1.0, 0.0):
                for delta in (float(d - 1), float(d), float(d + 1)):
                    worst = 0.0
                    for th0, rh0 in solutions:
                        th2, rh2 = fluids.generalized_expansion(th0, rh0, d, 0.35, alpha, beta, gam, delta)
                        res = fluids.fluid_residual(th2, rh2, fluids.ZERO_POTENTIAL, pts_g)
                        worst = max(worst, max(res.values()))
                    if (alpha, beta, gam, delta) == special:
                        ok &= worst < 1e-9
                    else:
                        ok &= worst > 1e-6
    ok &= fluids.polytropic_exponent(Fraction(2), 3) == Fraction(5, 3)
    # inverse-density gas: the time-dilation charge matches across the pair
    c = 0.8
    V = fluids.Potential("chaplygin", c=c)
    th_c, rh_c = fluids.chaplygin_rest(c=c, rho0=1.2, t0=0.5)
    box = [(-1.0, 1.0)] * 3
    before = fluids.fluid_charges(th_c, rh_c, d, box, t=0.3, V=V)
    th_t, rh_t = fluids.time_dilation(th_c, rh_c, 1.7)
    after = fluids.fluid_charges(th_t, rh_t, d, box, t=0.3, V=V)
    ok &= abs(before["Delta"] - after["Delta"]) < 1e-6
    _report("criterion 7: fluid symmetry suite", ok, started, 60.0)


def test_criterion_8_em_suite():
    started = time.monotonic()
    ok = True
    nc = flat_structure(3)
    lib = em.sourcefree_library()
    ok &= len(lib) >= 5
    c1 = solver.solve("cmil", 3)
    ok &= c1.dim == 16
    em.require_source_free(lib, nc)
    for X in c1.generators:
        ok &= not em.failing_fields(X, lib, nc)
    rot_t = solver.rotation(3, 1, 2, k=1)
    ok &= 0 in em.failing_fields(rot_t, lib, nc)
    rows, triples = em._maxwell_rows(rot_t, lib[:1], nc)
    ok &= any(i >= len(triples) for i, _ in rows)  # a divergence row survives
    _report("criterion 8: field-equation symmetry suite", ok, started, 30.0)
