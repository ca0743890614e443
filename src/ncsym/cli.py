"""Command-line front end: solvers, verifiers and simulations.

Exit codes: 0 success / verification pass, 1 usage or domain error,
2 verification failure (inverted by --negative-control where offered).
Output is byte-stable for fixed inputs and seed: canonical generator
ordering and sorted JSON keys throughout.  Each subcommand imports only
the modules it uses, so ``--help``, ``solve``, ``bracket-table``,
``rep-check``, ``em-check``, ``selftest`` and ``geodesic`` without
``--out`` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# No numpy product here exceeds 8x8: a BLAS thread pool would only burn CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=str)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seed(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


# Each family in --family order: the options it reads (any other one given is
# rejected) and whether it has structure constants (bracket-table's choices).
# A copy of what argparse needs from solver.FAMILIES, which tests pin equal,
# so that --help and usage errors load no solver.
_FAMILIES = {
    "cgal": (("deg_t",), False),
    "cgal-z": (("z", "deg_t"), False),
    "gal": ((), True),
    "sch": (("z",), True),
    "sch-expanded": ((), True),
    "cnc": (("deg_t",), False),
    "cmil": (("branch",), True),
    "cga": (("z",), True),
    "alt": (("N",), True),
}


def _solve_basis(args) -> tuple:
    """(AlgebraBasis, StructureConstants or None) for a family request."""
    family = args.family
    reads, closed = _FAMILIES[family]
    given = {option: value for option in ("z", "deg_t", "branch", "N")
             if (value := getattr(args, option, None)) is not None}
    for option in given:
        if option not in reads:
            flag = "--" + option.replace("_", "-")
            raise ValueError(f"{flag} is not an option of --family {family}")

    from . import solver

    basis = solver._solve(family, args.d, **given)
    return basis, solver.structure_constants(basis) if closed else None


def cmd_solve(args) -> int:
    basis, sc = _solve_basis(args)
    _write_json(basis.to_report(sc), args.out)
    return 0


def cmd_bracket_table(args) -> int:
    basis, sc = _solve_basis(args)
    payload = {
        "family": basis.family,
        "d": basis.d,
        "dim": basis.dim,
        "labels": basis.labels,
        "antisymmetric": sc.antisymmetry_ok(),
        "jacobi": sc.jacobi_ok(),
        "structure_constants": sc.to_entries(),
    }
    _write_json(payload, args.out)
    return 0 if payload["antisymmetric"] and payload["jacobi"] else 2


def cmd_rep_check(args) -> int:
    from . import representations

    report = representations.verify_representation(args.rep, args.d)
    _write_json(report, args.out)
    return 0 if representations.verdict(report) else 2


def cmd_geodesic(args) -> int:
    from .geometry import flat_structure, newtonian_connection
    from .integrate import integrate_geodesic
    from .poly import Poly

    d = 3
    if args.model == "free":
        conn = flat_structure(d).connection
    else:  # harmonic, the only other model argparse accepts
        V = Poly.zero(d)
        for A in range(1, d + 1):
            V = V + Poly.x(d, A) * Poly.x(d, A) * Fraction(1, 2)
        conn = newtonian_connection(d, V).connection
    x0 = [0.0, 1.0, 0.0, 0.0]
    v0 = [1.0, 0.0, 0.5, 0.0]
    res = integrate_geodesic(conn, x0, v0, args.h, args.steps)
    n = 2 * (d + 1)
    if args.out:
        import numpy as np

        from . import mechanics

        traj = np.frombuffer(res["trajectory"]).reshape(-1, n)
        rows = len(traj)
        spin = np.broadcast_to([0.0, 0.0, 1.0], (rows, 3))
        ch = mechanics.massive_charges(
            mechanics.MassiveState(traj[:, 0], traj[:, 1:4], traj[:, 5:8], spin), 1.0, 0.0
        )
        table = np.column_stack(
            [np.arange(rows) * args.h, traj, ch["H"], ch["D"], ch["K"], ch["P"], ch["G"], ch["J"]]
        )
        header = (
            ["tau"]
            + [f"x{a}" for a in range(d + 1)]
            + [f"xdot{a}" for a in range(d + 1)]
            + ["H", "D", "K"]
            + [f"P{A}" for A in range(1, d + 1)]
            + [f"G{A}" for A in range(1, d + 1)]
            + [f"J{A}" for A in range(1, d + 1)]
        )
        # the csv module's default dialect: comma-separated, CRLF line ends,
        # and no field here needs quoting
        row_format = ",".join(["%.17g"] * len(header)) + "\r\n"
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for row in table:
                fh.write(row_format % tuple(row.tolist()))
    _write_json(
        {
            "model": args.model,
            "steps": args.steps,
            "h": args.h,
            "tdot_class": res["tdot_class"],
            "final": res["trajectory"][-n:].tolist(),
        },
        None,
    )
    return 0


def cmd_noether(args) -> int:
    import numpy as np

    from . import mechanics
    from .poly import Poly

    tolerance = 1e-6  # the bound each model's residual is reported against
    rng = np.random.default_rng(_seed(args))
    if args.model == "massive":
        m, s = 1.3, 0.5
        pts = [
            mechanics.MassiveState(
                rng.normal(), rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
            )
            for _ in range(10)
        ]
        om = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        params = mechanics.SchParams(om, np.array([1.0, 0.0, 2.0]),
                                     np.array([0.0, 1.0, 0.0]), 0.7, -0.3, 1.1)
        residual = mechanics.massive_noether_residual(params, m, s, pts)
        payload = {"model": "massive", "noether_residual": residual, "tolerance": tolerance}
        _write_json(payload, args.out)
        return 0 if residual < tolerance else 2
    # photon, the only other model argparse accepts
    k, s = 2.0, 1.0
    z = Poly.zero(1)
    om = [[z for _ in range(3)] for _ in range(3)]
    om[0][1] = Poly.const(1, 1)
    om[1][0] = Poly.const(1, -1)
    eta = [Poly.t(1), Poly.const(1, 1), z]
    xi = Poly.t(1) * Poly.t(1)
    lift = mechanics.photon_lift(k, om, eta, xi)
    states = []
    for _ in range(4):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        states.append(mechanics.PhotonState(rng.normal(), rng.normal(size=3), rng.normal(), u))
    residual = mechanics.presymplectic_residual_photon(lift, states, k, s)
    payload = {"model": "photon", "symmetry_residual": residual, "tolerance": tolerance}
    _write_json(payload, args.out)
    return 0 if residual < tolerance else 2


def cmd_fluid_check(args) -> int:
    from . import fluids

    d = 3
    theta, rho = fluids.self_similar_free(a=1.0, rho0=2.0, d=d)
    pts = fluids.random_points(d, 100, seed=_seed(args))
    base = fluids.fluid_residual(theta, rho, fluids.ZERO_POTENTIAL, pts)
    th2, rh2 = fluids.expansion(theta, rho, d, 0.4)
    pred = lambda c: 1.0 - 0.4 * c[0] > 0.05
    pts2 = fluids.random_points(d, 100, seed=args.seed + 1, predicate=pred)
    expanded = fluids.fluid_residual(th2, rh2, fluids.ZERO_POTENTIAL, pts2)
    thu, rhu = fluids.uniform_flow([0.3, -0.2, 0.5])
    ta, ra = fluids.acceleration(thu, rhu, (1.0, 0.0, 0.0))
    accel = fluids.fluid_residual(ta, ra, fluids.ZERO_POTENTIAL, pts)
    payload = {
        "self_similar": base,
        "expansion_image": expanded,
        "acceleration_image": accel,
        "gamma_z2_d3": str(fluids.polytropic_exponent(Fraction(2), 3)),
    }
    symmetric_ok = (
        max(base.values()) < 1e-10 and max(expanded.values()) < 1e-9
    )
    accel_breaks = max(accel.values()) > 0.1
    _write_json(payload, args.out)
    if args.negative_control:
        return 0 if accel_breaks else 2
    return 0 if symmetric_ok and accel_breaks else 2


def cmd_em_check(args) -> int:
    from . import em, solver
    from .geometry import flat_structure

    nc = flat_structure(3)
    lib = em.sourcefree_library()
    em.require_source_free(lib, nc)
    c1 = solver._solve("cmil", 3)
    failures = [[label, idx] for label, X in zip(c1.labels, c1.generators)
                for idx in em.failing_fields(X, lib, nc)]
    witness_fail = em.failing_fields(solver.rotation(3, 1, 2, k=1), lib, nc)
    payload = {
        "generators": c1.dim,
        "fields": len(lib),
        "failures": failures,
        "time_dependent_rotation_fails_on": witness_fail,
    }
    _write_json(payload, args.out)
    if args.negative_control:
        return 0 if witness_fail else 2
    return 0 if not failures and witness_fail else 2


def cmd_selftest(args) -> int:
    import math
    import random

    from . import em, fluids, representations, solver
    from .geometry import flat_structure
    from .integrate import inverse_square_trajectory

    checks = []

    def record(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    c1, c2 = solver.solve_cmil_flat(3)
    s = solver._solve("sch", 3, c2)
    record("dim sch(3) == 12", s.dim == 12)
    record("dim cmil(3) == 16", c1.dim == 16)
    record("dim expanded sch(3) == 13", c2.dim == 13)
    cga = solver._solve("cga", 3, c1)
    record("dim cga(3) == 15", cga.dim == 15)
    sc = solver.structure_constants(s)
    record("sch(3) antisymmetry + Jacobi", sc.antisymmetry_ok() and sc.jacobi_ok())
    for kind in ("sch", "cga"):
        rep = representations.verify_representation(kind, 3)
        record(f"{kind} rep faithful + consistent", representations.verdict(rep))
    D = inverse_square_trajectory(
        1.0, -1.0, [1.0, 0.0, 0.0], [0.0, math.sqrt(2.0), 0.0], 1e-3, 2000
    )["D"]
    drift = max(abs(value - D[0]) for value in D)
    record("inverse-square dilation charge drift < 1e-6", drift < 1e-6)
    theta, rho = fluids.self_similar_free(1.0, 2.0, 3)
    draw = random.Random(0).uniform
    pts = [[draw(*fluids.T_RANGE)] + [draw(*fluids.X_RANGE) for _ in range(3)] for _ in range(50)]
    res = fluids.fluid_residual(theta, rho, fluids.ZERO_POTENTIAL, pts)
    record("self-similar fluid residuals < 1e-10", max(res.values()) < 1e-10)
    nc = flat_structure(3)
    lib = em.sourcefree_library()[:2]
    em.require_source_free(lib, nc)
    ok_em = not any(em.failing_fields(X, lib, nc) for X in c1.generators)
    record("field equations keep cmil symmetry", ok_em)
    failed = [name for name, ok in checks if not ok]
    return 0 if not failed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description="Conformal symmetry algebras of Newton-Cartan spacetime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand parses only the options it reads; the family options
    # of solve and bracket-table default to None so that _solve_basis can
    # reject the ones the chosen family does not read.
    def common(p, seed=False):
        p.add_argument("--out", default=None, help="write JSON/CSV here")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="solve a symmetry family")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--z", default=None, help="dynamical exponent 'p/q' or 'inf'")
    p.add_argument("--deg-t", type=int, default=None, dest="deg_t", help="time degree (default 2)")
    p.add_argument("--branch", choices=["c1", "c2"], default=None, help="cmil branch (default c1)")
    p.add_argument("--N", type=int, default=None, help="alt translation degree (default 1)")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bracket-table", help="structure constants of a closed family")
    p.add_argument("--family", required=True,
                   choices=[family for family, (_, closed) in _FAMILIES.items() if closed])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--z", default=None)
    p.add_argument("--branch", choices=["c1", "c2"], default=None, help="cmil branch (default c1)")
    p.add_argument("--N", type=int, default=None, help="alt translation degree (default 1)")
    common(p)
    p.set_defaults(func=cmd_bracket_table)

    p = sub.add_parser("rep-check", help="verify a matrix representation")
    p.add_argument("--rep", choices=["sch", "cga"], required=True)
    p.add_argument("--d", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("geodesic", help="integrate a geodesic and dump CSV")
    p.add_argument("--model", choices=["free", "harmonic"], default="free")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--h", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("noether", help="conserved-quantity residual checks")
    p.add_argument("--model", choices=["massive", "photon"], required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_noether)

    p = sub.add_parser("fluid-check", help="fluid symmetry suite")
    p.add_argument("--negative-control", action="store_true")
    common(p, seed=True)
    p.set_defaults(func=cmd_fluid_check)

    p = sub.add_parser("em-check", help="Galilean electromagnetism suite")
    p.add_argument("--negative-control", action="store_true")
    common(p)
    p.set_defaults(func=cmd_em_check)

    p = sub.add_parser("selftest", help="run the quick invariant suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a bracket leaving the span fails verification; only a subcommand that
    # loaded the solver can raise it, and () matches nothing
    except getattr(sys.modules.get(f"{__package__}.solver"), "NotClosedError", ()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
