"""Fixed-step RK4, the geodesics of a polynomial connection, and runs in
central potentials with their charge series.

Standard library only, so ``ncsym geodesic`` without ``--out`` and
``ncsym selftest`` start without numpy.  The RK4 step (per state length)
and the geodesic right-hand side (per connection) run as generated
straight-line source whose only literals are integers.  A trajectory is a flat row-major
``array('d')``: 8 bytes per value, row i at ``[i * n:(i + 1) * n]``;
``np.frombuffer(traj).reshape(-1, n)`` is a zero-copy array view of it.
A charge series is a flat ``array('d')`` with one value per row.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from array import array
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lie import Connection

# Largest accepted RK4 step count, checked before the trajectory is built:
# (MAX_STEPS + 1) rows are 64 MB for the 8-component geodesic state.  The
# documented runs use 10^4 to 2 * 10^4 steps.
MAX_STEPS = 10**6


def _names(fmt: str, n: int) -> str:
    return ", ".join(fmt.format(j) for j in range(n))


@functools.lru_cache(maxsize=None)
def _rk4_kernel(n: int):
    """The RK4 loop for states of length n, unrolled into locals y0..y{n-1}
    (state) and c0..c{n-1} (Kahan carry), one statement per component,
    appending each new state to ``out``.  The source holds only
    identifiers and integer literals; the float constants are bound by
    name."""
    y = _names("y{}", n)
    src = [
        "def kernel(rhs, out, state, h, steps):",
        f"    [{y}] = state",
        f"    [{_names('c{}', n)}] = [{_names('ZERO', n)}]",
        "    hh = HALF * h",
        "    h6 = h / SIX",
        "    t = ZERO",
        "    for i in range(1, steps + 1):",
        f"        [{_names('p{}', n)}] = rhs(t, [{y}])",
        f"        [{_names('q{}', n)}] = rhs(t + hh, [{_names('y{0} + hh * p{0}', n)}])",
        f"        [{_names('r{}', n)}] = rhs(t + hh, [{_names('y{0} + hh * q{0}', n)}])",
        f"        [{_names('s{}', n)}] = rhs(t + h, [{_names('y{0} + h * r{0}', n)}])",
    ]
    for j in range(n):
        src += [
            f"        add = h6 * (p{j} + TWO * q{j} + TWO * r{j} + s{j}) + c{j}",
            f"        b = y{j} + add",
            f"        c{j} = add - (b - y{j})",
            f"        y{j} = b",
        ]
    src += ["        t = i * h", f"        out.fromlist([{y}])"]
    env = {"ZERO": 0.0, "HALF": 0.5, "TWO": 2.0, "SIX": 6.0}
    exec("\n".join(src), env)
    return env["kernel"]


def rk4(rhs, y0, h, steps):
    """Fixed-step RK4 with Kahan-compensated accumulation of the state.

    ``rhs(t, y)`` receives the state as a list of floats and returns any
    length-n sequence.  Steps run in the unrolled kernel for len(y0), each
    component rounding exactly as the elementwise array form.  Returns the
    (steps+1) * len(y0) trajectory as a flat row-major ``array('d')``; a
    non-finite state, or an ``OverflowError`` in ``rhs``, is a
    ``ValueError`` naming its first step.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be finite and positive, got {h}")
    if steps < 0:
        raise ValueError(f"number of steps must be >= 0, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"number of steps must be <= {MAX_STEPS}, got {steps}")
    out = array("d", map(float, y0))
    n = len(out)
    with contextlib.suppress(OverflowError):  # from x ** e in rhs; ends the rows
        _rk4_kernel(n)(rhs, out, out.tolist(), h, steps)
    if len(out) < (steps + 1) * n or not all(map(math.isfinite, out)):
        bad = next((i for i, v in enumerate(out) if not math.isfinite(v)), len(out))
        raise ValueError(f"RK4 state is not finite at step {bad // n} (step size {h})")
    return out


def _geodesic_rhs(conn: Connection):
    """(x, v) -> (v, -Gamma^c_ab(x) v^a v^b) as straight-line code, one
    statement per nonzero Gamma^c_ab in (c, a, b) order, each summed from
    0.0 in ``Poly.evaluate``'s term order and subtracted from its
    accumulator, so it rounds exactly as that method at float points.
    Coefficients are bound by name, leaving only integer literals."""
    n = conn.dim + 1
    x, v, g = _names("x{}", n), _names("v{}", n), _names("g{}", n)
    env = {"ZERO": 0.0}
    src = ["def rhs(_t, y):", f"    [{x}, {v}] = y", f"    [{g}] = [{_names('ZERO', n)}]"]
    for c, a, b in itertools.product(range(n), repeat=3):
        total = ["ZERO"]
        for exp, coef in conn[c, a, b].terms.items():
            name = f"k{len(env)}"
            env[name] = float(coef)
            powers = [f"x{i} ** {e}" if e > 1 else f"x{i}" for i, e in enumerate(exp) if e]
            total.append(" * ".join([name, *powers]))
        if len(total) > 1:
            src.append(f"    g{c} -= ({' + '.join(total)}) * v{a} * v{b}")
    src.append(f"    return [{v}, {g}]")
    exec("\n".join(src), env)
    return env["rhs"]


def integrate_geodesic(conn: Connection, x0, xdot0, h, steps):
    """Affinely parametrized geodesics of a polynomial connection.

    State is (x^0..x^d, xdot^0..xdot^d); returns the flat trajectory (rows
    of 2(d+1) values) and the time-velocity class ('timelike' for
    xdot^0 != 0, else 'lightlike', preserved exactly when the connection
    has no time components).
    """
    traj = rk4(_geodesic_rhs(conn), [*x0, *xdot0], h, steps)
    tclass = "timelike" if abs(traj[conn.dim + 1]) > 0 else "lightlike"
    return {"trajectory": traj, "tdot_class": tclass, "dim": conn.dim}


# ---------------------------------------------------------------------------
# central-potential runs
# ---------------------------------------------------------------------------

R_MIN = 1e-3


def jacobi_charges(traj, h: float, m: float, potential) -> dict:
    """(E, D, K) series of a flat trajectory of rows (x^1..x^3,
    v^1..v^3), row i at time t = i h, in a central potential
    U = potential(r2) of r2 = |x|^2: the energy, the dilation charge
    p.x - 2Et, and the expansion charge m x^2/2 - t D - E t^2, each a flat
    ``array('d')``.  Conserved when U = c/|x|^2."""
    out = {key: array("d") for key in "EDK"}
    values = iter(traj)
    for i, (q1, q2, q3, u1, u2, u3) in enumerate(zip(*[values] * 6)):
        t = h * i
        r2 = q1 * q1 + q2 * q2 + q3 * q3
        E = 0.5 * m * (u1 * u1 + u2 * u2 + u3 * u3) + potential(r2)
        D = m * (u1 * q1 + u2 * q2 + u3 * q3) - 2.0 * E * t
        K = 0.5 * m * r2 - t * D - E * t * t
        for key, value in zip("EDK", (E, D, K)):
            out[key].append(value)
    return out


def inverse_square_trajectory(m: float, c: float, x0, v0, h: float, steps: int):
    """RK4 run in U = c/|x|^2; guards the r_min ball; returns the flat
    state trajectory (rows of 6) and the (E, D, K) series."""

    def potential(r2):
        if r2 < R_MIN**2:
            raise ValueError("trajectory entered the r_min ball")
        return c / r2

    def rhs(_t, y):
        q1, q2, q3, u1, u2, u3 = y
        r2 = q1 * q1 + q2 * q2 + q3 * q3
        if r2 < R_MIN**2:
            raise ValueError("trajectory entered the r_min ball")
        a = 2.0 * c / (m * r2 * r2)
        return [u1, u2, u3, a * q1, a * q2, a * q3]

    traj = rk4(rhs, [*x0, *v0], h, steps)
    return {"trajectory": traj, **jacobi_charges(traj, h, m, potential)}


def harmonic_trajectory(m: float, k: float, x0, v0, h: float, steps: int):
    """Same series for U = 1/2 k |x|^2 (degree +2 control: D must drift)."""
    w = -(k / m)

    def rhs(_t, y):
        return y[3:] + [w * q for q in y[:3]]

    traj = rk4(rhs, [*x0, *v0], h, steps)
    return {"trajectory": traj, **jacobi_charges(traj, h, m, lambda r2: 0.5 * k * r2)}
