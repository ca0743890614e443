"""Fixed-step RK4 and the geodesics of a polynomial connection.

Standard library only, so ``ncsym geodesic`` without ``--out`` starts
without numpy.  The RK4 step (per state length) and the geodesic
right-hand side (per connection) run as generated straight-line source
whose only literals are integers.  A trajectory is a flat row-major
``array('d')``: 8 bytes per value, row i at ``[i * n:(i + 1) * n]``;
``np.frombuffer(traj).reshape(-1, n)`` is a zero-copy array view of it.
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
    return {"trajectory": traj, "tdot_class": tclass, "dim": conn.dim, "h": h}
