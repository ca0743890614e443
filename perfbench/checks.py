"""Independent checks of ncsym CLI outputs.

Every expected value here comes from a closed form or from arithmetic
redone on the emitted data, never from a number ncsym reports about
itself: algebra dimensions are the closed-form counts the test suite
pins, antisymmetry and Jacobi are recomputed from the emitted
``[i, j, k, "p/q"]`` rows, geodesics are compared with their analytic
solutions, and numeric residuals are held to tolerances fixed below.

Each check takes the invocation's stdout (and the ``--out`` CSV where
there is one) and returns a list of problems; an empty list is a pass.
``corrupt`` makes deliberately wrong copies of real outputs, so that a
run can show each check rejects them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from fractions import Fraction

GEODESIC_TOL = 1e-9        # absolute, on every state component
NOETHER_TOL = 1e-6         # presymplectic / Noether residuals
FLUID_SOLUTION_TOL = 1e-10  # self-similar solution residuals
FLUID_IMAGE_TOL = 1e-9      # residuals of its expansion image
FLUID_BREAK_MIN = 0.1       # an acceleration must break the equations
SELFTEST_LINES = 10
CMIL_C1_D3_DIM = 16         # em-check runs over cmil c1 at d = 3


def _rot(d: int) -> int:
    return d * (d - 1) // 2


def algebra_dim(family: str, d: int, N: int = 1, deg_t: int = 0) -> int:
    """Closed-form dimension of each symmetry family."""
    forms = {
        "gal": _rot(d) + 2 * d + 1,
        "sch": _rot(d) + 2 * d + 3,
        "sch-expanded": _rot(d) + 2 * d + 4,
        "cmil-c1": _rot(d) + 3 * d + 4,
        "cmil-c2": _rot(d) + 2 * d + 4,
        "cga": _rot(d) + 3 * d + 3,
        "alt": _rot(d) + 3 + d * (N + 1),
        "cgal": (deg_t + 1) * (_rot(d) + 2 * d + 2),
        "cnc": (deg_t + 1) * (_rot(d) + d + 2),
    }
    return forms[family]


def _json(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def bracket_problems(rows, n: int) -> list[str]:
    """Antisymmetry and Jacobi of the bracket tensor given as sparse rows."""
    c: dict[tuple, dict] = defaultdict(dict)
    for row in rows:
        i, j, k, v = row
        if not all(isinstance(x, int) and 0 <= x < n for x in (i, j, k)):
            return [f"structure constant index out of range: {row}"]
        c[(i, j)][k] = Fraction(v)
    for (i, j), vec in c.items():
        if i == j or c.get((j, i), {}) != {k: -v for k, v in vec.items()}:
            return [f"antisymmetry fails at ({i}, {j})"]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: dict[int, Fraction] = defaultdict(Fraction)
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in c.get((a, b), {}).items():
                        for l, w in c.get((m, e), {}).items():
                            acc[l] += v * w
                if any(acc.values()):
                    return [f"Jacobi fails at ({i}, {j}, {k})"]
    return []


def check_algebra(stdout: str, csv_text, *, dim: int, rows: bool, table: bool = False) -> list[str]:
    """A `solve` report or a `bracket-table`."""
    data, problems = _json(stdout)
    if data is None:
        return problems
    if data.get("dim") != dim:
        problems.append(f"dim {data.get('dim')} != closed form {dim}")
    if len(data.get("labels", ())) != dim:
        problems.append("label count differs from the closed-form dim")
    if "generators" in data and len(data["generators"]) != dim:
        problems.append("generator count differs from the closed-form dim")
    if table and not (data.get("antisymmetric") is True and data.get("jacobi") is True):
        problems.append("report does not claim antisymmetry and Jacobi")
    if rows:
        if "structure_constants" not in data:
            problems.append("no structure constants emitted")
        else:
            problems += bracket_problems(data["structure_constants"], dim)
    return problems


def check_rep(stdout: str, csv_text, *, rep: str, d: int) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    family, size = {"sch": ("sch", d + 2), "cga": ("cga", d + 3)}[rep]
    if data.get("faithful") is not True:
        problems.append("representation not faithful")
    if data.get("mismatches") != []:
        problems.append("bracket mismatches reported")
    if data.get("sign") not in (1, -1):
        problems.append(f"sign {data.get('sign')} is not +-1")
    if data.get("dim") != algebra_dim(family, d):
        problems.append(f"rep dim {data.get('dim')} != closed form {algebra_dim(family, d)}")
    if data.get("size") != size:
        problems.append(f"matrix size {data.get('size')} != {size}")
    return problems


def check_em(stdout: str, csv_text) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    if data.get("failures") != []:
        problems.append("field-equation symmetry failures reported")
    if data.get("generators") != CMIL_C1_D3_DIM:
        problems.append(f"generator count {data.get('generators')} != {CMIL_C1_D3_DIM}")
    if not data.get("time_dependent_rotation_fails_on"):
        problems.append("time-dependent rotation witness did not fail")
    return problems


def check_selftest(stdout: str, csv_text) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != SELFTEST_LINES or not all(l.startswith("PASS  ") for l in lines):
        return [f"selftest: expected {SELFTEST_LINES} PASS lines"]
    return []


def geodesic_state(model: str, tau: float) -> list[float]:
    """Exact (x^0..x^3, xdot^0..xdot^3) from x = (0, 1, 0, 0), xdot = (1, 0, 1/2, 0)."""
    if model == "harmonic":  # xddot = -x
        return [tau, math.cos(tau), 0.5 * math.sin(tau), 0.0,
                1.0, -math.sin(tau), 0.5 * math.cos(tau), 0.0]
    return [tau, 1.0, 0.5 * tau, 0.0, 1.0, 0.0, 0.5, 0.0]


def _state_problems(state, model: str, tau: float, where: str) -> list[str]:
    exact = geodesic_state(model, tau)
    if len(state) != len(exact):
        return [f"{where}: state has {len(state)} components"]
    err = max(abs(float(a) - b) for a, b in zip(state, exact))
    if not err <= GEODESIC_TOL:
        return [f"{where}: error {err:.3g} from the exact {model} solution"]
    return []


def check_geodesic(stdout: str, csv_text, *, model: str, steps: int, h: float) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    if data.get("steps") != steps or data.get("model") != model:
        problems.append("report does not echo the request")
    problems += _state_problems(data.get("final", []), model, steps * h, "final state")
    if csv_text is not None:
        rows = list(csv.reader(io.StringIO(csv_text)))
        if len(rows) != steps + 2:
            return problems + [f"CSV has {len(rows)} lines, expected {steps + 2}"]
        for i, row in enumerate(rows[1:]):
            tau = i * h
            if float(row[0]) != tau:
                return problems + [f"CSV row {i}: tau {row[0]} != {tau}"]
            found = _state_problems(row[1:9], model, tau, f"CSV row {i}")
            if found:
                return problems + found
    return problems


def check_noether(stdout: str, csv_text, *, model: str) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    key = "noether_residual" if model == "massive" else "symmetry_residual"
    value = data.get(key)
    if not (isinstance(value, float) and value < NOETHER_TOL):
        problems.append(f"{key} {value} not below {NOETHER_TOL}")
    return problems


def check_fluid(stdout: str, csv_text) -> list[str]:
    data, problems = _json(stdout)
    if data is None:
        return problems
    try:
        base = max(data["self_similar"].values())
        image = max(data["expansion_image"].values())
        accel = max(data["acceleration_image"].values())
    except (KeyError, AttributeError, ValueError):
        return ["fluid report lacks residual tables"]
    if not base < FLUID_SOLUTION_TOL:
        problems.append(f"self-similar residual {base} not below {FLUID_SOLUTION_TOL}")
    if not image < FLUID_IMAGE_TOL:
        problems.append(f"expansion-image residual {image} not below {FLUID_IMAGE_TOL}")
    if not accel > FLUID_BREAK_MIN:
        problems.append(f"acceleration residual {accel} not above {FLUID_BREAK_MIN}")
    if data.get("gamma_z2_d3") != str(Fraction(3 + 2, 3)):  # gamma = (d + 2) / d at z = 2
        problems.append("polytropic exponent at z = 2, d = 3 is not 5/3")
    return problems


def check_help(stdout: str, csv_text) -> list[str]:
    return [] if stdout.startswith("usage: ncsym") else ["--help printed no usage"]


# -- corrupted copies of real outputs ------------------------------------


def _edit_json(stdout: str, edit) -> str:
    data = json.loads(stdout)
    edit(data)
    return json.dumps(data, sort_keys=True, indent=2)


def _flip_first_constant(data):
    row = data["structure_constants"][0]
    row[3] = str(-Fraction(row[3]))


def _bump(field: str, index: int, by: float):
    def edit(data):
        data[field][index] += by
    return edit


def _perturb_csv(csv_text: str) -> str:
    rows = list(csv.reader(io.StringIO(csv_text)))
    rows[-1][2] = repr(float(rows[-1][2]) + 1e-6)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def corrupt(check, stdout: str, csv_text):
    """Yield (case, stdout, csv) copies of a real output that ``check`` must reject."""
    name = getattr(check, "func", check).__name__
    if name == "check_algebra":
        yield "wrong dim", _edit_json(stdout, lambda d: d.update(dim=d["dim"] + 1)), csv_text
        if check.keywords["rows"]:
            yield "one structure constant sign-flipped", _edit_json(stdout, _flip_first_constant), csv_text
    elif name == "check_geodesic":
        yield "perturbed final state", _edit_json(stdout, _bump("final", 1, 1e-6)), csv_text
        if csv_text is not None:
            yield "perturbed CSV state", stdout, _perturb_csv(csv_text)
    elif name == "check_rep":
        yield "rep sign 0", _edit_json(stdout, lambda d: d.update(sign=0)), csv_text
    elif name == "check_em":
        yield "em failure reported", _edit_json(stdout, lambda d: d.update(failures=[["X", 0]])), csv_text
    elif name == "check_selftest":
        yield "selftest FAIL line", stdout.replace("PASS", "FAIL", 1), csv_text
    elif name == "check_noether":
        key = "noether_residual" if check.keywords["model"] == "massive" else "symmetry_residual"
        yield "noether residual above tolerance", _edit_json(stdout, lambda d: d.update({key: 1e-3})), csv_text
    elif name == "check_fluid":
        yield "fluid residual above tolerance", _edit_json(
            stdout, lambda d: d["self_similar"].update(bernoulli=1e-6)), csv_text
