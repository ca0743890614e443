"""Every function in ``src/ncsym`` is reached by a subcommand, or says why not.

A fresh interpreter runs ``cli.main`` under ``sys.setprofile`` on every
command of ``tests/test_golden.py::GOLDEN`` and on the paths GOLDEN
lacks (``geodesic --out``, ``--help``, a usage error and a domain
error).  Each code object it enters is matched to its ``def`` by file and
first line (the ``def`` line or the first decorator line).  A function
that no run enters must have an entry in ``UNENTERED``,
``"module:qualname": (tag, reason)``, tagged

- ``public``: the name is in ``ncsym.__all__``, or it is the constructor,
  ``__eq__``, ``__hash__``, ``__repr__`` or an operator method of a class
  there;
- ``claim``: it checks a statement of PAPER.md, and the reason names the
  test (``tests/<file>.py::<function>``) that asserts it through it;
- ``oracle``: an independent reference that the named test compares
  against (such code belongs in ``tests/``, not in the package);
- ``helper``: only tagged functions call it, and the reason names one.

A never-entered function missing from the table fails the test, and so
does an entry for a function that a run now enters or that no longer
exists; the failure prints the table lines to add or remove.  So when a
subcommand starts to call a listed function, delete its entry; when code
that no subcommand calls is added, tag it or delete it.  A nested ``def``
is checked only inside an entered function, and a name that a module
defines more than once (the closures of one function) gets the suffix
``[2]``, ``[3]``, ... in source order.  Lambdas and code compiled by
``exec`` have no ``def`` and are not checked.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import ncsym
from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Run in a fresh interpreter, so that no cache an earlier test filled (the
# lru_cache of integrate._rk4_kernel) hides a function: put argv[1] first
# on sys.path, import module argv[2] under the profile hook, call its
# function argv[3] once per argument list read as JSON from stdin, and
# print the return values and the entered (file, first line) pairs under
# argv[1] as JSON.
CHILD = r"""
import contextlib, importlib, io, json, sys
root, module, function = sys.argv[1:]
sys.path.insert(0, root)
calls = json.load(sys.stdin)
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    fn = getattr(importlib.import_module(module), function)
    codes = [fn(*args) for args in calls]
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(e for e in entered if e[0].startswith(root))}))
"""

# The dunders a public class's entry may be tagged public for.
PUBLIC_METHODS = {
    "__init__", "__eq__", "__hash__", "__repr__", "__getitem__", "__neg__", "__pos__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__matmul__",
}
TEST_REF = re.compile(r"tests/(\w+\.py)::(\w+)")
ENTRY_REF = re.compile(r"ncsym\.\w+:\w+(?:\.\w+)*")


def entered_lines(root: Path, module: str, function: str, calls: list) -> tuple:
    """Call ``module.function(*args)`` for each args in ``calls`` in a fresh
    interpreter; return (the return values, {(file, first line) entered})."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root), module, function],
        input=json.dumps(calls), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["codes"], {(path, line) for path, line in result["entered"]}


def definitions(root: Path) -> dict:
    """{"module:qualname": (file, def line, first decorator line, enclosing
    key or None)} for every ``def`` in the ``.py`` files under ``root``."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)

        def visit(node, prefix, outer):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    qualname = prefix + child.name
                    key = base = f"{module}:{qualname}"
                    n = 1
                    while key in found:
                        n += 1
                        key = f"{base}[{n}]"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[key] = (str(path), child.lineno, first, outer)
                    visit(child, qualname + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", outer)
                else:
                    visit(child, prefix, outer)

        visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def unentered(defs: dict, entered: set) -> set:
    """Keys of the definitions no run entered; a nested def counts only
    when the function enclosing it was entered."""
    def hit(key):
        path, line, first, _ = defs[key]
        return (path, line) in entered or (path, first) in entered

    return {key for key, (_, _, _, outer) in defs.items()
            if not hit(key) and (outer is None or hit(outer))}


def ratchet(never: set, table: dict) -> tuple:
    """(unentered keys missing from the table, table keys not unentered)."""
    return sorted(never - set(table)), sorted(set(table) - never)


def report(missing: list, stale: list, table: dict) -> str:
    lines = ["UNENTERED is out of date."]
    if missing:
        lines.append("Add these entries with a tag and a reason, or delete the functions:")
        lines += [f'    "{key}": ("TAG", "REASON"),' for key in missing]
    if stale:
        lines.append("Remove these entries (the function is now entered, or gone):")
        lines += [f'    "{key}": {table[key]!r},' for key in stale]
    return "\n".join(lines)


C4 = "tests/test_acceptance.py::test_criterion_4_inclusions_and_scans"
C5 = "tests/test_acceptance.py::test_criterion_5_massive_mechanics"
C6 = "tests/test_acceptance.py::test_criterion_6_photon_suite"
C7 = "tests/test_acceptance.py::test_criterion_7_fluid_suite"
ZDIL = "tests/test_fluids.py::test_z_dilation_polytropic_consistency_scan"

UNENTERED: dict[str, tuple[str, str]] = {
    "ncsym.fluids:Jet2.exp": ("helper", "the density of ncsym.fluids:gaussian_packet"),
    "ncsym.fluids:Potential.value": ("helper", "the energy of ncsym.fluids:fluid_charges"),
    "ncsym.fluids:boost": ("claim", f"the boost of {C7}"),
    "ncsym.fluids:chaplygin_rest": ("claim", f"the inverse-density gas of {C7}"),
    "ncsym.fluids:eval_field": ("helper", "the integrands of ncsym.fluids:fluid_charges"),
    "ncsym.fluids:fluid_charges": ("claim", f"the conserved time-dilation charge of {C7}"),
    "ncsym.fluids:gauss_legendre_mesh": ("helper", "the quadrature of ncsym.fluids:fluid_charges"),
    "ncsym.fluids:gaussian_packet": (
        "claim", "a moving fluid keeps its Galilei charges, "
        "tests/test_fluids.py::test_charges_gaussian_packet_constant_in_time"),
    "ncsym.fluids:time_dilation": ("claim", f"the time dilation of {C7}"),
    "ncsym.fluids:z_dilation": (
        "claim", f"the z-dilation, a symmetry iff gamma = (d+z)/(d+2-z), {ZDIL}"),
    "ncsym.geometry:coriolis_from_observer": ("public", "in __all__"),
    "ncsym.geometry:milne_boost": ("public", "in __all__"),
    "ncsym.geometry:vary_connection": ("public", "in __all__"),
    "ncsym.integrate:harmonic_trajectory": (
        "claim", f"the drifting control of the conformal dilation charge, {C5}"),
    "ncsym.lie:Connection.__sub__": ("public", "operator of Connection"),
    "ncsym.lie:CotangentLift.__init__": ("helper", "the result of ncsym.lie:canonical_lift"),
    "ncsym.lie:OneForm.__add__": ("public", "operator of OneForm"),
    "ncsym.lie:OneForm.__hash__": ("public", "hash of OneForm"),
    "ncsym.lie:OneForm.__sub__": ("public", "operator of OneForm"),
    "ncsym.lie:OneForm.pair": ("helper", "Psi(U) in ncsym.geometry:milne_boost"),
    "ncsym.lie:SymTensor2Up.__sub__": ("public", "operator of SymTensor2Up"),
    "ncsym.lie:TwoForm.__add__": ("public", "operator of TwoForm"),
    "ncsym.lie:TwoForm.__sub__": ("public", "operator of TwoForm"),
    "ncsym.lie:TwoForm.zero": (
        "claim", "sch solves the lightlike system with the trivial gauge pair, "
        "tests/test_solver.py::test_sch2_inside_cnc_with_balanced_factors"),
    "ncsym.lie:VectorField.__eq__": ("public", "equality of VectorField"),
    "ncsym.lie:VectorField.__hash__": ("public", "hash of VectorField"),
    "ncsym.lie:VectorField.__sub__": ("public", "operator of VectorField"),
    "ncsym.lie:canonical_lift": ("public", "in __all__"),
    "ncsym.lie:conformal_factors": ("public", "in __all__"),
    "ncsym.lie:lie_bracket": ("public", "in __all__"),
    "ncsym.lie:lie_derive_connection": ("public", "in __all__"),
    "ncsym.lie:lie_derive_gamma_theta_power": (
        "claim", "z = 2 fields transport gamma x theta, z = 1 fields gamma x theta^2, "
        "tests/test_lie.py::test_gamma_theta_power_weights"),
    "ncsym.lie:lie_derive_one_form": ("public", "in __all__"),
    "ncsym.lie:lie_derive_structure": ("public", "in __all__"),
    "ncsym.lie:lie_derive_sym2up": ("public", "in __all__"),
    "ncsym.mechanics:_eps_matrix_q": ("helper", "the J gradients of ncsym.mechanics:poisson_brackets"),
    "ncsym.mechanics:free_flow": (
        "claim", "the free massive particle keeps every charge, "
        "tests/test_mechanics.py::test_free_flow_conserves_all_charges"),
    "ncsym.mechanics:photon_charge": ("claim", f"the conserved photon charge of {C6}"),
    "ncsym.mechanics:photon_flow": ("claim", f"the photon motion of {C6}"),
    "ncsym.mechanics:poisson_brackets": ("claim", f"the mass as central extension, {C5}"),
    "ncsym.mechanics:presymplectic_residual_massive": (
        "claim", "the lifted sch generators are symmetries of the massive particle, "
        "tests/test_mechanics.py::test_presymplectic_massive_lift_symmetric"),
    "ncsym.poly:Poly.__hash__": ("public", "hash of Poly"),
    "ncsym.poly:Poly.__pow__": ("public", "operator of Poly"),
    "ncsym.poly:Poly.__repr__": ("public", "repr of Poly"),
    "ncsym.poly:Poly.__rsub__": ("public", "operator of Poly"),
    "ncsym.poly:Poly.constant_value": ("helper", "the factors of ncsym.lie:conformal_factors"),
    "ncsym.poly:Poly.depends_on": ("helper", "the t-only check of ncsym.lie:conformal_factors"),
    "ncsym.poly:Poly.is_constant": ("helper", "the reference of ncsym.lie:conformal_factors"),
    "ncsym.representations:levi_check": (
        "claim", "the Levi splits of sch and cga, "
        "tests/test_acceptance.py::test_criterion_3_representations"),
    "ncsym.solver:AlgebraBasis.factors": ("claim", f"z = 2 fields have f + g = 0, {C4}"),
    "ncsym.solver:ClosureReport.__init__": ("public", "constructor of ClosureReport"),
    "ncsym.solver:GaugeWitness.__init__": (
        "helper", "the result of ncsym.solver:lightlike_gauge_witness"),
    "ncsym.solver:NotClosedError.__init__": ("public", "constructor of NotClosedError"),
    "ncsym.solver:_observer_search": (
        "helper", "the searches of ncsym.solver:lightlike_gauge_witness and "
        "ncsym.solver:cmil_generator_ether"),
    "ncsym.solver:_res_u_free": ("helper", "the u-free rows of ncsym.solver:_observer_search"),
    "ncsym.solver:alt_closure_scan": ("claim", f"alt closes exactly at z = 2/N, {C4}"),
    "ncsym.solver:alt_obstruction_coefficient": (
        "claim", "alt closes exactly at z = 2/N, "
        "tests/test_solver.py::test_alt_obstruction_coefficient"),
    "ncsym.solver:alt_subalgebra": ("public", "in __all__"),
    "ncsym.solver:bracket_closure_grow": (
        "claim", "the cmil branches are maximal closed subalgebras, "
        "tests/test_solver.py::test_cmil_branches_closed_and_maximal"),
    "ncsym.solver:closure_check": ("public", "in __all__"),
    "ncsym.solver:cmil_generator_ether": (
        "claim", "each cmil c1 generator keeps a constant-ether Milne structure, "
        "tests/test_solver.py::test_cmil_generator_ether_witnesses"),
    "ncsym.solver:lightlike_gauge_witness": (
        "helper", "the witnesses of ncsym.solver:solve_cnc_flat"),
    "ncsym.solver:restrict_cmil_z": ("public", "in __all__"),
    "ncsym.solver:restrict_cnc_z": ("claim", f"the z-slices of the lightlike family, {C4}"),
    "ncsym.solver:restrict_sch_z": ("public", "in __all__"),
    "ncsym.solver:solve_cga": ("public", "in __all__"),
    "ncsym.solver:solve_cgal": ("public", "in __all__"),
    "ncsym.solver:solve_cgal_z": ("public", "in __all__"),
    "ncsym.solver:solve_cnc_flat": ("public", "in __all__"),
    "ncsym.solver:solve_gal": ("public", "in __all__"),
    "ncsym.solver:solve_sch": ("public", "in __all__"),
    "ncsym.solver:solve_sch_expanded": ("public", "in __all__"),
    "ncsym.solver:span_contains": ("claim", f"the inclusion chain, {C4}"),
}


def test_every_unentered_function_is_tagged(tmp_path):
    # (cli.main arguments, the exit code they must return)
    runs = [(command.split(), 0) for command, _ in GOLDEN] + [
        (["geodesic", "--model", "harmonic", "--steps", "50",
          "--out", str(tmp_path / "traj.csv")], 0),
        (["--help"], 0),
        (["solve", "--family", "gal", "--bogus"], 1),
        (["solve", "--family", "sch", "--d", "3", "--z", "2.0"], 1),
    ]
    codes, entered = entered_lines(SRC, "ncsym.cli", "main", [[argv] for argv, _ in runs])
    assert codes == [code for _, code in runs]
    missing, stale = ratchet(unentered(definitions(SRC), entered), UNENTERED)
    assert not missing and not stale, report(missing, stale, UNENTERED)


def test_the_ratchet_fails_on_a_missing_and_a_stale_entry(tmp_path):
    (tmp_path / "m.py").write_text("def called():\n    return 0\n\n\ndef uncalled():\n    return 1\n")
    codes, entered = entered_lines(tmp_path, "m", "called", [[]])
    assert codes == [0]
    never = unentered(definitions(tmp_path), entered)
    assert never == {"m:uncalled"}
    missing, stale = ratchet(never, {})
    assert (missing, stale) == (["m:uncalled"], [])
    assert '"m:uncalled": ("TAG", "REASON"),' in report(missing, stale, {})
    table = {"m:called": ("claim", "R"), "m:uncalled": ("claim", "R")}
    missing, stale = ratchet(never, table)
    assert (missing, stale) == ([], ["m:called"])
    assert '"m:called": (\'claim\', \'R\'),' in report(missing, stale, table)


def _test_exists(file: str, name: str) -> bool:
    tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)


def test_tags_name_their_evidence():
    for key, (tag, reason) in UNENTERED.items():
        module, qualname = key.split(":")
        if tag == "public":
            name, _, method = qualname.partition(".")
            assert name in ncsym.__all__, key
            assert getattr(ncsym, name).__module__ == module, key
            assert method in ("", *PUBLIC_METHODS), key
        elif tag in ("claim", "oracle"):
            tests = TEST_REF.findall(reason)
            assert tests and all(_test_exists(*test) for test in tests), key
        else:
            assert tag == "helper", key
            callers = ENTRY_REF.findall(reason)
            assert callers and all(c in UNENTERED and c != key for c in callers), key
