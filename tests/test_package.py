import subprocess
import sys

import pytest

import ncsym
from ncsym import geometry, lie, poly, solver

# The public names of the package root, pinned by the submodule that defines them.
EXPORTS = {
    poly: ["Poly", "as_fraction"],
    lie: [
        "Connection", "OneForm", "SymTensor2Up", "TwoForm", "VectorField", "canonical_lift",
        "conformal_factors", "exterior_derivative", "exterior_derivative_one_form",
        "lie_bracket", "lie_derive_connection", "lie_derive_one_form", "lie_derive_structure",
        "lie_derive_sym2up", "lie_derive_two_form",
    ],
    geometry: [
        "GalileiStructure", "NCStructure", "Observer", "connection_from_observer",
        "coriolis_from_observer", "flat_galilei", "flat_structure", "milne_boost",
        "newtonian_connection", "rest_observer", "vary_connection",
    ],
    solver: [
        "INF", "AlgebraBasis", "ClosureReport", "NotClosedError", "StructureConstants",
        "alt_subalgebra", "closure_check", "parse_z", "restrict_cmil_z", "restrict_sch_z",
        "solve_cga", "solve_cgal", "solve_cgal_z", "solve_cmil_flat", "solve_cnc_flat",
        "solve_gal", "solve_sch", "solve_sch_expanded", "structure_constants",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_is_the_pinned_public_api():
    assert len(NAMES) == 47
    assert sorted(ncsym.__all__) == NAMES


def test_exported_names_are_the_submodule_attributes():
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(ncsym, name) is getattr(module, name), name


def test_star_import_lists_every_name():
    namespace = {}
    exec("from ncsym import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncsym.no_such_name
    with pytest.raises(ImportError):
        from ncsym import no_such_name  # noqa: F401


def test_version_is_unchanged():
    assert ncsym.__version__ == "0.1.0"


def test_root_import_is_lazy():
    script = (
        "import sys, ncsym\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('ncsym'))\n"
        "print(loaded())\n"
        "ncsym.Poly\n"
        "print(loaded())\n"
        "print(ncsym.solver.solve_gal is ncsym.solve_gal)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['ncsym']", "['ncsym', 'ncsym.poly']", "True"]
