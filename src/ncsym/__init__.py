"""Exact conformal symmetry algebras of Newton-Cartan spacetime.

Symbolic layer: exact rational polynomials, Lie calculus, flat
Newton-Cartan data and linear solvers reconstructing the conformal
symmetry families with their structure constants and matrix
representations.  Numeric layer: presymplectic particle models, fluid
scaling symmetries and Galilean electromagnetism used to exercise the
algebras dynamically.

The package root is lazy (PEP 562): ``import ncsym`` loads no submodule,
and each exported name, or the name of the submodule that defines it,
imports that submodule on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(["Poly", "as_fraction"], "poly"),
    **dict.fromkeys([
        "Connection", "OneForm", "SymTensor2Up", "TwoForm", "VectorField", "canonical_lift",
        "conformal_factors", "exterior_derivative", "exterior_derivative_one_form",
        "lie_bracket", "lie_derive_connection", "lie_derive_one_form", "lie_derive_structure",
        "lie_derive_sym2up", "lie_derive_two_form",
    ], "lie"),
    **dict.fromkeys([
        "GalileiStructure", "NCStructure", "Observer", "connection_from_observer",
        "coriolis_from_observer", "flat_galilei", "flat_structure", "milne_boost",
        "newtonian_connection", "rest_observer", "vary_connection",
    ], "geometry"),
    **dict.fromkeys([
        "INF", "AlgebraBasis", "ClosureReport", "NotClosedError", "StructureConstants",
        "alt_subalgebra", "closure_check", "parse_z", "restrict_cmil_z", "restrict_sch_z",
        "solve_cga", "solve_cgal", "solve_cgal_z", "solve_cmil_flat", "solve_cnc_flat",
        "solve_gal", "solve_sch", "solve_sch_expanded", "structure_constants",
    ], "solver"),
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
