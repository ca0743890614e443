"""Linear solvers for the conformal symmetry algebras of the flat chart.

Each family is a homogeneous linear PDE system on polynomial vector
fields X = X^0 d_t + X^A d_A.  The multipliers are never solved for:
f is read off the trace of the spatial conformal Killing equation,
f = -(2/d) d_A X^A, and g = d_0 X^0, which keeps every system linear.
Solving means building the exact coefficient matrix of the residuals
over a degree-bounded ansatz and computing its rational nullspace, or
restricting a parent family's span the same way.  FAMILIES names, once
for each family, its residual operator, its ansatz bounds or parent,
the options it reads with their defaults, and its presentation.

Solved spans are re-presented in a fixed, human-readable generator
order (rotations, accelerations, boosts, translations, expansions,
dilations, time translations, each graded by powers of t); the
presentation is accepted only after an exact span-equality check
against the raw nullspace, so dimensions always come from the solver.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import perm, prod
from operator import add, sub
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import linalg
from .lie import (
    TwoForm,
    VectorField,
    _bracket_terms,
    _bracket_vector,
    _field_vector,
    _vector_field,
    conformal_factors,
    lie_bracket,
)
from .poly import Poly

if TYPE_CHECKING:
    from .geometry import Observer

INF = "inf"

_HALF = Fraction(1, 2)

# Upper caps on the problem size.  On a 2-core machine with Python 3.11,
# solve time grows about 3x per unit of d at d = 2..4 (gal 0.02, 0.07,
# 0.18 s; the cga representation check 0.09, 0.37, 1.03 s) and slowly in
# the time degree and N at d = 3 (cgal 0.02 -> 0.22 s over nt = 0..5,
# alt 0.05 -> 0.25 s over N = 1..6).  Extrapolated, one solve at the
# caps takes about a minute; the documented runs use d <= 5, nt <= 3 and
# N <= 4.
MAX_D = 8
MAX_TIME_DEGREE = 6
MAX_N = 6


def parse_z(text: str):
    """Dynamical exponent from 'p/q' or 'inf'; never a float."""
    if text == INF:
        return INF
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"dynamical exponent must be 'p/q' or 'inf', got {text!r}")
    try:
        z = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"dynamical exponent has a zero denominator: {text!r}") from None
    return _check_z(z)


def _check_z(z):
    """A dynamical exponent as a Fraction, or INF, from an int, a Fraction
    or a string parse_z reads; ValueError for any other input, a float or
    a bool among them, and unless positive."""
    if isinstance(z, str):
        return parse_z(z)
    if isinstance(z, bool) or not isinstance(z, (int, Fraction)):
        raise ValueError(f"z must be an int, a Fraction, 'p/q' or 'inf', got {z!r}")
    z = Fraction(z)
    if z <= 0:
        raise ValueError("z must be positive or 'inf'")
    return z


# ---------------------------------------------------------------------------
# multipliers and residual systems
# ---------------------------------------------------------------------------


def trace_factor(X: VectorField) -> Poly:
    """f with L_X gamma = f gamma on the flat chart: f = -(2/d) d_A X^A."""
    d = X.dim
    return sum((X[A].differentiate(A) for A in range(1, d + 1)), Poly.zero(d)) * Fraction(-2, d)


def time_factor(X: VectorField) -> Poly:
    """g with L_X theta = g theta on the flat chart: g = d_0 X^0."""
    return X[0].differentiate(0)


def res_conformal(X: VectorField) -> list[Poly]:
    """Spatial conformal Killing system plus x-independence of X^0."""
    d = X.dim
    f = trace_factor(X)
    out = []
    for A in range(1, d + 1):
        for B in range(A, d + 1):
            val = X[A].differentiate(B) + X[B].differentiate(A)
            if A == B:
                val = val + f
            out.append(val)
    for A in range(1, d + 1):
        out.append(X[0].differentiate(A))
    return out


def res_exponent(X: VectorField, z) -> list[Poly]:
    """f + (2/z) g = 0; the z = inf family imposes f = 0 instead."""
    f = trace_factor(X)
    if z == INF:
        return [f]
    return [f + time_factor(X) * (Fraction(2) / z)]


def res_spatial_linear(X: VectorField) -> list[Poly]:
    """d_A d_B X^c = 0: no spatial quadratics survive."""
    d = X.dim
    out = []
    for c in range(d + 1):
        for A in range(1, d + 1):
            for B in range(A, d + 1):
                out.append(X[c].differentiate(A).differentiate(B))
    return out


def res_timelike_projective(X: VectorField) -> list[Poly]:
    """Flat system for conformal fields permuting timelike geodesics."""
    d = X.dim
    f = trace_factor(X)
    g = time_factor(X)
    gp = g.differentiate(0)
    out = res_conformal(X)
    for A in range(1, d + 1):
        out.append(X[A].differentiate(0).differentiate(0))
        for B in range(1, d + 1):
            val = X[A].differentiate(0).differentiate(B)
            if A == B:
                val = val - gp * _HALF
            out.append(val)
    out.extend(res_spatial_linear(X))
    out.append(f.differentiate(0) + gp)
    for A in range(1, d + 1):
        out.append(f.differentiate(A))
    return out


def res_isometry(X: VectorField) -> list[Poly]:
    """Full automorphisms: f = 0, g = 0 and flat L_X Gamma = 0."""
    d = X.dim
    out = res_conformal(X)
    out.append(trace_factor(X))
    out.append(time_factor(X))
    for c in range(d + 1):
        for a in range(d + 1):
            for b in range(a, d + 1):
                out.append(X[c].differentiate(a).differentiate(b))
    return out


def res_lightlike_projective(X: VectorField) -> list[Poly]:
    """Flat system for conformal fields permuting lightlike geodesics:
    conformal pair + spatial linearity + f a function of t alone."""
    d = X.dim
    f = trace_factor(X)
    out = res_conformal(X)
    out.extend(res_spatial_linear(X))
    for A in range(1, d + 1):
        out.append(f.differentiate(A))
    return out


# ---------------------------------------------------------------------------
# ansatz and nullspace machinery
# ---------------------------------------------------------------------------


# The spatial degree bound of every family's ansatz.
SPATIAL_DEGREE = 2


def ansatz_fields(d: int, nt_time: int, nt_space: int) -> list[VectorField]:
    """Unit coefficient fields spanning the search space: X^0 of time
    degree <= nt_time and no x-dependence, X^A of time degree <= nt_space
    and spatial degree <= SPATIAL_DEGREE."""
    fields = [time_translation(d, j) for j in range(nt_time + 1)]
    spatial = []
    for k in range(SPATIAL_DEGREE + 1):
        for combo in combinations_with_replacement(range(d), k):
            exp = [0] * d
            for B in combo:
                exp[B] += 1
            spatial.append(exp)
    for A in range(1, d + 1):
        for j in range(nt_space + 1):
            fields += [_unit_field(d, A, [j] + exp) for exp in spatial]
    return fields


class _Jet:
    """A linear combination of partial derivatives of the unknown
    components with polynomial coefficients, {(component, derivative
    multi-index): Poly}, no coefficient zero.  A residual operator run on
    jets yields its own table; a product of jets, or a jet plus a nonzero
    Poly, is not linear in the unknown and raises TypeError."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict):
        self.dim = dim
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, _Jet) and self.terms == other.terms

    def differentiate(self, var: int) -> "_Jet":
        """The product rule: d_var (P d^alpha u) = P d_var d^alpha u + (d_var P) d^alpha u."""
        raised = {}
        for (a, alpha), p in self.terms.items():
            beta = list(alpha)
            beta[var] += 1
            raised[a, tuple(beta)] = p
        out = _Jet(self.dim, raised)
        rest = {key: q for key, p in self.terms.items() if (q := p.differentiate(var)).terms}
        return out + _Jet(self.dim, rest) if rest else out

    def __add__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            if isinstance(other, Poly) and other.is_zero():
                return self
            raise TypeError("residual operator is not linear in the field")
        terms = dict(self.terms)
        for key, p in other.terms.items():
            terms[key] = terms[key] + p if key in terms else p
        return _Jet(self.dim, {key: p for key, p in terms.items() if p.terms})

    __radd__ = __add__

    def __neg__(self) -> "_Jet":
        return _Jet(self.dim, {key: -p for key, p in self.terms.items()})

    def __sub__(self, other) -> "_Jet":
        return self + (-other)

    def __mul__(self, c) -> "_Jet":
        if isinstance(c, _Jet):
            raise TypeError("residual operator is not linear in the field")
        return _Jet(self.dim, {key: q for key, p in self.terms.items() if (q := p * c).terms})

    __rmul__ = __mul__


_TABLES: dict = {}


def _compile(d: int, residual_op: Callable, size: int | None = None) -> list[dict]:
    """Derivative table of a linear operator: for each component a, the
    {alpha: [(i, m, c), ...]} with row i of residual_op containing the
    term c x^m d^alpha of component a, c an int where it is integral.
    The unknown is a VectorField, or a tuple of size components; a row
    that is not linear in it raises TypeError.  The tables of the
    operators this module defines are kept, by d."""
    if (d, residual_op) in _TABLES:
        return _TABLES[d, residual_op]
    unit = (0,) * (d + 1)
    jets = [_Jet(d, {(a, unit): Poly.const(d, 1)}) for a in range(size or d + 1)]
    table = [{} for _ in jets]
    for i, row in enumerate(residual_op(VectorField(d, jets) if size is None else tuple(jets))):
        if not isinstance(row, _Jet):
            raise TypeError(f"residual row {i} is not a linear function of the field")
        for (a, alpha), coef in row.terms.items():
            table[a].setdefault(alpha, []).extend(
                (i, m, c.numerator if c.denominator == 1 else c) for m, c in coef.terms.items())
    if globals().get(residual_op.__name__) is residual_op:
        _TABLES[d, residual_op] = table
    return table


def _residual_rows(fields: Sequence, residual_op: Callable) -> dict:
    """Sparse residual matrix {(residual index, monomial): {column: coef}}
    of VectorFields, or of tuples of the components residual_op takes as a
    tuple: each term c x^e of component a meets the table entries
    (i, m, p) of each alpha <= e at the row (i, e - alpha + m), with the
    falling factorials of d^alpha x^e.  Integral entries are ints."""
    rows: dict = {}
    if not fields:
        return rows
    first = fields[0]
    if isinstance(first, VectorField):
        table = _compile(first.dim, residual_op)
        fields = [X.components for X in fields]
    else:
        table = _compile(first[0].dim, residual_op, len(first))
    for j, comps in enumerate(fields):
        for a, comp in enumerate(comps):
            entries = table[a]
            for exp, c in comp.terms.items():
                c = c.numerator if c.denominator == 1 else c
                for alpha in product(*[range(e + 1) for e in exp]):
                    if alpha not in entries:
                        continue
                    shifted = tuple(map(sub, exp, alpha))
                    falling = prod(map(perm, exp, alpha))
                    cf = c if falling == 1 else c * falling
                    for i, m, p in entries[alpha]:
                        row = rows.setdefault((i, tuple(map(add, shifted, m))), {})
                        v = cf * p
                        if j in row:
                            v += row[j]
                        if v:
                            row[j] = v
                        else:
                            del row[j]
    return {key: row for key, row in rows.items() if row}


def restrict_span(
    fields: Sequence[VectorField], residual_op: Callable[[VectorField], list[Poly]]
) -> list[VectorField]:
    """Sub-span of given fields killed by a linear residual: the canonical
    nullspace of the residual matrix, one sparse row per (residual index,
    monomial) and one column per field.  residual_op is compiled once
    into a derivative table, so it must be linear (TypeError otherwise)."""
    kernel = linalg.nullspace(_residual_rows(fields, residual_op).values(), len(fields))
    vectors = {j: _field_vector(fields[j]) for j in set().union(*kernel)}
    out = []
    for coeffs in kernel:
        combination: dict = {}
        for j, c in coeffs.items():
            linalg._axpy(combination, c, vectors[j])
        out.append(_vector_field(fields[0].dim, combination))
    return out


# -- span algebra on vector fields -----------------------------------------


def _span(fields: Iterable[VectorField]) -> linalg.Echelon:
    return linalg.Echelon(_field_vector(X) for X in fields)


def _contains(span: linalg.Echelon, fields: Iterable[VectorField]) -> bool:
    return all(not span.reduce(_field_vector(X))[1] for X in fields)


def span_equal(a: Sequence[VectorField], b: Sequence[VectorField]) -> bool:
    span_a = _span(a)
    return span_a.rank == _span(b).rank and _contains(span_a, b)


def span_contains(basis: Sequence[VectorField], fields: Sequence[VectorField]) -> bool:
    return _contains(_span(basis), fields)


# ---------------------------------------------------------------------------
# algebra containers
# ---------------------------------------------------------------------------


class AlgebraBasis:
    __slots__ = ("family", "d", "generators", "labels", "z")

    def __init__(self, family: str, d: int, generators: list[VectorField], labels: list[str],
                 z=None):
        self.family = family
        self.d = d
        self.generators = generators
        self.labels = labels
        self.z = z  # Fraction, "inf" or None

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def factors(self) -> list[tuple[Poly, Poly]]:
        """(f, g) of each generator: L_X gamma = f gamma, L_X theta = g theta."""
        from .geometry import flat_galilei

        flat = flat_galilei(self.d)
        return [conformal_factors(X, flat.gamma, flat.theta) for X in self.generators]

    def to_report(self, structure: "StructureConstants | None" = None) -> dict:
        z = self.z
        if isinstance(z, Fraction):
            z = str(z)
        report = {
            "family": self.family,
            "d": self.d,
            "z": z,
            "dim": self.dim,
            "labels": list(self.labels),
            "generators": [X.to_obj() for X in self.generators],
        }
        if structure is not None:
            report["structure_constants"] = structure.to_entries()
        return report


class NotClosedError(Exception):
    def __init__(self, i: int, j: int, residual: VectorField):
        super().__init__(f"bracket of generators {i}, {j} leaves the span")
        self.pair = (i, j)
        self.residual = residual


class StructureConstants:
    __slots__ = ("n", "c")

    def __init__(self, n: int, c: dict):
        self.n = n
        # {(i, j): {k: coef}}: the nonzero coefficients of [X_i, X_j], one
        # entry per nonzero bracket in each order
        self.c = c

    def antisymmetry_ok(self) -> bool:
        return all(
            self.c.get((j, i), {}) == {k: -v for k, v in row.items()}
            for (i, j), row in self.c.items()
        )

    def jacobi_ok(self) -> bool:
        n, c = self.n, self.c
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: dict = {}
                    for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, v in c.get((a, b), {}).items():
                            linalg._axpy(acc, v, c.get((m, e), {}))
                    if acc:
                        return False
        return True

    def to_entries(self) -> list:
        return [
            [i, j, k, str(v)]
            for (i, j), row in sorted(self.c.items())
            for k, v in sorted(row.items())
        ]


class ClosureReport:
    __slots__ = ("closed", "witness")

    def __init__(self, closed: bool, witness: tuple | None = None):
        self.closed = closed
        # (i, j, residual field): the bracket of generators i, j reduced
        # against the span, nonzero exactly when the bracket leaves it
        self.witness = witness


def _bracket_expansions(fields: Sequence[VectorField]):
    """(i, j, coeffs, remainder) for each pair i < j: the bracket of fields
    i and j, computed from their term lists, reduced against one
    factorization of their span."""
    span = _span(fields)
    terms = [_bracket_terms(X) for X in fields]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            coeffs, remainder = span.reduce(_bracket_vector(terms[i], terms[j]))
            yield i, j, coeffs, remainder


def closure_check(fields: Sequence[VectorField]) -> ClosureReport:
    """Exact verification that all pairwise brackets stay in the span."""
    fields = list(fields)
    for i, j, _, remainder in _bracket_expansions(fields):
        if remainder:
            residual = _vector_field(fields[0].dim, remainder)
            return ClosureReport(closed=False, witness=(i, j, residual))
    return ClosureReport(closed=True)


def structure_constants(basis) -> StructureConstants:
    """Exact rational structure constants of a closed basis."""
    fields = basis.generators if isinstance(basis, AlgebraBasis) else list(basis)
    c = {}
    for i, j, coeffs, remainder in _bracket_expansions(fields):
        if remainder:
            raise NotClosedError(i, j, _vector_field(fields[0].dim, remainder))
        if coeffs:
            c[i, j] = coeffs
            c[j, i] = {k: -v for k, v in coeffs.items()}
    return StructureConstants(n=len(fields), c=c)


# ---------------------------------------------------------------------------
# generator builders (presentation layer)
# ---------------------------------------------------------------------------


def _unit_field(d: int, component: int, exp: Sequence[int], coef=1) -> VectorField:
    comps = [Poly.zero(d)] * (d + 1)
    comps[component] = Poly.monomial(d, tuple(exp), coef)
    return VectorField(d, comps)


def time_translation(d: int, k: int = 0) -> VectorField:
    return _unit_field(d, 0, [k] + [0] * d)


def translation(d: int, A: int, k: int = 0) -> VectorField:
    return _unit_field(d, A, [k] + [0] * d)


def rotation(d: int, A: int, B: int, k: int = 0) -> VectorField:
    """t^k (x^A d_B - x^B d_A)."""
    ea = [k] + [0] * d
    ea[A] = 1
    eb = [k] + [0] * d
    eb[B] = 1
    comps = [Poly.zero(d)] * (d + 1)
    comps[B] = Poly.monomial(d, tuple(ea))
    comps[A] = Poly.monomial(d, tuple(eb), -1)
    return VectorField(d, comps)


def space_dilation(d: int, k: int = 0) -> VectorField:
    comps = [Poly.zero(d)]
    for A in range(1, d + 1):
        e = [k] + [0] * d
        e[A] = 1
        comps.append(Poly.monomial(d, tuple(e)))
    return VectorField(d, comps)


def quadratic_expansion(d: int, A: int, k: int = 0) -> VectorField:
    """t^k (|x|^2 d_A - 2 x^A x.d): the spatial-degree-two conformal fields."""
    comps = [Poly.zero(d)]
    for C in range(1, d + 1):
        p = Poly.zero(d)
        if C == A:
            for B in range(1, d + 1):
                e = [k] + [0] * d
                e[B] += 2
                p = p + Poly.monomial(d, tuple(e))
        e = [k] + [0] * d
        e[C] += 1
        e[A] += 1
        p = p - 2 * Poly.monomial(d, tuple(e))
        comps.append(p)
    return VectorField(d, comps)


def sch_expansion(d: int) -> VectorField:
    """t^2 d_t + t x.d."""
    return time_translation(d, 2) + space_dilation(d, 1)


def cga_expansion(d: int, ether_velocity=None) -> VectorField:
    """1/2 t^2 d_t + t x.d, with the acceleration tail -1/2 t^2 u.d of a
    constant ether when one is supplied."""
    X = time_translation(d, 2).scale(_HALF) + space_dilation(d, 1)
    if ether_velocity is not None:
        for A in range(1, d + 1):
            u = Fraction(ether_velocity[A - 1])
            if u:
                X = X + translation(d, A, 2).scale(-_HALF * u)
    return X


def acceleration(d: int, A: int) -> VectorField:
    """-1/2 t^2 d_A."""
    return translation(d, A, 2).scale(-_HALF)


def _xi(d: int, k: int, z) -> VectorField:
    """xi_k = t^k d_t + (k/z) t^(k-1) x.d: grade k, dilation weight 1/z,
    which is 0 at z = inf and for z = None (families without an exponent)."""
    X = time_translation(d, k)
    if z not in (None, INF) and k:
        X = X + space_dilation(d, k - 1).scale(Fraction(k) / z)
    return X


# Graded generator templates: (d, k, z) -> the (label, field) pairs of grade k.
_TEMPLATES = {
    "omega": lambda d, k, z: [
        (f"omega[{A},{B}]", rotation(d, A, B, k)) for A, B in combinations(range(1, d + 1), 2)
    ],
    "eta": lambda d, k, z: [(f"eta[{A}]", translation(d, A, k)) for A in range(1, d + 1)],
    "kappa": lambda d, k, z: [
        (f"kappa[{A}]", quadratic_expansion(d, A, k)) for A in range(1, d + 1)
    ],
    "chi": lambda d, k, z: [("chi", space_dilation(d, k))],
    "dil": lambda d, k, z: [("dil", space_dilation(d, k))],
    "xi": lambda d, k, z: [("xi", _xi(d, k, z))],
}

# The infinite families, each a tuple of template names graded in turn.
_GRADED_FAMILIES = {
    "cgal": ("omega", "eta", "kappa", "chi", "xi"),
    "cgal_z": ("omega", "eta", "xi"),
    "cnc": ("omega", "dil", "eta", "xi"),
}


def _graded(names: Sequence[str], d: int, nt: int, z=None) -> list[tuple[str, VectorField]]:
    """Each named template at grades 0..nt in turn; grade k >= 1 labels gain *t^k."""
    out = []
    for name in names:
        for k in range(nt + 1):
            suffix = f"*t^{k}" if k else ""
            out += [(label + suffix, X) for label, X in _TEMPLATES[name](d, k, z)]
    return out


def _head(d: int, accelerations: bool = False) -> list[tuple[str, VectorField]]:
    """The head every finite algebra's list starts with: rotations, the
    accelerations alpha when asked for, boosts beta and translations gamma."""
    named = _TEMPLATES["omega"](d, 0, None)
    if accelerations:
        named += [(f"alpha[{A}]", acceleration(d, A)) for A in range(1, d + 1)]
    named += [(f"beta[{A}]", translation(d, A, 1)) for A in range(1, d + 1)]
    return named + [(f"gamma[{A}]", translation(d, A)) for A in range(1, d + 1)]


def _presented(
    family: str,
    d: int,
    raw: list[VectorField],
    named: list[tuple[str, VectorField]],
    z=None,
) -> AlgebraBasis:
    fields = [X for _, X in named]
    if len(fields) != len(raw) or not span_equal(raw, fields):
        raise AssertionError(f"{family}: presentation does not match the solved span")
    if _residual_rows(fields, res_conformal):
        raise AssertionError("emitted generator is not a conformal field")
    return AlgebraBasis(
        family=family,
        d=d,
        generators=fields,
        labels=[name for name, _ in named],
        z=z,
    )


# ---------------------------------------------------------------------------
# residual systems of the lightlike, NC-Milne and fixed-exponent families
# ---------------------------------------------------------------------------


def _res_mixed(X: VectorField) -> list[Poly]:
    """d_0 d_B X^A + delta_AB f'/2: the mixed rows of the lightlike system
    when the Coriolis form has no spatial part."""
    d = X.dim
    fp = trace_factor(X).differentiate(0)
    out = []
    for A in range(1, d + 1):
        for B in range(1, d + 1):
            val = X[A].differentiate(0).differentiate(B)
            if A == B:
                val = val + fp * _HALF
            out.append(val)
    return out


def _res_u_free(X: VectorField) -> list[Poly]:
    """The rows of the full lightlike system that no observer of the
    search enters: conformal, mixed and spatially linear."""
    return res_conformal(X) + _res_mixed(X) + res_spatial_linear(X)


class GaugeWitness:
    __slots__ = ("observer", "coriolis")

    def __init__(self, observer: Observer, coriolis: TwoForm):
        self.observer = observer
        self.coriolis = coriolis


def _observer_search(X: VectorField, n: int) -> tuple[Observer, TwoForm] | None:
    """Observer U = d_t + u(t).d with deg_t u <= n and F its flat Coriolis
    form (F_0A = u_A', F_AB = 0) solving the full lightlike system for X
    with its closed-form factors f and g, or None when no such u exists.
    With F_AB = 0 the mixed rows d_0 d_B X^A + delta_AB f'/2 lose F, so
    the rows of _res_u_free hold for every u or for none, and the row
    d_0 X^0 = g holds for g = d_0 X^0.  The d rows left, d_0 d_0 X^A =
    ((f+g) u_A)', carry u linearly: one reduction against the columns
    ((f+g) t^k)' of the unit coefficients of u decides.  Where u is not
    unique, a coefficient whose column the earlier ones span is zero."""
    if _residual_rows([X], _res_u_free):
        return None
    from .geometry import Observer

    d = X.dim
    fg = trace_factor(X) + time_factor(X)
    units = [(A, k) for A in range(1, d + 1) for k in range(n + 1)]
    span = linalg.Echelon(
        {(A, exp): c for exp, c in (fg * Poly.t(d) ** k).differentiate(0).terms.items()}
        for A, k in units
    )
    coeffs, remainder = span.reduce({
        (A, exp): c
        for A in range(1, d + 1)
        for exp, c in X[A].differentiate(0).differentiate(0).terms.items()
    })
    if remainder:
        return None
    u = {units[j]: c for j, c in coeffs.items()}
    comps = [Poly(d, {(k,) + (0,) * d: c for (B, k), c in u.items() if B == A})
             for A in range(1, d + 1)]
    F = TwoForm.from_upper(d, {(0, A): comps[A - 1].differentiate(0) for A in range(1, d + 1)})
    return Observer(VectorField(d, [Poly.const(d, 1)] + comps)), F


def lightlike_gauge_witness(X: VectorField) -> GaugeWitness | None:
    """Exact gauge pair (U, F) solving the full lightlike system for X,
    with U = d_t + u(t).d and F its flat Coriolis form, from the bounded
    observer search: the u-free rows (conformal, mixed, spatially linear)
    must vanish on X, and the d rows d_0 d_0 X^A = ((f+g) u_A)' that carry
    u are solved; the only other row, d_0 X^0 = g, holds for g = d_0 X^0.
    None means no observer with deg_t u <= deg_t X (a time-dependent
    rotation part never admits one: F_AB = 0)."""
    n = max((exp[0] for comp in X.components for exp in comp.terms), default=0)
    found = _observer_search(X, n)
    return None if found is None else GaugeWitness(*found)


def res_milne_relaxed(X: VectorField) -> list[Poly]:
    """Ether-independent subsystem: the lightlike system plus constant
    rotations, linear f, and no spatial part in d_0 d_0 X^A."""
    f = trace_factor(X)
    return res_lightlike_projective(X) + _res_mixed(X) + [f.differentiate(0).differentiate(0)]


def _res_c1_slice(X: VectorField) -> list[Poly]:
    # f' + 2 g' = 0 carves the acceleration branch out of the raw space
    f = trace_factor(X)
    g = time_factor(X)
    return [f.differentiate(0) + 2 * g.differentiate(0)]


def _res_c2_slice(X: VectorField) -> list[Poly]:
    # f' + g' = 0 together with no forced accelerations
    d = X.dim
    f = trace_factor(X)
    g = time_factor(X)
    out = [f.differentiate(0) + g.differentiate(0)]
    for A in range(1, d + 1):
        out.append(X[A].differentiate(0).differentiate(0))
    return out


def cmil_generator_ether(X: VectorField) -> Observer | None:
    """Constant ether making the full NC-Milne system hold for X alone:
    the bounded observer search at u of time degree 0, where the Coriolis
    form is zero.  None means no observer with deg_t u <= 0, no constant
    ether (accelerations need the expansion generator alongside)."""
    found = _observer_search(X, 0)
    return None if found is None else found[0]


def bracket_closure_grow(seed: Sequence[VectorField], ambient: Sequence[VectorField]):
    """Grow a closed span inside an ambient span by single directions;
    the fixpoint of a maximal branch is the branch itself."""
    current = list(seed)
    changed = True
    while changed:
        changed = False
        for v in ambient:
            if span_contains(current, [v]):
                continue
            candidate = current + [v]
            if closure_check(candidate).closed:
                current = candidate
                changed = True
    return current


def _res_const_rotation(X: VectorField) -> list[Poly]:
    d = X.dim
    out = []
    for A in range(1, d + 1):
        for B in range(A + 1, d + 1):
            out.append((X[A].differentiate(B) - X[B].differentiate(A)).differentiate(0))
    return out


def _res_quadratic_time(X: VectorField) -> list[Poly]:
    return [X[0].differentiate(0).differentiate(0).differentiate(0)]


def alt_candidate(d: int, N: int, z) -> list[tuple[str, VectorField]]:
    """Candidate generator list: quadratic time reparametrizations acting
    with dilation weight 1/z, constant rotations, translations of time
    degree <= N.  Closed under brackets iff z = 2/N."""
    z = _check_z(z)
    tail = [("kappa", _xi(d, 2, z).scale(_HALF)), ("mu", _xi(d, 1, z)), ("epsilon", _xi(d, 0, z))]
    return _TEMPLATES["omega"](d, 0, None) + _graded(("eta",), d, N, z) + tail


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


def _sch_expanded_named(d: int) -> list[tuple[str, VectorField]]:
    """Generator list of the expanded timelike algebra and of cmil c2."""
    return _head(d) + [
        ("kappa", sch_expansion(d)),
        ("mu", time_translation(d, 1)),
        ("lambda", space_dilation(d)),
        ("epsilon", time_translation(d)),
    ]


def _z_slice(q: _Request, prefix: str, accelerations: bool) -> tuple[str, list]:
    """Family name and generator list of a z-slice of the timelike algebra
    (sch) or of the acceleration branch (cga): the head, the expansion
    kappa = (z/2) xi_2 at the family's default exponent, the dilation
    lambda = z xi_1 (mu = xi_1 at z = inf), then epsilon.  Away from the
    default exponent the family is prefix_z, or prefix_inf at z = inf."""
    d, z = q.d, q.z
    special = z == FAMILIES[q.family].options["z"]
    named = _head(d, accelerations)
    if special:
        named.append(("kappa", _xi(d, 2, z).scale(z / 2)))
    named.append(("mu", _xi(d, 1, z)) if z == INF else ("lambda", _xi(d, 1, z).scale(z)))
    named.append(("epsilon", time_translation(d)))
    return q.family if special else f"{prefix}_{'inf' if z == INF else 'z'}", named


def _cmil_named(q: _Request) -> tuple[str, list]:
    """Family name and generator list of an NC-Milne branch: c2 is
    presented as sch-expanded; c1's kappa gains the acceleration tail of
    the ether, none for no ether (the rest observer)."""
    d = q.d
    if q.branch == "c2":
        return "cmil_c2", _sch_expanded_named(d)
    u = None if q.ether is None else [q.ether.U[A].constant_value() for A in range(1, d + 1)]
    return "cmil_c1", _head(d, accelerations=True) + [
        ("kappa", cga_expansion(d, u)),
        ("lambda", space_dilation(d)),
        ("mu", time_translation(d, 1)),
        ("epsilon", time_translation(d)),
    ]


class _Family:
    """A row of FAMILIES."""

    __slots__ = ("options", "closed", "bounds", "parent", "op", "named", "exponent")

    def __init__(self, options: dict, closed: bool, op: Callable, named: Callable | None,
                 bounds: Callable | None = None, parent: tuple | None = None,
                 exponent: Callable | None = None):
        self.options, self.closed, self.op, self.named = options, closed, op, named
        self.bounds, self.parent, self.exponent = bounds, parent, exponent


# Every family once, keyed by its --family name (cmil-raw and cnc-z are
# spans without a presentation, and no --family).  A row holds
#   options: the options the family reads, each with its default (None:
#     the option is required);
#   closed: whether its brackets close, so that it has structure constants;
#   bounds(deg_t, N): the time degrees (of X^0, of X^A) of the ansatz it is
#     solved over, whose X^A have spatial degree <= SPATIAL_DEGREE; or else
#   parent: (family, options, accepted families) of the span it restricts,
#     solved from that request unless a parent span is passed in;
#   op(X, q): its residual operator for the request q;
#   named(q): its family name and (label, field) presentation, or None;
#   exponent(q): its dynamical exponent, where it reads no z.
FAMILIES = {
    "cgal": _Family(
        {"deg_t": 2}, False, bounds=lambda nt, N: (nt, nt),
        op=lambda X, q: res_conformal(X),
        named=lambda q: ("cgal", _graded(_GRADED_FAMILIES["cgal"], q.d, q.deg_t))),
    "cgal-z": _Family(
        {"z": None, "deg_t": 2}, False, bounds=lambda nt, N: (nt, nt),
        op=lambda X, q: res_conformal(X) + res_exponent(X, q.z),
        named=lambda q: ("cgal_z", _graded(_GRADED_FAMILIES["cgal_z"], q.d, q.deg_t, q.z))),
    "gal": _Family(
        {}, True, bounds=lambda nt, N: (2, 2),
        op=lambda X, q: res_isometry(X),
        named=lambda q: ("gal", _head(q.d) + [("epsilon", time_translation(q.d))])),
    # z = 2 is sch itself; the branch c2 spans the same fields as sch-expanded
    "sch": _Family(
        {"z": Fraction(2)}, True, parent=("sch-expanded", {}, ("sch_expanded", "cmil_c2")),
        op=lambda X, q: res_exponent(X, q.z),
        named=lambda q: _z_slice(q, "sch", accelerations=False)),
    # any time bound >= 2 gives the same span: the system cuts every cubic
    "sch-expanded": _Family(
        {}, True, bounds=lambda nt, N: (3, 3),
        op=lambda X, q: res_timelike_projective(X),
        named=lambda q: ("sch_expanded", _sch_expanded_named(q.d))),
    "cnc": _Family(
        {"deg_t": 2}, False, bounds=lambda nt, N: (nt, nt),
        op=lambda X, q: res_lightlike_projective(X),
        named=lambda q: ("cnc", _graded(_GRADED_FAMILIES["cnc"], q.d, q.deg_t))),
    # the closed branches of cmil-raw: c1, whose kappa gains the acceleration
    # tail of the ether (the only presentation that reads one), and c2.  The
    # closed-branch condition ties the quadratic time reparametrization to
    # the space dilation rate; an acceleration solves the pointwise NC-Milne
    # system only jointly with kappa (cmil_generator_ether)
    "cmil": _Family(
        {"branch": "c1"}, True, parent=("cmil-raw", {}, ()),
        op=lambda X, q: (_res_c1_slice if q.branch == "c1" else _res_c2_slice)(X),
        named=_cmil_named),
    # z = 1 is the conformal Galilean algebra itself
    "cga": _Family(
        {"z": Fraction(1)}, True, parent=("cmil", {"branch": "c1"}, ("cmil_c1",)),
        op=lambda X, q: res_exponent(X, q.z),
        named=lambda q: _z_slice(q, "cmil", accelerations=True)),
    "alt": _Family(
        {"N": 1}, True, bounds=lambda nt, N: (max(N, 2), max(N, 1)),
        op=lambda X, q: (res_conformal(X) + res_exponent(X, q.z) + _res_const_rotation(X)
                         + _res_quadratic_time(X)),
        named=lambda q: ("alt", alt_candidate(q.d, q.N, q.z)),
        exponent=lambda q: Fraction(2, q.N)),
    # The ether-independent NC-Milne subsystem, whose second time derivative
    # of the translation part is left free.  It has solutions of every time
    # degree (at d = 3, 17, 21 and 25 at deg_t = 2, 3, 4, with c1 slices of
    # 16, 19 and 22), so c1 and c2 are maximal bracket-closed subalgebras
    # of it, not nullspaces; the tests check maximality at deg_t = 2, 3, 4.
    "cmil-raw": _Family(
        {"deg_t": 2}, False, bounds=lambda nt, N: (nt, nt),
        op=lambda X, q: res_milne_relaxed(X), named=None),
    # the z-slices of cnc, compared against cgal-z at the same time bound
    "cnc-z": _Family(
        {"z": None}, False, parent=("cnc", {}, ("cnc",)),
        op=lambda X, q: res_exponent(X, q.z), named=None),
}


class _Request:
    """A request for FAMILIES[family]: the options it reads, those not
    given at their defaults, checked together with d and the ether."""

    __slots__ = ("family", "d", "ether", "deg_t", "z", "N", "branch")

    def __init__(self, family: str, d: int, ether: Observer | None = None, **given):
        row = FAMILIES[family]
        _check_count("d", d, 2, MAX_D)
        unread = given.keys() - row.options.keys()
        if ether is not None and family != "cmil":
            unread.add("ether")
        if unread:
            raise TypeError(f"{family} does not read {', '.join(sorted(unread))}")
        self.family, self.d, self.ether = family, d, ether
        for option in ("deg_t", "z", "N", "branch"):
            setattr(self, option, given.get(option, row.options.get(option)))
        if "deg_t" in row.options:
            _check_count("deg_t", self.deg_t, 0, MAX_TIME_DEGREE, label="nt")
        if "N" in row.options:
            _check_count("N", self.N, 1, MAX_N)
        if row.exponent is not None:
            self.z = row.exponent(self)
        elif "z" in row.options:
            if self.z is None:
                raise ValueError(f"--z required for {family}")
            self.z = _check_z(self.z)
        if ether is not None:
            if ether.U.dim != d:
                raise ValueError(f"ether has dimension {ether.U.dim}, need d = {d}")
            if not all(p.is_constant() for p in ether.U.components):
                raise ValueError("ether must have constant components")


def _check_count(option: str, value, low: int, high: int, label: str | None = None) -> None:
    """TypeError unless value is an int and not a bool; ValueError unless
    low <= value <= high."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{option} must be an int, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"need {low} <= {label or option} <= {high}, got {value}")


def _raw_span(family: str, d: int, parent=None, ether: Observer | None = None, **given):
    """The request for FAMILIES[family] and its solved span.  A row with a
    parent restricts the parent passed in (a basis of an accepted family,
    or a list of fields of dimension d), or else the raw span of the
    parent's request, which spans what the parent's presentation would."""
    row = FAMILIES[family]
    q = _Request(family, d, ether, **given)
    if row.parent is None:
        fields = ansatz_fields(d, *row.bounds(q.deg_t, q.N))
    else:
        key, options, accepted = row.parent
        if parent is None:
            parent = _raw_span(key, d, **options)[1]
        if isinstance(parent, AlgebraBasis):
            if parent.family not in accepted:
                raise ValueError(f"restriction expects a {' or '.join(accepted)} basis")
            parent = parent.generators
        fields = parent
        wrong = sorted({X.dim for X in fields} - {d})
        if wrong:
            raise ValueError(f"parent fields have dimension {', '.join(map(str, wrong))}, "
                             f"need d = {d}")
    return q, restrict_span(fields, lambda X: row.op(X, q))


def solve(family: str, d: int, parent=None, ether: Observer | None = None, **given):
    """The presented basis of FAMILIES[family], or its span for a row with
    no presentation (cmil-raw, cnc-z), for the options given and the
    defaults of the rest: the one entry point of every family.  A row with
    a parent restricts the parent passed in, a basis of a family the row
    accepts or a list of fields of dimension d, or else solves the
    parent's request; solving cmil-raw once and passing it to both cmil
    branches solves it once.  Only cmil reads an ether, a constant
    observer of dimension d.  A presentation whose brackets leave its span
    is returned; structure_constants refuses it (NotClosedError)."""
    q, raw = _raw_span(family, d, parent, ether, **given)
    named = FAMILIES[family].named
    if named is None:
        return raw
    name, fields = named(q)
    return _presented(name, d, raw, fields, z=q.z)


def alt_obstruction_coefficient(d: int, N: int, z) -> Fraction:
    """Top-degree coefficient obstructing closure: the bracket of the
    expansion generator with a degree-N translation has a t^(N+1)
    translation part with coefficient (N/2 - 1/z)."""
    named = alt_candidate(d, N, z)
    top = [X for name, X in named if name.partition("*")[0] == "eta[1]"][-1]
    br = lie_bracket(dict(named)["kappa"], top)
    exp = tuple([N + 1] + [0] * d)
    return br[1].terms.get(exp, Fraction(0))


def alt_closure_scan(d: int, N: int, z_values) -> dict:
    """Exact closure verdict of the candidate family across exponents."""
    out = {}
    for z in z_values:
        fields = [X for _, X in alt_candidate(d, N, z)]
        out[str(z)] = closure_check(fields).closed
    return out
