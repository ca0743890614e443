"""Vector fields, Lie brackets and Lie derivatives on a fixed global chart.

All index conventions: 0 = time, 1..d = space.  Symmetrization over a
pair of indices carries the 1/2 normalization, e.g.
T_(ab) = (T_ab + T_ba)/2.  Everything is exact polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add

from .poly import Poly


def _check_same_dim(*dims: int) -> int:
    d = dims[0]
    if any(x != d for x in dims):
        raise ValueError("dimension mismatch")
    return d


class VectorField:
    """X = X^0 d_t + X^A d_A with polynomial components."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components):
        comps = tuple(components)
        if len(comps) != dim + 1:
            raise ValueError(f"need {dim + 1} components, got {len(comps)}")
        if any(c.dim != dim for c in comps):
            raise ValueError("component dimension mismatch")
        self.dim = dim
        self.components = comps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __hash__(self):
        return hash((self.dim, self.components))

    def __getitem__(self, a: int) -> Poly:
        return self.components[a]

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_dim(self.dim, other.dim)
        return VectorField(self.dim, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_dim(self.dim, other.dim)
        return VectorField(self.dim, [a - b for a, b in zip(self.components, other.components)])

    def scale(self, c) -> "VectorField":
        return VectorField(self.dim, [comp * c for comp in self.components])

    def apply(self, func: Poly) -> Poly:
        """Directional derivative X(func) = X^a d_a func."""
        out = Poly.zero(self.dim)
        for a in range(self.dim + 1):
            out = out + self.components[a] * func.differentiate(a)
        return out

    def to_obj(self) -> dict:
        return {"dim": self.dim, "components": [c.to_obj() for c in self.components]}


class OneForm:
    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components):
        comps = tuple(components)
        if len(comps) != dim + 1:
            raise ValueError(f"need {dim + 1} components")
        self.dim = dim
        self.components = comps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __hash__(self):
        return hash((self.dim, self.components))

    @classmethod
    def zero(cls, dim: int) -> "OneForm":
        return cls(dim, [Poly.zero(dim)] * (dim + 1))

    def __getitem__(self, a: int) -> Poly:
        return self.components[a]

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.dim, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.dim, [a - b for a, b in zip(self.components, other.components)])

    def pair(self, X: VectorField) -> Poly:
        out = Poly.zero(self.dim)
        for a in range(self.dim + 1):
            out = out + self.components[a] * X[a]
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


class SymTensor2Up:
    """Twice-contravariant symmetric tensor (gamma and its Lie derivatives)."""

    __slots__ = ("dim", "comp")

    def __init__(self, dim: int, comp):
        comp = [list(row) for row in comp]
        n = dim + 1
        if len(comp) != n or any(len(r) != n for r in comp):
            raise ValueError("component matrix must be (d+1)x(d+1)")
        for a in range(n):
            for b in range(a + 1, n):
                if comp[a][b] != comp[b][a]:
                    raise ValueError("tensor is not symmetric")
        self.dim = dim
        self.comp = comp

    def __getitem__(self, ab):
        a, b = ab
        return self.comp[a][b]

    def __sub__(self, other: "SymTensor2Up") -> "SymTensor2Up":
        return SymTensor2Up(
            self.dim,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.comp, other.comp)],
        )


class TwoForm:
    """Antisymmetric twice-covariant tensor."""

    __slots__ = ("dim", "comp")

    def __init__(self, dim: int, comp):
        comp = [list(row) for row in comp]
        n = dim + 1
        if len(comp) != n or any(len(r) != n for r in comp):
            raise ValueError("component matrix must be (d+1)x(d+1)")
        for a in range(n):
            if not comp[a][a].is_zero():
                raise ValueError("two-form has nonzero diagonal")
            for b in range(a + 1, n):
                if comp[a][b] != -comp[b][a]:
                    raise ValueError("two-form is not antisymmetric")
        self.dim = dim
        self.comp = comp

    @classmethod
    def zero(cls, dim: int) -> "TwoForm":
        z = Poly.zero(dim)
        return cls(dim, [[z] * (dim + 1) for _ in range(dim + 1)])

    @classmethod
    def from_upper(cls, dim: int, entries: dict) -> "TwoForm":
        """Build from {(a,b): Poly} with a < b; the lower triangle is implied."""
        z = Poly.zero(dim)
        comp = [[z] * (dim + 1) for _ in range(dim + 1)]
        for (a, b), val in entries.items():
            if a >= b:
                raise ValueError("use a < b keys")
            comp[a][b] = val
            comp[b][a] = -val
        return cls(dim, comp)

    def __getitem__(self, ab):
        a, b = ab
        return self.comp[a][b]

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(
            self.dim,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.comp, other.comp)],
        )

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(
            self.dim,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.comp, other.comp)],
        )


class ThreeForm:
    """Rank-3 fully antisymmetric tensor, stored on sorted index triples."""

    __slots__ = ("dim", "comp")

    def __init__(self, dim: int, comp: dict):
        self.dim = dim
        self.comp = dict(comp)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.comp.values())


class Connection:
    """Symmetric-in-lower-indices coefficients, comp[c][a][b]; also used
    for the (1,2)-tensors produced by Lie-deriving a connection."""

    __slots__ = ("dim", "comp")

    def __init__(self, dim: int, comp):
        comp = [[list(row) for row in mat] for mat in comp]
        n = dim + 1
        if len(comp) != n or any(len(m) != n or any(len(r) != n for r in m) for m in comp):
            raise ValueError("components must be (d+1)^3")
        for c in range(n):
            for a in range(n):
                for b in range(a + 1, n):
                    if comp[c][a][b] != comp[c][b][a]:
                        raise ValueError("connection not symmetric in lower indices")
        self.dim = dim
        self.comp = comp

    @classmethod
    def zero(cls, dim: int) -> "Connection":
        z = Poly.zero(dim)
        n = dim + 1
        return cls(dim, [[[z] * n for _ in range(n)] for _ in range(n)])

    def __getitem__(self, cab):
        c, a, b = cab
        return self.comp[c][a][b]

    def __sub__(self, other: "Connection") -> "Connection":
        n = self.dim + 1
        return Connection(
            self.dim,
            [[[self.comp[c][a][b] - other.comp[c][a][b] for b in range(n)] for a in range(n)]
             for c in range(n)],
        )


# ---------------------------------------------------------------------------
# Lie calculus
# ---------------------------------------------------------------------------


def _field_vector(X: VectorField) -> dict:
    """X as a sparse vector keyed by (component, exponent)."""
    return {(a, exp): c for a, comp in enumerate(X.components) for exp, c in comp.terms.items()}


def _vector_field(d: int, vector: dict) -> VectorField:
    """The field of a sparse {(component, exponent): coef} vector."""
    comps = [dict() for _ in range(d + 1)]
    for (a, exp), c in vector.items():
        comps[a][exp] = c
    return VectorField(d, [Poly(d, c) for c in comps])


def _bracket_terms(X: VectorField) -> tuple:
    """Term lists of X for _bracket_vector: (terms, derivatives), where
    terms[b] lists (exp, c) for each term c x^exp of X^b, and
    derivatives[b] lists (a, exp - unit_b, c exp[b]) for each term of X^a
    with exp[b] > 0, the terms of d_b X^a."""
    n = X.dim + 1
    terms = [list(comp.terms.items()) for comp in X.components]
    derivatives = [[] for _ in range(n)]
    for a, comp in enumerate(X.components):
        for exp, c in comp.terms.items():
            for b, e in enumerate(exp):
                if e:
                    shifted = list(exp)
                    shifted[b] = e - 1
                    derivatives[b].append((a, tuple(shifted), c * e))
    return terms, derivatives


def _bracket_vector(x: tuple, y: tuple) -> dict:
    """[X,Y] = X^b d_b Y^a - Y^b d_b X^a as a sparse {(component,
    exponent): coef} vector, from the _bracket_terms x of X and y of Y:
    each term c1 x^e1 of X^b times each term c2 x^e2 of d_b Y^a adds
    c1 c2 at (a, e1 + e2), then the same with X and Y swapped is
    subtracted.  Entries that cancel are dropped."""
    out: dict = {}
    for (terms, _), (_, derivatives), sign in ((x, y, 1), (y, x, -1)):
        for b, factors in enumerate(terms):
            for e1, c1 in factors:
                c1 *= sign
                for a, e2, c2 in derivatives[b]:
                    key = (a, tuple(map(add, e1, e2)))
                    v = out.get(key)
                    out[key] = c1 * c2 if v is None else v + c1 * c2
    return {key: v for key, v in out.items() if v}


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X,Y]^a = X^b d_b Y^a - Y^b d_b X^a, from term products."""
    d = _check_same_dim(X.dim, Y.dim)
    return _vector_field(d, _bracket_vector(_bracket_terms(X), _bracket_terms(Y)))


def _lie_derive(X: VectorField, upper: int, T, indices) -> dict:
    """L_X of a tensor whose first ``upper`` slots are contravariant and
    the rest covariant, at each index tuple of ``indices``:
      X^k d_k T(..) - d_k X^i T(..k..) for each upper slot i
                    + d_i X^k T(..k..) for each lower slot i.
    ``T`` maps an index tuple to its component; returns {tuple: Poly}."""
    n = X.dim + 1
    dX = [[X[a].differentiate(b) for b in range(n)] for a in range(n)]  # d_b X^a
    coefs = (
        [[-p for p in row] for row in dX],  # upper slot i, summed k: -d_k X^i
        [list(col) for col in zip(*dX)],  # lower slot i, summed k: d_i X^k
    )
    out = {}
    for idx in indices:
        val = X.apply(T(idx))
        for slot, i in enumerate(idx):
            row = coefs[slot >= upper][i]
            for k in range(n):
                if not row[k].is_zero():
                    val = val + row[k] * T(idx[:slot] + (k,) + idx[slot + 1:])
        out[idx] = val
    return out


def lie_derive_sym2up(X: VectorField, G: SymTensor2Up) -> SymTensor2Up:
    """L_X gamma^{ab} = X^c d_c gamma^{ab} - 2 d_c X^(a gamma^b)c."""
    d = _check_same_dim(X.dim, G.dim)
    n = d + 1
    lg = _lie_derive(X, 2, G.__getitem__, [(a, b) for a in range(n) for b in range(a, n)])
    return SymTensor2Up(d, [[lg[min(a, b), max(a, b)] for b in range(n)] for a in range(n)])


def lie_derive_one_form(X: VectorField, w: OneForm) -> OneForm:
    """L_X w_a = X^b d_b w_a + w_b d_a X^b."""
    d = _check_same_dim(X.dim, w.dim)
    return OneForm(d, _lie_derive(X, 0, lambda i: w[i[0]], [(a,) for a in range(d + 1)]).values())


def lie_derive_structure(X: VectorField, gamma: SymTensor2Up, theta: OneForm):
    """(L_X gamma, L_X theta) of a Galilei pair."""
    return lie_derive_sym2up(X, gamma), lie_derive_one_form(X, theta)


def lie_derive_two_form(X: VectorField, F: TwoForm) -> TwoForm:
    """L_X F_ab = X^c d_c F_ab + F_cb d_a X^c + F_ac d_b X^c."""
    d = _check_same_dim(X.dim, F.dim)
    n = d + 1
    return TwoForm.from_upper(
        d, _lie_derive(X, 0, F.__getitem__, [(a, b) for a in range(n) for b in range(a + 1, n)])
    )


def lie_derive_connection(X: VectorField, G: Connection) -> Connection:
    """L_X Gamma^c_ab, the (1,2)-tensor formula plus d_a d_b X^c; reduces
    to d_a d_b X^c on a flat chart."""
    d = _check_same_dim(X.dim, G.dim)
    n = d + 1
    indices = [(c, a, b) for c in range(n) for a in range(n) for b in range(a, n)]
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for (c, a, b), val in _lie_derive(X, 1, G.__getitem__, indices).items():
        out[c][a][b] = out[c][b][a] = val + X[c].differentiate(a).differentiate(b)
    return Connection(d, out)


def exterior_derivative_one_form(w: OneForm) -> TwoForm:
    d = w.dim
    entries = {}
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            entries[(a, b)] = w[b].differentiate(a) - w[a].differentiate(b)
    return TwoForm.from_upper(d, entries)


def exterior_derivative(F: TwoForm) -> ThreeForm:
    """(dF)_abc = d_a F_bc + d_b F_ca + d_c F_ab, nonzero components only."""
    comp = {}
    for a, b, c in combinations(range(F.dim + 1), 3):
        val = F[b, c].differentiate(a) + F[c, a].differentiate(b) + F[a, b].differentiate(c)
        if not val.is_zero():
            comp[a, b, c] = val
    return ThreeForm(F.dim, comp)


def conformal_factors(X: VectorField, gamma: SymTensor2Up, theta: OneForm):
    """(f, g) with L_X gamma = f gamma and L_X theta = g theta, or None.

    Requires gamma to have at least one nonzero constant component (true
    for the flat-chart structures in scope).  When present, g is checked
    to depend on t alone.
    """
    d = _check_same_dim(X.dim, gamma.dim, theta.dim)
    n = d + 1
    lg, lt = lie_derive_structure(X, gamma, theta)

    ref = next(((a, b) for a in range(n) for b in range(n)
                if not gamma[a, b].is_zero() and gamma[a, b].is_constant()), None)
    if ref is None:
        raise ValueError("gamma has no constant reference component")
    f = lg[ref] * (Fraction(1) / gamma[ref].constant_value())
    for a in range(n):
        for b in range(n):
            if lg[a, b] != f * gamma[a, b]:
                return None

    ref = next((a for a in range(n) if not theta[a].is_zero() and theta[a].is_constant()), None)
    if ref is None:
        raise ValueError("theta has no constant reference component")
    g = lt[ref] * (Fraction(1) / theta[ref].constant_value())
    for a in range(n):
        if lt[a] != g * theta[a]:
            return None
    if any(g.depends_on(a) for a in range(1, n)):
        return None
    return f, g


def lie_derive_gamma_theta_power(X: VectorField, gamma: SymTensor2Up, theta: OneForm, ncov: int):
    """Full Lie derivative of gamma (x) theta^(x ncov), computed from the
    mixed-tensor formula rather than the product rule.  Returns the map
    of nonzero components keyed by (a, b, c_1..c_ncov); vanishing of the
    whole map characterizes dynamical exponent z = 2 / ncov."""
    from itertools import product as iproduct

    d = _check_same_dim(X.dim, gamma.dim, theta.dim)

    def T(idx):
        val = gamma[idx[0], idx[1]]
        for c in idx[2:]:
            val = val * theta[c]
        return val

    out = _lie_derive(X, 2, T, iproduct(range(d + 1), repeat=ncov + 2))
    return {idx: val for idx, val in out.items() if not val.is_zero()}


# ---------------------------------------------------------------------------
# Canonical cotangent lift
# ---------------------------------------------------------------------------


class CotangentLift:
    """Lift X~ = X^a d_a - p_b (dX^b/dx^a) d/dp_a.

    ``momentum[a][b]`` is the coefficient of p_b in the d/dp_a component,
    i.e. -d_a X^b; momentum components are linear in p by construction.
    """

    __slots__ = ("base", "momentum")

    def __init__(self, base: VectorField, momentum: tuple):
        self.base = base
        self.momentum = momentum


def canonical_lift(X: VectorField) -> CotangentLift:
    d = X.dim
    mom = tuple(
        tuple(-X[b].differentiate(a) for b in range(d + 1)) for a in range(d + 1)
    )
    return CotangentLift(base=X, momentum=mom)

