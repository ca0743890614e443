"""Newton-Cartan data on the flat global chart.

A Galilei structure is the degenerate pair (gamma, theta) with
gamma^{ab} theta_b = 0; a Newton-Cartan structure adds a compatible
symmetric connection.  Connections are parametrized by an observer U
(theta(U) = 1) together with a closed two-form F encoding Coriolis-like
accelerations; gauge pairs related by a Milne boost give the same
connection, which every constructor here verifies exactly.

Only globally-charted, polynomial-coefficient structures with the flat
(gamma, theta) are constructible; that keeps every check a certificate
and covers every system exercised downstream.
"""

from __future__ import annotations

from fractions import Fraction

from .lie import (
    Connection,
    OneForm,
    SymTensor2Up,
    TwoForm,
    VectorField,
    exterior_derivative,
    exterior_derivative_one_form,
)
from .poly import Poly


class GalileiStructure:
    __slots__ = ("dim", "gamma", "theta")

    def __init__(self, dim: int, gamma: SymTensor2Up, theta: OneForm):
        n = dim + 1
        for a in range(n):
            total = Poly.zero(dim)
            for b in range(n):
                total = total + gamma[a, b] * theta[b]
            if not total.is_zero():
                raise ValueError("gamma theta != 0: not a Galilei structure")
        self.dim = dim
        self.gamma = gamma
        self.theta = theta

    def is_flat_chart(self) -> bool:
        """(gamma, theta) is the pair of flat_galilei, which needs d >= 2."""
        flat = flat_galilei(self.dim) if self.dim >= 2 else None
        return flat is not None and self.gamma.comp == flat.gamma.comp and self.theta == flat.theta


class Observer:
    """Unit vector field: theta(U) = 1, i.e. U^0 = 1 on the flat chart."""

    __slots__ = ("U",)

    def __init__(self, U: VectorField):
        if U[0] != Poly.const(U.dim, 1):
            raise ValueError("observer is not unit: theta(U) must equal 1")
        self.U = U


def covariant_derivative_gamma(G: Connection, gamma: SymTensor2Up, c: int, a: int, b: int) -> Poly:
    val = gamma[a, b].differentiate(c)
    for k in range(gamma.dim + 1):
        val = val + G[a, c, k] * gamma[k, b] + G[b, c, k] * gamma[a, k]
    return val


def covariant_derivative_theta(G: Connection, theta: OneForm, a: int, b: int) -> Poly:
    val = theta[b].differentiate(a)
    for c in range(theta.dim + 1):
        val = val - G[c, a, b] * theta[c]
    return val


class NCStructure:
    __slots__ = ("base", "connection")

    def __init__(self, base: GalileiStructure, connection: Connection):
        d = base.dim
        for c in range(d + 1):
            for a in range(d + 1):
                for b in range(d + 1):
                    if not covariant_derivative_gamma(connection, base.gamma, c, a, b).is_zero():
                        raise ValueError("connection does not parallel-transport gamma")
                    if not covariant_derivative_theta(connection, base.theta, a, b).is_zero():
                        raise ValueError("connection does not parallel-transport theta")
        self.base = base
        self.connection = connection

    @property
    def dim(self) -> int:
        return self.base.dim


def flat_galilei(d: int) -> GalileiStructure:
    if d < 2:
        raise ValueError("spatial dimension must be at least 2")
    z = Poly.zero(d)
    one = Poly.const(d, 1)
    gamma = SymTensor2Up(
        d, [[one if (a == b and a >= 1) else z for b in range(d + 1)] for a in range(d + 1)]
    )
    theta = OneForm(d, [one] + [z] * d)
    return GalileiStructure(d, gamma, theta)


def flat_structure(d: int) -> NCStructure:
    """Flat structure: spatial identity gamma, theta = dt, vanishing connection."""
    return NCStructure(flat_galilei(d), Connection.zero(d))


def rest_observer(d: int) -> Observer:
    return constant_observer(d, [0] * d)


def constant_observer(d: int, velocity) -> Observer:
    comps = [Poly.const(d, 1)] + [Poly.const(d, v) for v in velocity]
    return Observer(VectorField(d, comps))


def observer_cometric(base: GalileiStructure, obs: Observer):
    """The twice-covariant tensor determined by
    Ugam_ak gamma^kb = delta_a^b - U^b theta_a  and  Ugam_ak U^k = 0,
    solved per index pair on the flat chart and verified exactly."""
    if not base.is_flat_chart():
        raise ValueError("observer cometric implemented on the flat chart only")
    d = base.dim
    U = obs.U
    n = d + 1
    ug = [[Poly.zero(d) for _ in range(n)] for _ in range(n)]
    # spatial columns are fixed by the first condition ...
    for a in range(n):
        for B in range(1, n):
            delta = Poly.const(d, 1) if a == B else Poly.zero(d)
            ug[a][B] = delta - U[B] * base.theta[a]
    for B in range(1, n):
        ug[B][0] = ug[0][B]
    # ... and the 00 entry by transversality to U.
    acc = Poly.zero(d)
    for k in range(1, n):
        acc = acc + ug[0][k] * U[k]
    ug[0][0] = -acc

    for a in range(n):
        for b in range(n):
            lhs = Poly.zero(d)
            for k in range(n):
                lhs = lhs + ug[a][k] * base.gamma[k, b]
            delta = Poly.const(d, 1) if a == b else Poly.zero(d)
            if lhs != delta - U[b] * base.theta[a]:
                raise AssertionError("observer cometric: projector condition failed")
        lhs = Poly.zero(d)
        for k in range(n):
            lhs = lhs + ug[a][k] * U[k]
        if not lhs.is_zero():
            raise AssertionError("observer cometric: transversality failed")
    return ug


def geodesic_observer_connection(base: GalileiStructure, obs: Observer) -> Connection:
    """The unique compatible connection making the observer geodesic and
    curl-free: Gamma^c_ab = gamma^ck (d_(a Ugam_b)k - 1/2 d_k Ugam_ab)
                            + d_(a theta_b) U^c."""
    d = base.dim
    n = d + 1
    ug = observer_cometric(base, obs)
    half = Fraction(1, 2)
    comp = [[[Poly.zero(d) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                val = Poly.zero(d)
                for k in range(n):
                    inner = (
                        (ug[b][k].differentiate(a) + ug[a][k].differentiate(b)) * half
                        - ug[a][b].differentiate(k) * half
                    )
                    val = val + base.gamma[c, k] * inner
                val = val + (
                    base.theta[b].differentiate(a) + base.theta[a].differentiate(b)
                ) * half * obs.U[c]
                comp[c][a][b] = val
                comp[c][b][a] = val
    return Connection(d, comp)


def connection_from_observer(base: GalileiStructure, obs: Observer, F: TwoForm) -> NCStructure:
    """Gamma = UGamma + theta_(a F_b)k gamma^kc for a closed Coriolis form F."""
    if F.dim != base.dim:
        raise ValueError("dimension mismatch")
    if not exterior_derivative(F).is_zero():
        raise ValueError("Coriolis two-form is not closed")
    d = base.dim
    n = d + 1
    half = Fraction(1, 2)
    ugam = geodesic_observer_connection(base, obs)
    comp = [[[Poly.zero(d) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                val = ugam[c, a, b]
                for k in range(n):
                    val = val + (
                        base.theta[a] * F[b, k] + base.theta[b] * F[a, k]
                    ) * half * base.gamma[k, c]
                comp[c][a][b] = val
                comp[c][b][a] = val
    return NCStructure(base, Connection(d, comp))


def milne_boost(base: GalileiStructure, obs: Observer, F: TwoForm, psi: OneForm):
    """Gauge change (U, F) -> (U + gamma(Psi), F + dPhi) with
    Phi_a = Psi_a - (Psi_b U^b + 1/2 gamma^bc Psi_b Psi_c) theta_a;
    the associated connection is unchanged."""
    d = base.dim
    n = d + 1
    boost = []
    for a in range(n):
        val = obs.U[a]
        for b in range(n):
            val = val + base.gamma[a, b] * psi[b]
        boost.append(val)
    new_obs = Observer(VectorField(d, boost))

    scalar = psi.pair(obs.U)
    for b in range(n):
        for c in range(n):
            scalar = scalar + base.gamma[b, c] * psi[b] * psi[c] * Fraction(1, 2)
    phi = OneForm(d, [psi[a] - scalar * base.theta[a] for a in range(n)])
    return new_obs, F + exterior_derivative_one_form(phi)


def coriolis_from_observer(nc: NCStructure, obs: Observer) -> TwoForm:
    """F_ab = -2 Ugam_c[a nabla_b] U^c for the structure's connection."""
    d = nc.dim
    n = d + 1
    ug = observer_cometric(nc.base, obs)

    def nabla(b: int, c: int) -> Poly:
        val = obs.U[c].differentiate(b)
        for k in range(n):
            val = val + nc.connection[c, b, k] * obs.U[k]
        return val

    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            val = Poly.zero(d)
            for c in range(n):
                val = val - (ug[c][a] * nabla(b, c) - ug[c][b] * nabla(a, c))
            entries[(a, b)] = val
    return TwoForm.from_upper(d, entries)


def vary_connection(
    base: GalileiStructure, obs: Observer, F: TwoForm, f: Poly, g: Poly
) -> Connection:
    """Variation of the connection under the rescaling (f gamma, g theta):
      dGamma^c_ab = -delta^c_(a d_b) f + U^c theta_(a d_b)(f+g)
                    + 1/2 (gamma^ck d_k f) Ugam_ab
                    + (f+g) gamma^ck theta_(a F_b)k.
    When f and g depend on t alone, d_b f = f' theta_b and
    gamma^ck d_k f = 0 on the flat chart, so this is the lightlike form
      dGamma^c_ab = -f' delta^c_(a theta_b) + (f'+g') U^c theta_a theta_b
                    + (f+g) gamma^ck theta_(a F_b)k.
    """
    d = base.dim
    n = d + 1
    if any(g.depends_on(a) for a in range(1, n)):
        raise ValueError("g must be a function of t alone")
    half = Fraction(1, 2)
    fg = f + g
    comp = [[[Poly.zero(d) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    ug = observer_cometric(base, obs)
    for c in range(n):
        for a in range(n):
            for b in range(a, n):
                delta_ca = Poly.const(d, 1) if c == a else Poly.zero(d)
                delta_cb = Poly.const(d, 1) if c == b else Poly.zero(d)
                val = -(delta_ca * f.differentiate(b) + delta_cb * f.differentiate(a)) * half
                val = val + obs.U[c] * (
                    base.theta[a] * fg.differentiate(b) + base.theta[b] * fg.differentiate(a)
                ) * half
                grad = Poly.zero(d)
                for k in range(n):
                    grad = grad + base.gamma[c, k] * f.differentiate(k)
                val = val + grad * ug[a][b] * half
                for k in range(n):
                    val = val + fg * base.gamma[c, k] * (
                        base.theta[a] * F[b, k] + base.theta[b] * F[a, k]
                    ) * half
                comp[c][a][b] = val
                comp[c][b][a] = val
    return Connection(d, comp)


def newtonian_connection(d: int, V: Poly) -> NCStructure:
    """Connection of a Newtonian potential: the observer-form pair
    (rest observer, F = d(-V dt))."""
    base = flat_galilei(d)
    A = OneForm(d, [-V] + [Poly.zero(d)] * d)
    return connection_from_observer(base, rest_observer(d), exterior_derivative_one_form(A))
