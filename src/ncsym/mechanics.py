"""Presymplectic particle models: charges, Poisson brackets, Noether and
symmetry residuals.

Numeric layer (float64, numpy).  Trajectories, including the
central-potential runs, come from the stdlib-only ``integrate``.
Differential forms are evaluated as bilinear pairings at points, never
stored symbolically; the spin sphere is handled as an embedded unit
vector with per-step renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .poly import Poly

EPS_UNIT = 1e-12
FD_STEP = 1e-6  # central-difference step of massive_noether_residual's dJ
CHART_STEP = 1e-5  # and of the presymplectic residuals' chart derivatives


# ---------------------------------------------------------------------------
# massive spinning particle
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over the last axis.  Stacked (N, 3) rows go through matmul,
    which rounds each row exactly as the 1-D product."""
    if a.ndim == 1:
        return float(a @ b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class MassiveState:
    """One state, or N stacked states: t of shape (N,), x, v, u of
    shape (N, 3).  The spin direction is normalized row by row."""

    t: float
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "v", np.asarray(self.v, float))
        u = np.asarray(self.u, float)
        norm = np.sqrt(_dot(u, u))[..., None]
        if not norm.all():
            raise ValueError("spin direction must be nonzero")
        object.__setattr__(self, "u", np.where(np.abs(norm - 1.0) > EPS_UNIT, u / norm, u))


def free_flow(state: MassiveState, dt: float) -> MassiveState:
    return replace(state, t=state.t + dt, x=state.x + dt * state.v)


def massive_charges(state: MassiveState, m: float, s: float) -> dict:
    """Conserved set of the free spinning particle; for stacked states
    every charge is stacked along axis 0."""
    if m <= 0:
        raise ValueError("mass must be positive")
    p = m * state.v
    q = state.x - state.v * np.asarray(state.t)[..., None]
    return {
        "P": p,
        "G": m * q,
        "J": np.cross(state.x, p) + s * state.u,
        "H": _dot(p, p) / (2.0 * m),
        "K": m * _dot(q, q) / 2.0,
        "D": _dot(p, q),
    }


@dataclass(frozen=True)
class SchParams:
    """Generator parameters (omega antisymmetric 3x3, beta, gamma in R^3,
    kappa, lam, eps scalars) of the z = 2 projective family."""

    omega: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    kappa: float
    lam: float
    eps: float

    def __post_init__(self):
        om = np.asarray(self.omega, float)
        if om.shape != (3, 3) or not np.allclose(om, -om.T, atol=1e-14):
            raise ValueError("omega must be an antisymmetric 3x3 matrix")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "beta", np.asarray(self.beta, float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, float))


def omega_vector(omega: np.ndarray) -> np.ndarray:
    """Dual vector of an antisymmetric matrix: w_A = -1/2 eps_ABC omega^BC."""
    return np.array([-omega[1, 2], omega[0, 2], -omega[0, 1]])


def massive_lift(params: SchParams, state: MassiveState) -> tuple:
    """Tangent vector (dt, dx, dv, du) of the lifted generator on the
    evolution space of the massive particle."""
    t, x, v, u = state.t, state.x, state.v, state.u
    dt = params.kappa * t * t + 2.0 * params.lam * t + params.eps
    dx = params.omega @ x + params.kappa * t * x + params.lam * x + params.beta * t + params.gamma
    dv = params.omega @ v + params.beta - params.lam * v + params.kappa * (x - v * t)
    du = params.omega @ u
    return dt, dx, dv, du


def massive_noether_charge(params: SchParams, state: MassiveState, m: float, s: float) -> float:
    """J.omega - G.beta + P.gamma - H eps - K kappa + D lam."""
    c = massive_charges(state, m, s)
    w = omega_vector(params.omega)
    return float(
        c["J"] @ w
        - c["G"] @ params.beta
        + c["P"] @ params.gamma
        - c["H"] * params.eps
        - c["K"] * params.kappa
        + c["D"] * params.lam
    )


def sigma_massive(state: MassiveState, W1, W2, m: float, s: float) -> float:
    """Evaluate m dv_A ^ (dx^A - v^A dt) - (s/2) eps_ABC u^A du^B ^ du^C
    on two ambient tangents (dt, dx, dv, du)."""
    dt1, dx1, dv1, du1 = W1
    dt2, dx2, dv2, du2 = W2
    a1 = dx1 - state.v * dt1
    a2 = dx2 - state.v * dt2
    val = m * (float(dv1 @ a2) - float(dv2 @ a1))
    val -= s * float(state.u @ np.cross(du1, du2))
    return val


def _sphere_frame(u: np.ndarray) -> tuple:
    """Right-handed orthonormal tangent pair (e1, e2) with e1 x e2 = u."""
    pick = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, pick)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return e1, e2


class _SphereChart:
    """Chart (t, x^1..x^3, middle block, th^1, th^2) around a base state
    on R x R^3 x M x S^2.  The middle block is E for the photon and v for
    the massive particle.  The displaced direction is u + th^1 e1 + th^2 e2;
    ``unpack`` normalizes it, ``state`` takes a direction as given."""

    def __init__(self, base):
        self.base = base
        self.e1, self.e2 = _sphere_frame(base.u)
        self.mid = getattr(base, fields(base)[2].name)
        self.n = 6 + np.size(self.mid)

    def _middle(self, c):
        return c[4] if np.ndim(self.mid) == 0 else c[4 : self.n - 2]

    def direction(self, c):
        return self.base.u + c[-2] * self.e1 + c[-1] * self.e2

    def state(self, c, w):
        b = self.base
        return type(b)(b.t + c[0], b.x + c[1:4], self.mid + self._middle(c), w)

    def unpack(self, c):
        w = self.direction(c)
        return self.state(c, w / np.linalg.norm(w))

    def frame(self, c, mu):
        """Ambient tangent (dt, dx, d middle, du) of coordinate line mu at c."""
        e = np.zeros(self.n)
        e[mu] = 1.0
        du = np.zeros(3)
        if mu >= self.n - 2:
            w = self.direction(c)
            nw = np.linalg.norm(w)
            e_th = self.e1 if mu == self.n - 2 else self.e2
            du = e_th / nw - w * float(w @ e_th) / nw**3
        return e[0], e[1:4], self._middle(e), du


def _central_difference(f, n: int, mu: int, h: float) -> float:
    """d f / d c^mu at the chart origin by central differences."""
    cp = np.zeros(n)
    cp[mu] = h
    cm = np.zeros(n)
    cm[mu] = -h
    return (f(cp) - f(cm)) / (2 * h)


def massive_noether_residual(params: SchParams, m: float, s: float, points) -> float:
    """max over points and chart directions of |sigma(lift, W) + dJ(W)|,
    with dJ by central finite differences."""
    worst = 0.0
    for state in points:
        chart = _SphereChart(state)
        lift = massive_lift(params, state)
        origin = np.zeros(chart.n)

        def charge_at(c):
            # the displaced direction is left to MassiveState to normalize
            return massive_noether_charge(params, chart.state(c, chart.direction(c)), m, s)

        for mu in range(chart.n):
            dj = _central_difference(charge_at, chart.n, mu, FD_STEP)
            resid = abs(sigma_massive(state, lift, chart.frame(origin, mu), m, s) + dj)
            worst = max(worst, resid)
    return worst


# ---------------------------------------------------------------------------
# Poisson brackets on the space of motions
# ---------------------------------------------------------------------------


def _eps_matrix_q(p):
    """d(q x p)_A / dq_B."""
    return np.array([[0.0, p[2], -p[1]], [-p[2], 0.0, p[0]], [p[1], -p[0], 0.0]])


def poisson_brackets(m: float, s: float, n_points: int = 20, seed: int = 0) -> dict:
    """Bracket table of the charge functions on the space of motions.

    Coordinates (q, p, sphere tangent); the symplectic matrix is
    constant in this chart and inverted numerically once, and Hamiltonian
    vector fields are defined by Omega(X_F, .) = -dF, so
    {F, G} = Omega(X_F, X_G).
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if s == 0:
        raise ValueError("spin sector needs s != 0 for a symplectic sphere")
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    omega = np.zeros((8, 8))
    for A in range(3):
        omega[A, 3 + A] = -1.0
        omega[3 + A, A] = 1.0
    omega[6, 7] = -s
    omega[7, 6] = s
    omega_inv = np.linalg.inv(omega)
    rng = np.random.default_rng(seed)

    def field(grad):
        """X_F from the gradient of F in chart basis (dq, dp, dth1, dth2)."""
        return omega_inv @ (-grad)

    # P and G have constant gradients, so their fields and brackets are too
    unit = np.eye(8)
    x_p = [field(unit[3 + A]) for A in range(3)]
    x_g = [field(m * unit[A]) for A in range(3)]
    tables = {f"{{P{A},G{B}}}": [float(x_p[A] @ omega @ x_g[B])]
              for A in range(3) for B in range(3)}
    sign_jj = None
    for _ in range(n_points):
        q = rng.normal(size=3)
        p = rng.normal(size=3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        e1, e2 = _sphere_frame(u)
        Mq, Mp = _eps_matrix_q(p), -_eps_matrix_q(q)
        x0, x1 = (field(np.concatenate([Mq[A], Mp[A], [s * e1[A], s * e2[A]]])) for A in range(2))
        val = float(x0 @ omega @ x1)
        j2 = float(np.cross(q, p)[2] + s * u[2])
        if abs(j2) > 1e-6:
            this_sign = 1.0 if val / j2 > 0 else -1.0
            if sign_jj is None:
                sign_jj = this_sign
            elif sign_jj != this_sign:
                sign_jj = 0.0  # inconsistent; callers treat as failure
        tables.setdefault("{J0,J1}/J2", []).append(val / j2 if abs(j2) > 1e-6 else np.nan)

    summary = {k: (float(np.min(v)), float(np.max(v))) for k, v in tables.items()}
    return {"m": m, "s": s, "tables": summary, "jj_sign": sign_jj}


# ---------------------------------------------------------------------------
# massless particle ("Galilean photon")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhotonState:
    t: float
    x: np.ndarray
    E: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        u = np.asarray(self.u, float)
        norm = float(np.linalg.norm(u))
        if abs(norm - 1.0) > EPS_UNIT:
            raise ValueError("direction must be a unit vector")
        object.__setattr__(self, "u", u)


def photon_flow(state: PhotonState, arclength: float) -> PhotonState:
    """Instantaneous motion: x advances along u, everything else frozen."""
    return replace(state, x=state.x + arclength * state.u)


def _poly_eval_t(p: Poly, t: float) -> float:
    return p.evaluate([t] + [0] * p.dim)


def photon_charge(state: PhotonState, k: float, s: float, omega, eta, xi) -> float:
    """(x cross ku + su).omega(t) + ku.eta(t) - xi(t) E.

    ``omega`` is a 3x3 matrix of time polynomials, exactly antisymmetric,
    ``eta`` a triple of time polynomials and ``xi`` a time polynomial, as
    ``photon_lift`` takes them.  A time-dependent omega with s != 0 is
    rejected because the spin term forces omega' = 0.
    """
    if k <= 0:
        raise ValueError("color k must be positive")
    if len(omega) != 3 or any(len(row) != 3 for row in omega) or any(
        not (omega[a][b] + omega[b][a]).is_zero() for a in range(3) for b in range(a, 3)
    ):
        raise ValueError("omega must be an antisymmetric 3x3 matrix of time polynomials")
    if s != 0 and any(p.depends_on(0) for row in omega for p in row):
        raise ValueError(
            "spin obstructs time-dependent rotations: omega' = 0 is required when s != 0"
        )
    om = np.array([[_poly_eval_t(p, state.t) for p in row] for row in omega])
    eta_t = np.array([_poly_eval_t(p, state.t) for p in eta])
    xi_t = _poly_eval_t(xi, state.t)
    w = omega_vector(om)
    return float(
        (np.cross(state.x, k * state.u) + s * state.u) @ w
        + k * state.u @ eta_t
        - xi_t * state.E
    )


def photon_lift(k: float, omega_polys, eta, xi):
    """Canonical-lift tangent of a conformal generator with time-dependent
    rotation omega(t), translation eta(t) and reparametrization xi(t):
    returns state -> (dt, dx, dE, du)."""
    omega = [p for row in omega_polys for p in row]
    polys = [*omega, *(p.differentiate(0) for p in omega), *eta,
             *(p.differentiate(0) for p in eta), xi, xi.differentiate(0)]
    # a zero entry is 0.0 at every t, so only the others are evaluated
    live = [(i, p) for i, p in enumerate(polys) if not p.is_zero()]

    def lift(state: PhotonState):
        values = [0.0] * len(polys)
        for i, p in live:
            values[i] = _poly_eval_t(p, state.t)
        om, om_p = np.reshape(values[:18], (2, 3, 3))
        eta_t, eta_p = np.reshape(values[18:24], (2, 3))
        xi_t, xi_p = values[24:]
        dt = xi_t
        dx = om @ state.x + eta_t
        dE = k * (float(state.u @ (om_p @ state.x)) + float(eta_p @ state.u)) - xi_p * state.E
        du = om @ state.u
        return dt, dx, dE, du

    return lift


def sigma_photon(state: PhotonState, W1, W2, k: float, s: float) -> float:
    """Evaluate k du_A ^ dx^A - dE ^ dt - (s/2) eps u du du on tangents
    (dt, dx, dE, du)."""
    dt1, dx1, dE1, du1 = W1
    dt2, dx2, dE2, du2 = W2
    val = k * (float(du1 @ dx2) - float(du2 @ dx1))
    val -= dE1 * dt2 - dE2 * dt1
    val -= s * float(state.u @ np.cross(du1, du2))
    return val


# -- chart-based residual of the symmetry condition ------------------------


def _presymplectic_residual(sigma, lift, states) -> float:
    """max |d_mu alpha_nu - d_nu alpha_mu| over chart pairs at the given
    states, alpha(W) = sigma(st, lift(st), W); zero for symmetries since
    the model form is closed."""
    worst = 0.0
    for base in states:
        chart = _SphereChart(base)

        def alpha(c, mu):
            st = chart.unpack(c)
            return sigma(st, lift(st), chart.frame(c, mu))

        for mu in range(chart.n):
            for nu in range(mu + 1, chart.n):
                d_mu_alpha_nu = _central_difference(lambda c: alpha(c, nu), chart.n, mu, CHART_STEP)
                d_nu_alpha_mu = _central_difference(lambda c: alpha(c, mu), chart.n, nu, CHART_STEP)
                worst = max(worst, abs(d_mu_alpha_nu - d_nu_alpha_mu))
    return worst


def presymplectic_residual_photon(lift, states, k: float, s: float) -> float:
    """max |d(i_Z sigma)| entries over chart pairs at the given states;
    zero for symmetries since the model form is closed."""
    return _presymplectic_residual(lambda st, Z, W: sigma_photon(st, Z, W, k, s), lift, states)


def presymplectic_residual_massive(params: SchParams, states, m: float, s: float) -> float:
    """Same check for the massive model and its lifted generators."""
    return _presymplectic_residual(
        lambda st, Z, W: sigma_massive(st, Z, W, m, s),
        lambda st: massive_lift(params, st),
        states,
    )
