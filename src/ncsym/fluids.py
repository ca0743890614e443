"""Galilean fluid symmetry laboratory.

Fields theta(t, x) and rho(t, x) are Python callables over forward-mode
jets that carry the value, the gradient and the pure second derivatives,
which is what the continuity and Bernoulli residuals read.  The residuals
thus come from automatic differentiation of analytic solutions rather
than from a discretized solver: the claims being tested are transformation
identities, and a PDE solver would only add unrelated discretization
error.  Charges use tensor-product Gauss-Legendre quadrature of fixed
order per axis on a caller-supplied box.  A jet evaluates at one point
on floats or at a batch of points on numpy arrays; numpy is imported
only by the functions that batch, so the float path runs without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence


class Jet2:
    """Second-order jet: value, gradient and pure second derivatives over
    n variables.

    Every entry is a number: a float at one point, or a numpy array
    batched over evaluation points, where a float stands for the same
    value at every point.  ``grad`` is a list of the n first derivatives
    d_i and ``diag`` of the n pure second derivatives d_i d_i; no pure
    second derivative of a sum, product, reciprocal or power depends on a
    mixed one, so mixed ones are not carried.  Jets seeded with an empty
    ``diag``, or empty ``grad`` and ``diag``, carry no such derivatives.
    Arithmetic follows the usual truncated-Taylor rules, i.e. nested dual
    numbers collapsed to second order, with the same float operations in
    the same order at every entry whatever its type.
    """

    __slots__ = ("val", "grad", "diag", "n")

    def __init__(self, val, grad, diag):
        self.val = val
        self.grad = grad
        self.diag = diag
        self.n = len(grad)

    @classmethod
    def variable(cls, index: int, value, n: int) -> "Jet2":
        grad = [0.0] * n
        grad[index] = 1.0
        return cls(value, grad, [0.0] * n)

    @classmethod
    def constant(cls, value, n: int) -> "Jet2":
        return cls(float(value), [0.0] * n, [0.0] * n)

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other, self.n)

    def __add__(self, other):
        o = self._lift(other)
        grad = [g + og for g, og in zip(self.grad, o.grad)]
        diag = [h + oh for h, oh in zip(self.diag, o.diag)]
        return Jet2(self.val + o.val, grad, diag)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, [-g for g in self.grad], [-h for h in self.diag])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        sv, sg, ov, og = self.val, self.grad, o.val, o.grad
        grad = [g * ov + sv * h for g, h in zip(sg, og)]
        diag = [h * ov + sv * oh + gi * ogi + ogi * gi
                for h, oh, gi, ogi in zip(self.diag, o.diag, sg, og)]
        return Jet2(sv * ov, grad, diag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o._reciprocal()

    def _reciprocal(self):
        inv = 1.0 / self.val
        inv2, inv3 = inv**2, inv**3
        grad = [-g * inv2 for g in self.grad]
        diag = [-h * inv2 + 2.0 * g * g * inv3 for h, g in zip(self.diag, self.grad)]
        return Jet2(inv, grad, diag)

    def __pow__(self, e):
        if isinstance(e, int) and e >= 0:
            out = Jet2.constant(1.0, self.n)
            for _ in range(e):
                out = out * self
            return out
        # math.pow raises ValueError where a float ** would turn complex
        power = math.pow if isinstance(self.val, float) else pow
        v = power(self.val, e)
        dv = e * power(self.val, e - 1)
        ddv = e * (e - 1) * power(self.val, e - 2)
        return self._chain(v, dv, ddv)

    def exp(self):
        if isinstance(self.val, float):
            v = math.exp(self.val)
        else:
            import numpy as np

            v = np.exp(self.val)
        return self._chain(v, v, v)

    def _chain(self, v, dv, ddv):
        grad = [dv * g for g in self.grad]
        diag = [dv * h + ddv * g * g for h, g in zip(self.diag, self.grad)]
        return Jet2(v, grad, diag)


Field = Callable[..., Jet2]  # field(t, x1..xd) over jets


def seed_points(points, order: int = 2) -> list[Jet2]:
    """Identity jets of the coordinates, batched over the rows of an
    (npts, d+1) array of points, with derivatives up to order 0, 1 or 2."""
    import numpy as np

    points = np.atleast_2d(np.asarray(points, float))
    n = points.shape[1]
    jets = [Jet2.variable(i, points[:, i], n) for i in range(n)]
    return jets if order == 2 else [Jet2(j.val, j.grad if order else [], []) for j in jets]


def eval_field(field: Field, points, order: int = 2) -> Jet2:
    return field(*seed_points(points, order))


# ---------------------------------------------------------------------------
# potentials and residuals
# ---------------------------------------------------------------------------


class Potential:
    """Pressure potential V(rho): 'zero', polytropic c rho^g, or c/rho."""

    __slots__ = ("kind", "c", "gamma")

    def __init__(self, kind: str, c: float = 0.0, gamma: float = 0.0):
        self.kind = kind
        self.c = c
        self.gamma = gamma

    def value(self, rho: Jet2) -> Jet2:
        if self.kind == "zero":
            return Jet2.constant(0.0, rho.n)
        if self.kind == "polytropic":
            return rho**self.gamma * self.c
        if self.kind == "chaplygin":
            return rho._reciprocal() * self.c
        raise ValueError(f"unknown potential {self.kind}")

    def enthalpy(self, rho: Jet2) -> Jet2:
        if self.kind == "zero":
            return Jet2.constant(0.0, rho.n)
        if self.kind == "polytropic":
            return rho ** (self.gamma - 1.0) * (self.c * self.gamma)
        if self.kind == "chaplygin":
            return (rho * rho)._reciprocal() * (-self.c)
        raise ValueError(f"unknown potential {self.kind}")


ZERO_POTENTIAL = Potential("zero")


def _residuals(theta: Field, rho: Field, V: Potential, coords: list[Jet2]) -> tuple:
    """Continuity and Bernoulli residual entries at the coordinate jets."""
    d = len(coords) - 1
    jt = theta(*coords)
    jr = rho(*coords)
    # continuity: d_t rho + grad rho . grad theta + rho * laplacian theta
    cont = jr.grad[0] + sum(jr.grad[A] * jt.grad[A] for A in range(1, d + 1))
    cont = cont + jr.val * sum(jt.diag[1:])
    # Bernoulli: d_t theta + 1/2 |grad theta|^2 + V'(rho)
    bern = jt.grad[0] + 0.5 * sum(jt.grad[A] ** 2 for A in range(1, d + 1))
    bern = bern + V.enthalpy(jr).val
    return cont, bern


def fluid_residual(theta: Field, rho: Field, V: Potential, points) -> dict:
    """Max abs residuals of the continuity and Bernoulli equations, at an
    (npts, d+1) array of points on batched jets, or at a sequence of
    float rows on float jets, one point at a time and without numpy."""
    if isinstance(points, (list, tuple)):
        try:
            pairs = [
                _residuals(theta, rho, V,
                           [Jet2.variable(i, float(x), len(row)) for i, x in enumerate(row)])
                for row in points
            ]
        except (ZeroDivisionError, OverflowError) as exc:  # float 1/0, exp, **
            raise ValueError("field evaluated outside its domain") from exc
        cont, bern = zip(*pairs)
    else:
        import numpy as np

        cont, bern = (np.ravel(r).tolist() for r in _residuals(theta, rho, V, seed_points(points)))
    if not all(map(math.isfinite, [*cont, *bern])):
        raise ValueError("field evaluated outside its domain")
    return {"continuity": float(max(map(abs, cont))), "bernoulli": float(max(map(abs, bern)))}


# ---------------------------------------------------------------------------
# catalog of analytic solutions
# ---------------------------------------------------------------------------


def uniform_flow(b: Sequence[float], rho0: float = 1.0):
    """theta = b.x - |b|^2 t / 2, rho = rho0: residual-free for V = 0."""
    import numpy as np

    b = np.asarray(b, float)

    def theta(t, *xs):
        acc = t * (-0.5 * float(b @ b))
        for bi, xi in zip(b, xs):
            acc = acc + xi * bi
        return acc

    def rho(t, *xs):
        return Jet2.constant(rho0, t.n)

    return theta, rho


def self_similar_free(a: float, rho0: float, d: int):
    """theta = |x|^2 / (2(t+a)), rho = rho0 (a/(t+a))^d."""

    def theta(t, *xs):
        r2 = xs[0] * xs[0]
        for xi in xs[1:]:
            r2 = r2 + xi * xi
        return r2 / ((t + a) * 2.0)

    def rho(t, *xs):
        return ((t + a) ** (-1.0)) ** d * (rho0 * a**d)

    return theta, rho


def gaussian_packet(b: Sequence[float], sigma: float, rho0: float = 1.0):
    """Uniformly translating Gaussian density on the uniform flow."""
    import numpy as np

    b = np.asarray(b, float)
    theta = uniform_flow(b)[0]

    def rho(t, *xs):
        q2 = None
        for bi, xi in zip(b, xs):
            qi = xi - t * bi
            q2 = qi * qi if q2 is None else q2 + qi * qi
        return (q2 * (-0.5 / sigma**2)).exp() * rho0

    return theta, rho


def chaplygin_rest(c: float, rho0: float, t0: float = 0.0):
    """Uniform fluid at rest with the inverse-density potential:
    theta = (c/rho0^2)(t - t0), rho = rho0."""

    def theta(t, *xs):
        return (t - t0) * (c / rho0**2)

    def rho(t, *xs):
        return Jet2.constant(rho0, t.n)

    return theta, rho


# ---------------------------------------------------------------------------
# symmetry transformations: one function per point symmetry, each taking
# the parameters it reads and returning the image fields as closures
# (exact composition, no approximation)
# ---------------------------------------------------------------------------


def boost(theta: Field, rho: Field, b: Sequence[float]):
    """Galilei boost by velocity b: the image flows with velocity v - b."""
    import numpy as np

    b = np.asarray(b, float)

    def theta2(t, *xs):
        shifted = [xi + t * bi for xi, bi in zip(xs, b)]
        acc = theta(t, *shifted)
        for bi, xi in zip(b, xs):
            acc = acc - xi * bi
        return acc - t * (0.5 * float(b @ b))

    def rho2(t, *xs):
        return rho(t, *[xi + t * bi for xi, bi in zip(xs, b)])

    return theta2, rho2


def z_dilation(theta: Field, rho: Field, d: int, lam: float, z: float):
    """t -> lam^z t, x -> lam x, with theta and rho weighted by lam^(z-2)
    and lam^(d-z+2)."""
    lam, z = float(lam), float(z)

    def theta2(t, *xs):
        return theta(t * lam**z, *[xi * lam for xi in xs]) * lam ** (z - 2.0)

    def rho2(t, *xs):
        return rho(t * lam**z, *[xi * lam for xi in xs]) * lam ** (d - z + 2.0)

    return theta2, rho2


def acceleration(theta: Field, rho: Field, a: Sequence[float]):
    """Passage to a frame of constant acceleration a, x* = x - a t^2 / 2:
    not a symmetry of the free fluid."""
    import numpy as np

    a = np.asarray(a, float)

    def theta2(t, *xs):
        star = [xi - t * t * (0.5 * ai) for xi, ai in zip(xs, a)]
        acc = theta(t, *star)
        for ai, xi in zip(a, star):
            acc = acc + xi * ai * t
        return acc

    def rho2(t, *xs):
        return rho(t, *[xi - t * t * (0.5 * ai) for xi, ai in zip(xs, a)])

    return theta2, rho2


def time_dilation(theta: Field, rho: Field, lam: float):
    """t -> lam t at fixed x, theta weighted by lam and rho by 1/lam."""
    lam = float(lam)

    def theta2(t, *xs):
        return theta(t * lam, *xs) * lam

    def rho2(t, *xs):
        return rho(t * lam, *xs) * (1.0 / lam)

    return theta2, rho2


def expansion(theta: Field, rho: Field, d: int, kappa: float):
    """The expansion, t* = Om t, x* = Om x with Om = 1/(1-kappa t): the
    symmetric point (1, 1/2, -1, d) of generalized_expansion.  The int
    exponents take the repeated-multiply path of Jet2.__pow__."""
    return generalized_expansion(theta, rho, d, kappa, 1, 0.5, -1, d)


def generalized_expansion(theta: Field, rho: Field, d: int, kappa: float,
                          alpha: float, beta: float, gamma: float, delta: float):
    """Family t* = Om t, x* = Om^alpha x, rho* = Om^delta rho(t*,x*),
    theta* = theta(t*,x*) - beta kappa Om^gamma |x*|^2, Om = 1/(1-kappa t),
    the counterterm evaluated as beta kappa Om^(gamma + 2 alpha) |x|^2.

    Only (alpha, beta, gamma, delta) = (1, 1/2, -1, d) maps solutions to
    solutions; the grid scan over the exponents refutes every other point.
    """

    def theta2(t, *xs):
        om = (1.0 - t * kappa) ** (-1.0)
        x2 = xs[0] * xs[0]
        for xi in xs[1:]:
            x2 = x2 + xi * xi
        star = [xi * om**alpha for xi in xs]
        return theta(t * om, *star) - x2 * om ** (gamma + 2 * alpha) * (beta * kappa)

    def rho2(t, *xs):
        om = (1.0 - t * kappa) ** (-1.0)
        return rho(t * om, *[xi * om**alpha for xi in xs]) * om**delta

    return theta2, rho2


# ---------------------------------------------------------------------------
# dynamical exponent vs polytropic exponent (exact)
# ---------------------------------------------------------------------------


def polytropic_exponent(z: Fraction, d: int) -> Fraction:
    """gamma = (d+z)/(d+2-z); pole at z = d+2."""
    z = Fraction(z)
    if z == d + 2:
        raise ValueError("pole: z = d + 2")
    return Fraction(d + z, d + 2 - z)


# ---------------------------------------------------------------------------
# integrated charges
# ---------------------------------------------------------------------------


def gauss_legendre_mesh(box: Sequence[tuple], order: int = 16):
    """Tensor-product nodes and weights over a box [(lo, hi)] * d."""
    import numpy as np

    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(order)
    axes, weights = [], []
    for lo, hi in box:
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        axes.append(mid + half * nodes_1d)
        weights.append(half * weights_1d)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*weights, indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return pts, w


def fluid_charges(theta: Field, rho: Field, d: int, box, t: float,
                  V: Potential = ZERO_POTENTIAL, order: int = 16) -> dict:
    """Integrated charge set at time t over the given spatial box."""
    import numpy as np

    pts, w = gauss_legendre_mesh(box, order)
    points = np.concatenate([np.full((pts.shape[0], 1), float(t)), pts], axis=1)
    jt = eval_field(theta, points, 1)  # the value and gradient of theta
    jr = eval_field(rho, points, 0)  # the value of rho
    if not np.all(np.isfinite(jr.val)) or not np.all(np.isfinite(jt.val)):
        raise ValueError("non-finite integrand samples")
    rho_v = jr.val
    # a float entry is the same at every node
    grad_theta = np.stack([np.broadcast_to(jt.grad[A], w.shape) for A in range(1, d + 1)], axis=0)
    x = pts.T
    M = float(np.sum(w * rho_v))
    P = np.array([float(np.sum(w * rho_v * grad_theta[A])) for A in range(d)])
    G = np.array(
        [float(np.sum(w * rho_v * (x[A] - t * grad_theta[A]))) for A in range(d)]
    )
    J = np.zeros((d, d))
    for A in range(d):
        for B in range(d):
            J[A, B] = float(np.sum(w * rho_v * (x[A] * grad_theta[B] - x[B] * grad_theta[A]))) / 2.0
    H = float(np.sum(w * (0.5 * rho_v * np.sum(grad_theta**2, axis=0) + V.value(jr).val)))
    D = t * H - 0.5 * float(np.sum(w * rho_v * np.sum(x * grad_theta, axis=0)))
    K = -t * t * H + 2.0 * t * D + 0.5 * float(np.sum(w * rho_v * np.sum(x * x, axis=0)))
    out = {"M": M, "P": P, "G": G, "J": J, "H": H, "D": D, "K": K}
    if V.kind == "chaplygin":
        out["Delta"] = t * H - float(np.sum(w * rho_v * jt.val))
    return out


T_RANGE = (0.1, 0.9)  # random_points draws t from T_RANGE
X_RANGE = (-1.0, 1.0)  # and each x^A from X_RANGE


def random_points(d: int, n: int, seed: int, predicate=None):
    """Deterministic sample points (t, x) for residual evaluation, as an
    (n, d+1) array."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        t = rng.uniform(*T_RANGE)
        x = rng.uniform(*X_RANGE, size=d)
        cand = np.concatenate([[t], x])
        if predicate is None or predicate(cand):
            pts.append(cand)
    return np.array(pts)
