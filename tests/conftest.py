from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

import pytest

from ncsym.lie import TwoForm, VectorField
from ncsym.poly import Poly
from ncsym.solver import res_spatial_linear

if TYPE_CHECKING:
    from ncsym.geometry import Observer

_HALF = Fraction(1, 2)


@pytest.fixture
def rng():
    return random.Random(20240917)


def random_poly(rng, dim, max_degree=3, terms=4, coeff_range=5):
    """Random sparse polynomial with small rational coefficients."""
    out = {}
    for _ in range(terms):
        exp = [0] * (dim + 1)
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(dim + 1)] += 1
        num = rng.randint(-coeff_range, coeff_range)
        den = rng.randint(1, 3)
        out[tuple(exp)] = Fraction(num, den)
    return Poly(dim, out)


def vanishes(tensor) -> bool:
    """Every polynomial entry of a vector field or tensor is zero."""
    def entries(x):
        if isinstance(x, Poly):
            yield x
        else:
            for y in x:
                yield from entries(y)

    return all(p.is_zero() for p in entries(getattr(tensor, "comp", None) or tensor.components))


# The full lightlike system written out on Poly fields: the oracle that the
# witness tests check the observer search against.
def cnc_system_residuals(
    X: VectorField,
    f: Poly,
    g: Poly,
    obs: Observer,
    F: TwoForm,
) -> list[Poly]:
    """Residuals of the full lightlike-projective system for a given
    gauge pair (observer, Coriolis form).  With F = 0 and a constant
    observer as the ether this is the full NC-Milne system."""
    d = X.dim
    fp = f.differentiate(0)
    fgp = fp + g.differentiate(0)
    fg = f + g
    out = []
    for A in range(1, d + 1):
        for B in range(A, d + 1):
            val = X[A].differentiate(B) + X[B].differentiate(A)
            if A == B:
                val = val + f
            out.append(val)
    for A in range(1, d + 1):
        out.append(X[0].differentiate(A))
    out.append(X[0].differentiate(0) - g)
    for A in range(1, d + 1):
        out.append(
            X[A].differentiate(0).differentiate(0) - fgp * obs.U[A] - fg * F[0, A]
        )
        for B in range(1, d + 1):
            val = X[A].differentiate(0).differentiate(B) + fg * F[A, B] * _HALF
            if A == B:
                val = val + fp * _HALF
            out.append(val)
    out.extend(res_spatial_linear(X))
    return out
