import random
from fractions import Fraction

import pytest

from ncsym.poly import Poly


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
