"""Exact sparse linear algebra over the rationals.

One kernel, ``Echelon``, does every elimination in ncsym.  A vector is
a sparse dict from ordered keys to Fraction.  Rows are kept in reduced
echelon form: each row has a unit pivot at its smallest key, and that
key is zero in every other row, so reducing a vector against the rows
is a single pass over its pivot keys.  Each row also records which of
the added vectors it combines, so a reduction returns coefficients in
the vectors as they were added.

The reduced echelon form of a row space is unique: the rank, the pivot
keys and the canonical nullspace below do not depend on the order in
which rows were added.  Everything computed here is a proof for the
solvers built on top, not an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping


def _axpy(target: dict, a: Fraction, source: Mapping) -> None:
    """target += a * source, dropping entries that cancel."""
    for k, c in source.items():
        v = target.get(k)
        v = a * c if v is None else v + a * c
        if v:
            target[k] = v
        else:
            target.pop(k, None)


class Echelon:
    """Row space of the vectors added so far, in reduced echelon form."""

    def __init__(self, vectors: Iterable[Mapping] = ()):
        self.rows: dict = {}  # pivot key -> (row, combination of added vectors)
        self.added = 0
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Mapping) -> tuple[dict, dict]:
        """(coeffs, remainder) with vector == sum_i coeffs[i] * added[i] +
        remainder, where i counts add() calls from 0.  The remainder is
        zero on every pivot key; it is empty exactly when the vector lies
        in the span."""
        remainder = {k: Fraction(c) for k, c in vector.items() if c}
        coeffs: dict = {}
        # a row is zero on every other pivot, so the pivot entries of the
        # remainder stay those of the vector throughout
        for p in [k for k in remainder if k in self.rows]:
            c = remainder[p]
            row, combo = self.rows[p]
            _axpy(remainder, -c, row)
            _axpy(coeffs, c, combo)
        return coeffs, remainder

    def add(self, vector: Mapping) -> bool:
        """Add a vector; False when it already lies in the span."""
        index = self.added
        self.added += 1
        coeffs, remainder = self.reduce(vector)
        if not remainder:
            return False
        p = min(remainder)
        inv = 1 / remainder[p]
        row = {k: c * inv for k, c in remainder.items()}
        combo = {k: -c * inv for k, c in coeffs.items()}
        combo[index] = inv
        for other, other_combo in self.rows.values():
            f = other.get(p)
            if f:
                _axpy(other, -f, row)
                _axpy(other_combo, -f, combo)
        self.rows[p] = (row, combo)
        return True

    def nullspace(self, ncols: int) -> list[dict]:
        """Right nullspace of the added rows over keys 0..ncols-1, one
        primitive sparse vector {column: coef} per non-pivot column in
        increasing order."""
        free = {c: {c: Fraction(1)} for c in range(ncols) if c not in self.rows}
        for p, (row, _) in self.rows.items():
            for c, v in row.items():
                if c != p:
                    free[c][p] = -v
        return [primitive(v) for v in free.values()]


def primitive(vector: Mapping) -> dict:
    """Scale a nonzero sparse vector to coprime integers, positive at its
    smallest key, with the keys in increasing order."""
    denoms = 1
    for v in vector.values():
        denoms = denoms * v.denominator // gcd(denoms, v.denominator)
    ints = {k: v.numerator * (denoms // v.denominator) for k, v in sorted(vector.items())}
    g = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        g = -g
    return {k: Fraction(v // g) for k, v in ints.items()}
