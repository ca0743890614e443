"""Exact sparse linear algebra over the rationals.

A vector is a sparse dict from ordered keys to Fraction.  Rows are kept
in reduced echelon form: each row has a unit pivot at its smallest key,
and that key is zero in every other row, so reducing a vector against
the rows is a single pass over its pivot keys.  ``Echelon`` gives rank
and reduction; its rows also record which added vectors they combine,
so a reduction returns coefficients in the vectors as they were added.
``nullspace`` eliminates without that bookkeeping, after a presolve.

The reduced echelon form of a row space is unique: the rank, the pivot
keys and the canonical nullspace depend neither on the order in which
rows were added nor on the presolve.  Everything computed here is a
proof for the solvers built on top, not an approximation.
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


def _reduce(rows: dict, parts: tuple) -> None:
    """Subtract from parts[0] the rows {pivot: parts} that clear its pivot
    keys, and from each other part alike; a row is zero on other pivots."""
    for p in [k for k in parts[0] if k in rows]:
        c = parts[0][p]
        for target, source in zip(parts, rows[p]):
            _axpy(target, -c, source)


def _insert(rows: dict, parts: tuple) -> bool:
    """Reduce parts[0] against rows, scale it to a unit pivot and clear
    that pivot from the other rows; False when it reduces to zero."""
    _reduce(rows, parts)
    if not parts[0]:
        return False
    p = min(parts[0])
    inv = 1 / parts[0][p]
    parts = tuple({k: c * inv for k, c in part.items()} for part in parts)
    for other in rows.values():
        f = other[0].get(p)
        if f:
            for target, source in zip(other, parts):
                _axpy(target, -f, source)
    rows[p] = parts
    return True


class Echelon:
    """Row space of the vectors added so far, in reduced echelon form."""

    def __init__(self, vectors: Iterable[Mapping] = ()):
        # pivot key -> (row, c) with row == -sum_i c[i] * added[i]
        self.rows: dict = {}
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
        _reduce(self.rows, (remainder, coeffs))
        return coeffs, remainder

    def add(self, vector: Mapping) -> bool:
        """Add a vector; False when it already lies in the span."""
        self.added += 1
        vector = {k: Fraction(c) for k, c in vector.items() if c}
        return _insert(self.rows, (vector, {self.added - 1: Fraction(-1)}))


def nullspace(rows: Iterable[Mapping], ncols: int) -> list[dict]:
    """Right nullspace over keys 0..ncols-1 of sparse rows of nonzero int or
    Fraction entries, one primitive sparse vector {column: coef} per free
    column in increasing order.  The presolve strips from every row the
    columns that one-entry rows force to zero, until no row has one."""
    rows = list(rows)
    forced: set = set()
    while new := {next(iter(r)) for r in rows if len(r) == 1}:
        forced |= new
        rows = [s for r in rows if (s := {k: c for k, c in r.items() if k not in new})]
    pivots: dict = {}
    # sparsest rows first: less fill-in, and the same reduced echelon form
    for r in sorted(rows, key=len):
        _insert(pivots, ({k: Fraction(c) for k, c in r.items()},))
    free = {c: {c: Fraction(1)} for c in range(ncols) if c not in pivots and c not in forced}
    for p, (row,) in pivots.items():
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
