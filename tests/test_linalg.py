"""Properties of the exact elimination kernel, with sympy as the oracle."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st

from ncsym import linalg
from ncsym.linalg import Echelon, nullspace, primitive
from ncsym.lie import VectorField
from ncsym.poly import Poly
from ncsym.solver import span_equal

# zeros are drawn often so that rank deficiency is common
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    return [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)], ncols


def sparse(row) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def oracle(rows, ncols):
    return sympy.Matrix(rows) if rows else sympy.zeros(0, ncols)


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@PROPERTY
@given(matrices())
def test_rank_matches_sympy(case):
    rows, ncols = case
    assert Echelon(sparse(r) for r in rows).rank == oracle(rows, ncols).rank()


@PROPERTY
@given(matrices())
def test_nullspace_matches_sympy_and_is_a_kernel(case):
    rows, ncols = case
    ech = Echelon(sparse(r) for r in rows)
    kernel = nullspace([sparse(r) for r in rows], ncols)
    expected = [
        primitive(sparse([to_fraction(x) for x in v])) for v in oracle(rows, ncols).nullspace()
    ]
    assert kernel == expected
    for v in kernel:
        assert all(sum(r[j] * c for j, c in v.items()) == 0 for r in rows)
        # primitive: coprime integers, positive at the smallest key
        assert all(c.denominator == 1 for c in v.values())
        assert gcd(*(int(c) for c in v.values())) == 1 and v[min(v)] > 0
    assert ech.rank + len(kernel) == ncols


@PROPERTY
@given(matrices(), st.data())
def test_reduce_round_trips(case, data):
    rows, ncols = case
    ech = Echelon(sparse(r) for r in rows)
    v = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    coeffs, remainder = ech.reduce(sparse(v))
    rebuilt = [remainder.get(j, Fraction(0)) for j in range(ncols)]
    for i, c in coeffs.items():
        rebuilt = [x + c * y for x, y in zip(rebuilt, rows[i])]
    assert rebuilt == v
    in_span = oracle(rows + [v], ncols).rank() == oracle(rows, ncols).rank()
    assert (not remainder) == in_span


@PROPERTY
@given(matrices(max_rows=4), st.data())
def test_reduce_expands_a_combination_in_an_independent_basis(case, data):
    rows, ncols = case
    ech = Echelon()
    basis = [r for r in rows if ech.add(sparse(r))]
    weights = data.draw(st.lists(ENTRIES, min_size=len(basis), max_size=len(basis)))
    v = [sum((w * r[j] for w, r in zip(weights, basis)), Fraction(0)) for j in range(ncols)]
    coeffs, remainder = Echelon(sparse(r) for r in basis).reduce(sparse(v))
    assert not remainder
    assert [coeffs.get(i, Fraction(0)) for i in range(len(basis))] == weights


@PROPERTY
@given(matrices(max_rows=6), st.data())
def test_echelon_form_and_nullspace_do_not_depend_on_row_order(case, data):
    rows, ncols = case
    shuffled = data.draw(st.permutations(rows))
    a = Echelon(sparse(r) for r in rows)
    b = Echelon(sparse(r) for r in shuffled)
    assert {p: row for p, (row, _) in a.rows.items()} == {p: row for p, (row, _) in b.rows.items()}
    assert a.rank == b.rank
    assert nullspace(map(sparse, rows), ncols) == nullspace(map(sparse, shuffled), ncols)


NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def planted(draw, max_cols=7):
    """A sparse matrix with one-entry rows planted in it, as chains: the
    first row of a chain has one entry, and each later row has one more
    entry on the column the row before it forces to zero, so it has one
    entry only once that column is dropped."""
    rows, ncols = draw(matrices(max_rows=4, max_cols=max_cols))
    columns = st.lists(st.integers(0, ncols - 1), min_size=1, max_size=4, unique=True)
    for chain in draw(st.lists(columns, max_size=3)):
        for k, c in enumerate(chain):
            row = [Fraction(0)] * ncols
            row[c] = draw(NONZERO)
            if k:
                row[chain[k - 1]] = draw(NONZERO)
            rows.append(row)
    return draw(st.permutations(rows)), ncols


def plain_nullspace(rows, ncols):
    """The canonical nullspace read off Echelon's reduced rows, eliminated
    with no presolve."""
    pivots = {p: row for p, (row, _) in Echelon(sparse(r) for r in rows).rows.items()}
    free = {c: {c: Fraction(1)} for c in range(ncols) if c not in pivots}
    for p, row in pivots.items():
        for c, v in row.items():
            if c != p:
                free[c][p] = -v
    return [primitive(v) for v in free.values()]


@PROPERTY
@given(planted())
# a chain of three forced columns, in int entries
@example(([[0, 2, 0, 0], [1, 3, 0, 0], [1, 0, -1, 1], [0, 0, 4, 0]], 4))
# no row with one entry, as in the cgal and alt systems
@example(([[1, 2, 0, 0, 0], [0, 1, -1, 0, 0], [3, 0, 0, 1, 1]], 5))
def test_presolved_nullspace_matches_sympy_and_plain_elimination(case):
    rows, ncols = case
    kernel = nullspace([sparse(r) for r in rows], ncols)
    expected = [
        primitive(sparse([to_fraction(x) for x in v])) for v in oracle(rows, ncols).nullspace()
    ]
    assert kernel == expected
    assert kernel == plain_nullspace(rows, ncols)


def test_presolve_follows_a_chain_to_its_end(monkeypatch):
    # each row has one entry once the column forced before it is dropped
    rows = [{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(1)}, {1: Fraction(-1), 2: Fraction(3)},
            {2: Fraction(1), 3: Fraction(1), 4: Fraction(1)}]
    eliminated = []
    real = linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda pivots, parts: eliminated.append(dict(parts[0]))
                        or real(pivots, parts))
    assert nullspace(rows, 5) == [{3: Fraction(1), 4: Fraction(-1)}]
    assert eliminated == [{3: Fraction(1), 4: Fraction(1)}]


def fields(rows) -> list[VectorField]:
    """One vector field per row, the row's entries on t^j d_t."""
    d = 2
    zero = Poly.zero(d)
    return [
        VectorField(d, [Poly(d, {(j, 0, 0): v for j, v in enumerate(r)}), zero, zero])
        for r in rows
    ]


@PROPERTY
@given(matrices(), st.data())
def test_span_equal_is_symmetric(case, data):
    a, ncols = case
    mix = data.draw(st.lists(st.lists(ENTRIES, min_size=len(a), max_size=len(a)), max_size=5))
    b = [[sum((w * r[j] for w, r in zip(ws, a)), Fraction(0)) for j in range(ncols)] for ws in mix]
    if data.draw(st.booleans()):
        b = data.draw(matrices(max_cols=ncols))[0]
        b = [r + [Fraction(0)] * (ncols - len(r)) for r in b]
    fa, fb = fields(a), fields(b)
    assert span_equal(fa, fb) == span_equal(fb, fa)
    ra, rb = oracle(a, ncols).rank(), oracle(b, ncols).rank()
    assert span_equal(fa, fb) == (ra == rb == oracle(a + b, ncols).rank())
