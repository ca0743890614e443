"""Exact multivariate polynomials over the rationals.

Variables are indexed 0..d, index 0 being time t and 1..d the spatial
coordinates x^1..x^d.  A polynomial is stored sparsely as a map from
exponent vectors (length d+1) to nonzero Fraction coefficients and is
normalized on construction, so equality is literal term-map equality
and ``p.is_zero()`` is a certificate, not an approximation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction, str]
_SCALARS = (int, Fraction, str)


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Poly:
    """Polynomial in (t, x^1..x^d) with Fraction coefficients.

    Immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely between threads.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, Scalar] | None = None):
        if dim < 0:
            raise ValueError("spatial dimension must be >= 0")
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != dim + 1:
                    raise ValueError(f"exponent vector {exp} needs length {dim + 1}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = as_fraction(coef)
                if c:
                    acc = clean.get(exp)
                    c = c if acc is None else acc + c
                    if c:
                        clean[exp] = c
                    elif exp in clean:
                        del clean[exp]
        self.dim = dim
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value: Scalar) -> "Poly":
        return cls(dim, {tuple([0] * (dim + 1)): value})

    @classmethod
    def var(cls, dim: int, index: int) -> "Poly":
        if not 0 <= index <= dim:
            raise ValueError(f"variable index {index} out of range 0..{dim}")
        exp = [0] * (dim + 1)
        exp[index] = 1
        return cls(dim, {tuple(exp): 1})

    @classmethod
    def t(cls, dim: int) -> "Poly":
        return cls.var(dim, 0)

    @classmethod
    def x(cls, dim: int, spatial_index: int) -> "Poly":
        if not 1 <= spatial_index <= dim:
            raise ValueError(f"spatial index {spatial_index} out of range 1..{dim}")
        return cls.var(dim, spatial_index)

    @classmethod
    def monomial(cls, dim: int, exp: Sequence[int], coef: Scalar = 1) -> "Poly":
        return cls(dim, {tuple(exp): coef})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def depends_on(self, var: int) -> bool:
        return any(exp[var] for exp in self.terms)

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self.terms.items())

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        # NotImplemented for an operand that is neither a Poly nor an exact scalar
        if isinstance(other, Poly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, _SCALARS):
            return Poly.const(self.dim, other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            acc = terms[exp] + c if exp in terms else c
            if acc:
                terms[exp] = acc
            else:
                terms.pop(exp, None)
        out = Poly(self.dim)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly(self.dim)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, _SCALARS):
            c = as_fraction(other)
            out = Poly(self.dim)
            out.terms = {e: k * c for e, k in self.terms.items()} if c else {}
            return out
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                acc = terms[exp] + c1 * c2 if exp in terms else c1 * c2
                if acc:
                    terms[exp] = acc
                else:
                    terms.pop(exp, None)
        out = Poly(self.dim)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.dim == other.dim and self.terms == other.terms
        try:
            other = self._coerce(other)
        except ValueError:
            return NotImplemented
        return other if other is NotImplemented else self == other

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def differentiate(self, var: int) -> "Poly":
        """Exact partial derivative with respect to variable ``var``."""
        if not 0 <= var <= self.dim:
            raise ValueError(f"variable index {var} out of range 0..{self.dim}")
        terms: dict[tuple, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            # exp -> exp - e_var is one-to-one here, and c * e is nonzero
            terms[tuple(new)] = c * e
        out = Poly(self.dim)
        out.terms = terms
        return out

    def evaluate(self, point: Sequence) -> Union[Fraction, float]:
        """Evaluate at a point of length d+1.

        Exact (Fraction) for exact inputs, IEEE double for float inputs.
        """
        if len(point) != self.dim + 1:
            raise ValueError(f"point needs length {self.dim + 1}")
        number = float if any(isinstance(v, float) for v in point) else as_fraction
        total = number(0)
        for exp, c in self.terms.items():
            term = number(c)
            for v, e in zip(point, exp):
                if e:
                    term *= number(v) ** e
            total += term
        return total

    # -- serialization ------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "terms": [
                {"exp": list(exp), "coef": str(c)}
                for exp, c in self.sorted_terms()
            ]
        }

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = ["t"] + [f"x{i}" for i in range(1, self.dim + 1)]
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(exp):
                factors.append(str(c))
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
