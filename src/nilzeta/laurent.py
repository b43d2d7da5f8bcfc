"""Exact integer-coefficient Laurent polynomials in two formal variables q and t.

The variable t stands in for q**(-s); all zeta formulas in this package are
quotients of these polynomials.  A polynomial is a map from exponent pairs
(eq, et) to nonzero arbitrary-precision integers, kept in canonical form:
no zero coefficients are stored and the term order used for serialization
and rendering is lexicographic on (et, eq).

The constructor is the one place that merges repeated exponents and drops
zero coefficients; arithmetic hands its (exponent, coefficient) pairs
straight to the constructor.  `format_terms` is the one sign-joining term
loop behind the text and LaTeX renderings and `repr`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Mapping


class LaurentPoly:
    """Immutable Laurent polynomial in q and t over the integers.

    Unlike the package's other value types, which are frozen dataclasses, it
    keeps a hand-written constructor and `__slots__`: the constructor is the
    package's one merge of equal keys, and the class has by far the most
    instances.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[tuple[int, int], int] = {}
        for key, c in terms.items() if isinstance(terms, Mapping) else terms:
            data[key] = data.get(key, 0) + c
        object.__setattr__(self, "_terms", {(int(q), int(t)): c for (q, t), c in data.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, q: int = 0, t: int = 0) -> "LaurentPoly":
        return cls({(q, t): coeff})

    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms in the canonical (et, eq) lexicographic order."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant (zero included) equals its int, so it hashes like it
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly((key, -c) for key, c in self._terms.items())

    def __sub__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(
            ((qa + qb, ta + tb), ca * cb)
            for (qa, ta), ca in self._terms.items()
            for (qb, tb), cb in other._terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def t_max(self) -> int:
        return max(et for (_, et) in self._terms)

    def invert_vars(self) -> "LaurentPoly":
        """Substitute q -> 1/q and t -> 1/t simultaneously."""
        return LaurentPoly(((-eq, -et), c) for (eq, et), c in self._terms.items())

    def subs_t_one(self) -> "LaurentPoly":
        """Evaluate at t = 1, leaving a Laurent polynomial in q alone."""
        return LaurentPoly(((eq, 0), c) for (eq, _), c in self._terms.items())

    def value_at_q(self, q_value) -> Fraction:
        """Evaluate a polynomial in q alone at a concrete value a/b, exactly.

        Horner's rule in integers from the top exponent down: after the
        exponent e, total / scale = sum over e' >= e of c q^(e' - e).
        """
        if any(et for _, et in self._terms):
            raise ValueError("value_at_q requires a polynomial in q alone")
        q = Fraction(q_value)
        total, scale, last = 0, 1, None
        for (eq, _), c in sorted(self._terms.items(), reverse=True):
            if last is not None:
                total, scale = total * q.numerator ** (last - eq), scale * q.denominator ** (last - eq)
            total, last = total + c * scale, eq
        return Fraction(total, scale) * q ** last if last is not None else Fraction(0)

    def constant_value(self) -> int:
        """The value of a constant polynomial (zero polynomial gives 0)."""
        if not self._terms:
            return 0
        if list(self._terms) != [(0, 0)]:
            raise ValueError("polynomial is not constant")
        return self._terms[(0, 0)]

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_text(self)})"


def _as_poly(value) -> LaurentPoly | None:
    """value as a polynomial if it is an int or a LaurentPoly, else None."""
    if isinstance(value, int):
        return LaurentPoly.term(value)
    return value if isinstance(value, LaurentPoly) else None


def format_terms(poly: LaurentPoly, monomial: Callable[[int, int, int], str]) -> str:
    """Join the terms of poly in canonical order with their signs.

    monomial(eq, et, |c|) renders one term without its sign; the zero
    polynomial renders as "0".
    """
    if not poly:
        return "0"
    out = ""
    for (eq, et), c in poly.sorted_terms():
        out += ("-" if c < 0 else "+" if out else "") + monomial(eq, et, abs(c))
    return out


def poly_text(poly: LaurentPoly, tname: str = "t") -> str:
    """Plain-text form such as 1-q+2 q^2 t^3, with t shown as tname."""

    def monomial(eq: int, et: int, c: int) -> str:
        mono = [str(c)] if c != 1 or (eq, et) == (0, 0) else []
        if eq:
            mono.append("q" if eq == 1 else f"q^{eq}")
        if et:
            mono.append(tname if et == 1 else f"{tname}^{et}")
        return " ".join(mono)

    return format_terms(poly, monomial)
