"""Exact integer-coefficient Laurent polynomials in two formal variables q and t.

The variable t stands in for q**(-s); all zeta formulas in this package are
quotients of these polynomials.  A polynomial is a map from exponent pairs
(eq, et) to nonzero arbitrary-precision integers, kept in canonical form:
no zero coefficients are stored and the term order used for serialization
and rendering is lexicographic on (et, eq).

The constructor is the one place that merges repeated exponents and drops
zero coefficients; arithmetic hands its (exponent, coefficient) pairs
straight to the constructor.  `format_terms` is the package's one
sign-joining writer: every printed sum (a polynomial in text or LaTeX, a
denominator factor 1 - q^a t^b, a linear form c_1 Y1 + ...) is written
straight from its (key, coefficient) pairs by one monomial writer, such as
`text_monomial` here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import partial
from itertools import chain

from .combinat import Value


class LaurentPoly(Value):
    """Immutable Laurent polynomial in q and t over the integers.

    A value type like the package's others, but with its own equality and
    hash: a constant polynomial equals (and hashes like) its integer.  Its
    one field `_terms` is the canonical term dict, and its constructor is the
    package's one merge of equal keys.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        data: dict[tuple[int, int], int] = {}
        for key, c in terms.items() if isinstance(terms, Mapping) else terms:
            data[key] = data.get(key, 0) + c
        super().__init__({key: c for key, c in data.items() if c})

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

    def invert_vars(self) -> "LaurentPoly":
        """Substitute q -> 1/q and t -> 1/t simultaneously."""
        return LaurentPoly(((-eq, -et), c) for (eq, et), c in self._terms.items())

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


def format_terms(terms: Iterable, monomial: Callable[[object, int], str]) -> str:
    """Join the (key, c) pairs of terms, in the order given, with their signs.

    monomial(key, |c|) writes one term without its sign; no terms write "0".
    """
    out = ""
    for key, c in terms:
        out += ("-" if c < 0 else "+" if out else "") + monomial(key, abs(c))
    return out or "0"


def text_monomial(y_variable: bool, key: tuple[int, int], c: int) -> str:
    """The term c q^eq t^et, key = (eq, et), without its sign, such as
    2 q^2 t^3, with t written Y if y_variable; a unit c is left out of a
    nonconstant term."""
    eq, et = key
    mono = [str(c)] if c != 1 or key == (0, 0) else []
    if eq:
        mono.append("q" if eq == 1 else f"q^{eq}")
    if et:
        t = "Y" if y_variable else "t"
        mono.append(t if et == 1 else f"{t}^{et}")
    return " ".join(mono)


def poly_text(poly: LaurentPoly, y_variable: bool = False) -> str:
    """Plain-text form such as 1-q+2 q^2 t^3, with t written Y if y_variable."""
    return format_terms(poly.sorted_terms(), partial(text_monomial, y_variable))
