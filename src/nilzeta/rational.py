"""Rational functions in q and t with factored denominators.

A RationalFunction is a LaurentPoly numerator over a multiset of factors
(1 - q^a t^b)^mult.  Denominators are never expanded for storage; equality
is mathematical (cross-multiplication after cancelling common factors).
No polynomial factorization is performed anywhere: the only divisions are
multiset cancellation and exact division by (1 - t) in the t -> 1 limit.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .laurent import LaurentPoly, exact_div_one_minus_t


class NonExpandableFactorError(ValueError):
    """A denominator factor with t-exponent 0 cannot be expanded as a t-series."""


class PoleAtT1Error(ArithmeticError):
    """The t -> 1 limit does not exist; carries the residual pole order."""

    def __init__(self, order: int):
        super().__init__(f"pole of order {order} survives at t = 1")
        self.order = order


@dataclass(frozen=True)
class DenomFactor:
    """One denominator factor (1 - q^a t^b)^mult."""

    a: int
    b: int
    mult: int = 1

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("t-exponent of a denominator factor must be nonnegative")
        if (self.a, self.b) == (0, 0):
            raise ValueError("denominator factor (1 - 1) is zero")
        if self.mult < 1:
            raise ValueError("denominator factor multiplicity must be positive")

    def base_poly(self) -> LaurentPoly:
        return LaurentPoly({(0, 0): 1, (self.a, self.b): -1})

    def expanded(self) -> LaurentPoly:
        return self.base_poly() ** self.mult


def _canonical_factors(factors: Iterable) -> tuple[DenomFactor, ...]:
    merged: Counter = Counter()
    for f in factors:
        if isinstance(f, DenomFactor):
            merged[(f.a, f.b)] += f.mult
        else:
            a, b, *rest = f
            merged[(a, b)] += rest[0] if rest else 1
    return tuple(
        DenomFactor(a, b, m) for (a, b), m in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    )


class RationalFunction:
    """num / prod((1 - q^a t^b)^mult), with mathematical equality."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: LaurentPoly, den: Iterable = ()):
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", _canonical_factors(den))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(LaurentPoly.one())

    @classmethod
    def from_poly(cls, num: LaurentPoly) -> "RationalFunction":
        return cls(num)

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> tuple[DenomFactor, ...]:
        return self._den

    def den_counter(self) -> Counter:
        return Counter({(f.a, f.b): f.mult for f in self._den})

    def den_expanded(self) -> LaurentPoly:
        out = LaurentPoly.one()
        for f in self._den:
            out = out * f.expanded()
        return out

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, LaurentPoly):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        merged = self.den_counter() + other.den_counter()
        return RationalFunction(
            self._num * other._num, [(a, b, m) for (a, b), m in merged.items()]
        )

    __rmul__ = __mul__

    def times_poly(self, poly: LaurentPoly) -> "RationalFunction":
        return RationalFunction(self._num * poly, self._den)

    def divided_by(self, other: "RationalFunction") -> "RationalFunction":
        """Division restricted to divisors with numerator 1.

        Cancels against the denominator multiset first; divisor factors with
        no counterpart are multiplied into the numerator.
        """
        if other._num != LaurentPoly.one():
            raise ValueError("divided_by requires a divisor with numerator 1")
        remaining = self.den_counter()
        num = self._num
        for f in other._den:
            key = (f.a, f.b)
            cancel = min(remaining.get(key, 0), f.mult)
            if cancel:
                remaining[key] -= cancel
                if not remaining[key]:
                    del remaining[key]
            left = f.mult - cancel
            if left:
                num = num * (f.base_poly() ** left)
        return RationalFunction(num, [(a, b, m) for (a, b), m in remaining.items()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return rf_equal(self, other)

    __hash__ = None

    def __repr__(self) -> str:
        den = "".join(
            f"(1-q^{f.a} t^{f.b})" + (f"^{f.mult}" if f.mult > 1 else "") for f in self._den
        )
        return f"RationalFunction({self._num!r} / {den or '1'})"


def rf_equal(x: RationalFunction, y: RationalFunction) -> bool:
    """True iff x and y agree as rational functions (cross-multiplication)."""
    cx, cy = x.den_counter(), y.den_counter()
    common = cx & cy
    rest_x = cx - common
    rest_y = cy - common
    left = x.num
    for (a, b), m in rest_y.items():
        left = left * (DenomFactor(a, b, m).expanded())
    right = y.num
    for (a, b), m in rest_x.items():
        right = right * (DenomFactor(a, b, m).expanded())
    return left == right


def rf_invert_vars(x: RationalFunction) -> RationalFunction:
    """Apply q -> 1/q, t -> 1/t, restoring the factored denominator shape.

    Uses 1/(1 - q^-a t^-b) = (-q^a t^b)/(1 - q^a t^b) on every factor.
    """
    sign = 1
    qshift = 0
    tshift = 0
    for f in x.den:
        if f.mult % 2:
            sign = -sign
        qshift += f.a * f.mult
        tshift += f.b * f.mult
    num = x.num.invert_vars() * LaurentPoly.term(sign, qshift, tshift)
    return RationalFunction(num, x.den)


def rf_series_coeffs(x: RationalFunction, upto: int) -> list[LaurentPoly]:
    """Coefficients of the t-power-series expansion of x, orders 0..upto.

    Every denominator factor must have b >= 1 (a factor constant in t is not
    a unit in the Laurent ring and is rejected); the numerator must have
    nonnegative t-exponents.  Each coefficient is an exact (possibly
    Laurent) polynomial in q.
    """
    if upto < 0:
        raise ValueError("series order must be nonnegative")
    for f in x.den:
        if f.b == 0:
            raise NonExpandableFactorError(
                f"factor (1 - q^{f.a}) is constant in t and not invertible as a t-series"
            )
    series: dict[tuple[int, int], int] = {}
    for (eq, et), c in x.num.terms().items():
        if et < 0:
            raise ValueError("numerator has negative t-exponents")
        if et <= upto:
            series[(eq, et)] = c
    for f in x.den:
        factor_terms = {
            (f.a * j, f.b * j): comb(j + f.mult - 1, f.mult - 1) for j in range(upto // f.b + 1)
        }
        new: dict[tuple[int, int], int] = {}
        for (qa, ta), ca in series.items():
            for (qb, tb), cb in factor_terms.items():
                if ta + tb > upto:
                    continue
                key = (qa + qb, ta + tb)
                new[key] = new.get(key, 0) + ca * cb
        series = new
    out = []
    for k in range(upto + 1):
        out.append(LaurentPoly({(eq, 0): c for (eq, et), c in series.items() if et == k}))
    return out


@dataclass(frozen=True)
class LaurentQuotient:
    """A quotient of Laurent polynomials in q alone (result of t -> 1 limits)."""

    num: LaurentPoly
    den: LaurentPoly

    def equal(self, other) -> bool:
        if isinstance(other, LaurentQuotient):
            return self.num * other.den == other.num * self.den
        value = Fraction(other)
        return self.num * value.denominator == self.den * value.numerator

    def as_fraction(self) -> Fraction:
        """Value of a constant quotient."""
        if not self.num:
            return Fraction(0)
        return Fraction(self.num.constant_value(), self.den.constant_value())


def rf_limit_t1(x: RationalFunction) -> LaurentQuotient:
    """Exact limit of x as t -> 1, as a quotient of polynomials in q.

    Expands the denominator and repeatedly divides numerator and denominator
    by (1 - t) until the denominator no longer vanishes at t = 1.  If the
    numerator stops being divisible first, the limit does not exist and a
    PoleAtT1Error reports the residual pole order.
    """
    num = x.num
    den = x.den_expanded()
    while not den.subs_t_one():
        if not num.subs_t_one():
            num = exact_div_one_minus_t(num)
            den = exact_div_one_minus_t(den)
            continue
        order = 0
        probe = den
        while not probe.subs_t_one():
            probe = exact_div_one_minus_t(probe)
            order += 1
        raise PoleAtT1Error(order)
    return LaurentQuotient(num.subs_t_one(), den.subs_t_one())


def rational_to_obj(x: RationalFunction) -> dict:
    """JSON-ready form: numerator terms and denominator factors, canonical order."""
    return {
        "num": [{"q": eq, "t": et, "c": str(c)} for (eq, et), c in x.num.sorted_terms()],
        "den": [{"a": f.a, "b": f.b, "mult": f.mult} for f in x.den],
    }


def rational_from_obj(obj: dict) -> RationalFunction:
    num = LaurentPoly({(int(e["q"]), int(e["t"])): int(e["c"]) for e in obj["num"]})
    den = [(int(f["a"]), int(f["b"]), int(f["mult"])) for f in obj["den"]]
    return RationalFunction(num, den)


def rational_dumps(x: RationalFunction) -> str:
    return json.dumps(rational_to_obj(x), separators=(",", ":"))


def rational_loads(text: str) -> RationalFunction:
    return rational_from_obj(json.loads(text))
