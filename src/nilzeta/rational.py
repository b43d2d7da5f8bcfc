"""Rational functions in q and t with factored denominators.

A RationalFunction is a LaurentPoly numerator over a multiset of factors
(1 - q^a t^b)^mult.  Denominators are never expanded for storage; equality
is mathematical (cross-multiplication after cancelling common factors).
There is no polynomial division anywhere: t-series and t -> 1 limits are
read off the factors, and dividing by a factor cancels it from the multiset.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, prod
from typing import Iterable

from .laurent import LaurentPoly


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
    """Factors given as DenomFactor or (a, b, mult) triples, with equal (a, b)
    merged, in (b, a) order."""
    merged: Counter = Counter()
    for f in factors:
        a, b, mult = (f.a, f.b, f.mult) if isinstance(f, DenomFactor) else f
        merged[(a, b)] += mult
    return tuple(
        DenomFactor(a, b, m) for (a, b), m in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    )


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """num / prod((1 - q^a t^b)^mult), with mathematical equality."""

    num: LaurentPoly
    den: tuple[DenomFactor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "den", _canonical_factors(self.den))

    def den_counter(self) -> Counter:
        return Counter({(f.a, f.b): f.mult for f in self.den})

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, LaurentPoly):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        merged = self.den_counter() + other.den_counter()
        return RationalFunction(
            self.num * other.num, [(a, b, m) for (a, b), m in merged.items()]
        )

    __rmul__ = __mul__

    def divided_by(self, other: "RationalFunction") -> "RationalFunction":
        """Division restricted to divisors with numerator 1.

        Cancels against the denominator multiset first; divisor factors with
        no counterpart are multiplied into the numerator.
        """
        if other.num != LaurentPoly.one():
            raise ValueError("divided_by requires a divisor with numerator 1")
        remaining = self.den_counter()
        num = self.num
        for f in other.den:
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
            f"(1-q^{f.a} t^{f.b})" + (f"^{f.mult}" if f.mult > 1 else "") for f in self.den
        )
        return f"RationalFunction({self.num!r} / {den or '1'})"


def rf_equal(x: RationalFunction, y: RationalFunction) -> bool:
    """True iff x and y agree as rational functions (cross-multiplication)."""
    cx, cy = x.den_counter(), y.den_counter()
    common = cx & cy

    def cleared(num: LaurentPoly, rest: Counter) -> LaurentPoly:
        for (a, b), m in rest.items():
            num = num * DenomFactor(a, b, m).expanded()
        return num

    return cleared(x.num, cy - common) == cleared(y.num, cx - common)


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
    series: list[dict[int, int]] = [{} for _ in range(upto + 1)]
    for (eq, et), c in x.num.terms().items():
        if et < 0:
            raise ValueError("numerator has negative t-exponents")
        if et <= upto:
            series[et][eq] = c
    # Dividing by (1 - q^a t^b) is the forward recurrence c_k += q^a c_(k-b).
    for f in x.den:
        for _ in range(f.mult):
            for k in range(f.b, upto + 1):
                row = series[k]
                for eq, c in series[k - f.b].items():
                    row[eq + f.a] = row.get(eq + f.a, 0) + c
    return [LaurentPoly(((eq, 0), c) for eq, c in row.items()) for row in series]


def rf_series_work(x: RationalFunction, upto: int) -> tuple[int, int]:
    """Upper bounds on the work of rf_series_coeffs(x, upto): the
    coefficient updates, and the coefficients held in the rows.

    With a/b ranging over [lo, hi] across the factors (1 - q^a t^b), a term
    q^e t^s of the numerator reaches row k only at q-exponents in
    [e - s lo + k lo, e - s hi + k hi], so row k holds at most
    w + k (hi - lo) + 1 coefficients, where w >= 0 bounds the spread of the
    numerator's endpoints.  Rows 0..K - 1 hold at most
    K (w + 1) + (hi - lo) K (K - 1) / 2, and each factor, once per
    multiplicity, reads rows 0..upto - b.
    """
    terms = [(eq, et) for eq, et in x.num.terms() if 0 <= et <= upto]
    if not terms:
        return 0, 0
    lo = min((Fraction(f.a, f.b) for f in x.den if f.b), default=0)
    hi = max((Fraction(f.a, f.b) for f in x.den if f.b), default=0)
    spread = max(max(eq - et * hi for eq, et in terms) - min(eq - et * lo for eq, et in terms), 0)

    def held(rows: int) -> Fraction:
        return rows * (spread + 1) + (hi - lo) * rows * (rows - 1) / 2 if rows > 0 else Fraction(0)

    return ceil(sum(f.mult * held(upto - f.b + 1) for f in x.den)), ceil(held(upto + 1))


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


def rf_limit_t1(x: RationalFunction) -> LaurentQuotient:
    """Exact limit of x as t -> 1, as a quotient of polynomials in q.

    Read off the factors: the P factors (1 - t^b) with a = 0 are (1 - t)
    times a cofactor worth b at t = 1, every other factor is worth
    (1 - q^a).  The numerator is sum_k (-1)^k T_k (1 - t)^k with
    T_k = sum c C(et, k) q^eq (C generalised to negative et).  If some
    T_k with k < P is nonzero, a PoleAtT1Error reports the order P - k.
    """
    pole = sum(f.mult for f in x.den if f.a == 0)
    terms = x.num.terms().items()
    for k in range(pole + 1):
        taylor = LaurentPoly(((eq, 0), c * _binom(et, k)) for (eq, et), c in terms)
        if k < pole and taylor:
            raise PoleAtT1Error(pole - k)
    den = LaurentPoly.term(prod(f.b**f.mult for f in x.den if f.a == 0))
    for f in x.den:
        if f.a:
            den = den * f.expanded().subs_t_one()
    return LaurentQuotient(taylor * (-1) ** pole, den)


def _binom(n: int, k: int) -> int:
    """C(n, k) = n(n-1)...(n-k+1)/k!, for any integer n."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def rational_to_obj(x: RationalFunction) -> dict:
    """JSON-ready form: numerator terms and denominator factors, canonical order."""
    return {
        "num": [{"q": eq, "t": et, "c": str(c)} for (eq, et), c in x.num.sorted_terms()],
        "den": [{"a": f.a, "b": f.b, "mult": f.mult} for f in x.den],
    }


def rational_from_obj(obj: dict) -> RationalFunction:
    num = LaurentPoly(((int(e["q"]), int(e["t"])), int(e["c"])) for e in obj["num"])
    den = [(int(f["a"]), int(f["b"]), int(f["mult"])) for f in obj["den"]]
    return RationalFunction(num, den)


def rational_dumps(x: RationalFunction) -> str:
    return json.dumps(rational_to_obj(x), separators=(",", ":"))


def rational_loads(text: str) -> RationalFunction:
    return rational_from_obj(json.loads(text))
