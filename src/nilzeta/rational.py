"""Rational functions in q and t with factored denominators.

A RationalFunction is a LaurentPoly numerator over a multiset of factors
(1 - q^a t^b)^mult, each stored as the integer triple (a, b, mult).
Denominators are never expanded for storage; equality is mathematical
(cross-multiplication after cancelling common factors).
There is no polynomial division anywhere: t-series and the leading term at
t = 1 are read off the factors, and nothing on the t -> 1 path is expanded.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from math import ceil, comb, prod

from .combinat import Value
from .laurent import LaurentPoly


class NonExpandableFactorError(ValueError):
    """A denominator factor with t-exponent 0 cannot be expanded as a t-series."""


def factor_poly(a: int, b: int) -> LaurentPoly:
    """The polynomial 1 - q^a t^b of the denominator factor (a, b, mult)."""
    return LaurentPoly({(0, 0): 1, (a, b): -1})


class RationalFunction(Value):
    """num / prod((1 - q^a t^b)^mult), with mathematical equality.

    den is the tuple of the integer triples (a, b, mult), equal (a, b)
    merged, in (b, a) order.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[tuple[int, int, int]] = ()):
        merged: dict[tuple[int, int], int] = {}
        for a, b, mult in den:
            merged[b, a] = merged.get((b, a), 0) + mult
        factors = tuple((a, b, mult) for (b, a), mult in sorted(merged.items()))
        for a, b, mult in factors:
            if b < 0:
                raise ValueError("t-exponent of a denominator factor must be nonnegative")
            if (a, b) == (0, 0):
                raise ValueError("denominator factor (1 - 1) is zero")
            if mult < 1:
                raise ValueError("denominator factor multiplicity must be positive")
        super().__init__(num, factors)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, LaurentPoly):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return rf_equal(self, other)

    __hash__ = None

    def __repr__(self) -> str:
        den = "".join(
            f"(1-q^{a} t^{b})" + (f"^{mult}" if mult > 1 else "") for a, b, mult in self.den
        )
        return f"RationalFunction({self.num!r} / {den or '1'})"


def rf_equal(x: RationalFunction, y: RationalFunction) -> bool:
    """True iff x and y agree as rational functions (cross-multiplication)."""
    cx = Counter({(a, b): mult for a, b, mult in x.den})
    cy = Counter({(a, b): mult for a, b, mult in y.den})
    common = cx & cy

    def cleared(num: LaurentPoly, rest: Counter) -> LaurentPoly:
        for (a, b), mult in rest.items():
            num = num * factor_poly(a, b) ** mult
        return num

    return cleared(x.num, cy - common) == cleared(y.num, cx - common)


def rf_invert_vars(x: RationalFunction) -> RationalFunction:
    """Apply q -> 1/q, t -> 1/t, restoring the factored denominator shape.

    Uses 1/(1 - q^-a t^-b) = (-q^a t^b)/(1 - q^a t^b) on every factor.
    """
    sign = 1
    qshift = 0
    tshift = 0
    for a, b, mult in x.den:
        if mult % 2:
            sign = -sign
        qshift += a * mult
        tshift += b * mult
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
    for a, b, _ in x.den:
        if b == 0:
            raise NonExpandableFactorError(
                f"factor (1 - q^{a}) is constant in t and not invertible as a t-series"
            )
    series: list[dict[int, int]] = [{} for _ in range(upto + 1)]
    for (eq, et), c in x.num.terms().items():
        if et < 0:
            raise ValueError("numerator has negative t-exponents")
        if et <= upto:
            series[et][eq] = c
    # Dividing by (1 - q^a t^b) is the forward recurrence c_k += q^a c_(k-b).
    for a, b, mult in x.den:
        for _ in range(mult):
            for k in range(b, upto + 1):
                row = series[k]
                for eq, c in series[k - b].items():
                    row[eq + a] = row.get(eq + a, 0) + c
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
    multiplicity, reads rows 0..upto - b.  lo, hi and the rows read depend
    only on each b's least and greatest a, so the bound is formed per b.
    """
    terms = [(eq, et) for eq, et in x.num.terms() if 0 <= et <= upto]
    if not terms:
        return 0, 0
    mults: Counter = Counter()
    ends: dict[int, list[int]] = {}
    for a, b, mult in x.den:  # in (b, a) order: each b's least a comes first
        mults[b] += mult
        ends.setdefault(b, [a, a])[1] = a
    slopes = [Fraction(a, b) for b, pair in ends.items() if b for a in pair]
    lo, hi = min(slopes, default=0), max(slopes, default=0)
    spread = max(max(eq - et * hi for eq, et in terms) - min(eq - et * lo for eq, et in terms), 0)

    def held(rows: int) -> Fraction:
        return rows * (spread + 1) + (hi - lo) * rows * (rows - 1) / 2 if rows > 0 else Fraction(0)

    return ceil(sum(mult * held(upto - b + 1) for b, mult in mults.items())), ceil(held(upto + 1))


def rf_limit_t1(x: RationalFunction) -> tuple[int, RationalFunction, int]:
    """The leading term of x at t = 1: x ~ lead / (prod_b * (1 - t)^order).

    Read off the factors, expanding nothing: each factor (1 - t^b) with a = 0
    is (1 - t) times a cofactor worth b at t = 1, every other factor is worth
    (1 - q^a).  The numerator is sum_k (-1)^k T_k (1 - t)^k with
    T_k = sum c C(et, k) q^eq (C generalised to negative et), so the order is
    the count of a = 0 factors less the first k with T_k nonzero; it is
    negative where x vanishes at t = 1.  lead is (-1)^k T_k over the factors
    (1 - q^a), kept factored; prod_b is the product of the b of the a = 0
    factors.  Raises ValueError for x = 0, which has no leading term.
    """
    if not x.num:
        raise ValueError("the zero function has no leading term at t = 1")
    terms = x.num.terms().items()
    k = 0
    while not (taylor := LaurentPoly(((eq, 0), c * _binom(et, k)) for (eq, et), c in terms)):
        k += 1
    poles = [(b, mult) for a, b, mult in x.den if a == 0]
    lead = RationalFunction(taylor * (-1) ** k, [(a, 0, mult) for a, _, mult in x.den if a])
    return sum(mult for _, mult in poles) - k, lead, prod(b**mult for b, mult in poles)


def _binom(n: int, k: int) -> int:
    """C(n, k) = n(n-1)...(n-k+1)/k!, for any integer n."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def rational_to_obj(x: RationalFunction) -> dict:
    """JSON-ready form: numerator terms and denominator factors, canonical order."""
    return {
        "num": [{"q": eq, "t": et, "c": str(c)} for (eq, et), c in x.num.sorted_terms()],
        "den": [{"a": a, "b": b, "mult": mult} for a, b, mult in x.den],
    }
