"""Univariate rational functions kept as a constant times integer linear factors.

Used for the topological zeta functions, which live in a single variable s
with exact rational coefficients.  A value is

    const * prod(b*s - a  for (b, a) in num_factors)
          / prod(b*s - a  for (b, a) in den_factors);

integer content of each factor is pulled into the constant, so e.g.
6/((12s-27)(10s-20)) normalizes to 1/(5*(4s-9)(s-2)).  Equality is
mathematical, by cross-multiplied expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, prod

from .combinat import poly_mul


def _expand(factors: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Expand prod(b*s - a) into coefficients, low degree first."""
    return reduce(poly_mul, ((-a, b) for b, a in factors), (1,))


def _primitive(factors) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The product of the factors' integer contents, and the factors with
    their contents divided out."""
    content, out = 1, []
    for b, a in factors:
        if b <= 0:
            raise ValueError("leading coefficient of a linear factor must be positive")
        g = gcd(b, a)
        content *= g
        out.append((b // g, a // g))
    return content, tuple(out)


@dataclass(frozen=True)
class LinearFactorRational:
    const: Fraction
    num_factors: tuple[tuple[int, int], ...] = ()
    den_factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # the factors' contents are multiplied out as integers and reach the
        # constant in one division, which reduces it once, not once per factor
        up, num_factors = _primitive(self.num_factors)
        down, den_factors = _primitive(self.den_factors)
        object.__setattr__(self, "const", Fraction(self.const) * up / down)
        object.__setattr__(self, "num_factors", num_factors)
        object.__setattr__(self, "den_factors", den_factors)

    def degree(self) -> int:
        if self.const == 0:
            raise ValueError("zero rational function has no degree")
        return len(self.num_factors) - len(self.den_factors)

    def equal(self, other: "LinearFactorRational") -> bool:
        left = _expand(self.num_factors + other.den_factors)
        right = _expand(other.num_factors + self.den_factors)
        an, ad = self.const.numerator, self.const.denominator
        bn, bd = other.const.numerator, other.const.denominator
        width = max(len(left), len(right))
        left = tuple(an * bd * c for c in left) + (0,) * (width - len(left))
        right = tuple(bn * ad * c for c in right) + (0,) * (width - len(right))
        return left == right

    def scaled_infinity_limit(self, power: int) -> Fraction:
        """Exact limit of s**power * self as s -> oo; requires degree == -power."""
        if self.degree() != -power:
            raise ValueError("s**power * value does not have a finite nonzero limit")
        return self.const * prod(b for b, _ in self.num_factors) / prod(b for b, _ in self.den_factors)
