"""Igusa zeta functions of degree n, in subset and permutation form.

The degree-n function takes a Gaussian parameter Y (here always a monomial
q^y) and n monomials X_j = q^a_j t^b_j.  Both closed forms share the common
denominator prod_j (1 - X_j):

  subset form:       sum over I subset of [n] of (n choose I)_Y
                     * prod_{i in I} X_i / (1 - X_i),
  permutation form:  sum over w in S_n of Y^len(w) * prod_{j in Des(w)} X_j,
                     over the common denominator.

A third form that factors 1/(1 - X_n) out of the subset sum is provided for
cross-checking only.  The topological and reduced degenerations live in a
single variable: the former is returned as a LinearFactorRational in s, the
latter as a RationalFunction in t alone (t playing the role of the
variable Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinat import gaussian_multinomial, permutations_with_stats
from .laurent import LaurentPoly
from .rational import RationalFunction
from .univariate import LinearFactorRational


@dataclass(frozen=True)
class IgusaData:
    """Input data: the Gaussian parameter q^y_qexp and n monomials (a_j, b_j)."""

    n: int
    y_qexp: int
    x: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")
        if len(self.x) != self.n:
            raise ValueError("need exactly n monomials")


def _y_power(data: IgusaData, degree_coeffs: tuple[int, ...]) -> LaurentPoly:
    """Substitute Y = q^y_qexp into a polynomial given by coefficients."""
    return LaurentPoly({(data.y_qexp * k, 0): c for k, c in enumerate(degree_coeffs) if c})


def _denominator(data: IgusaData):
    return [(a, b, 1) for a, b in data.x]


def _subset_sum(data: IgusaData, top: int) -> RationalFunction:
    """Sum over I subset of [top] of (n choose I)_Y * prod_{i in I} X_i
    * prod_{i in [top] - I} (1 - X_i), over the common denominator."""
    num = LaurentPoly.zero()
    for mask in range(1 << top):
        subset = [i for i in range(1, top + 1) if mask >> (i - 1) & 1]
        part = _y_power(data, gaussian_multinomial(data.n, subset))
        for i in range(1, top + 1):
            a, b = data.x[i - 1]
            part = part * LaurentPoly({(a, b): 1} if i in subset else {(0, 0): 1, (a, b): -1})
        num = num + part
    return RationalFunction(num, _denominator(data))


def igusa_subset(data: IgusaData) -> RationalFunction:
    """Subset form, assembled over the common denominator prod(1 - X_i)."""
    return _subset_sum(data, data.n)


def igusa_middle(data: IgusaData) -> RationalFunction:
    """Variant that factors 1/(1 - X_n) out of a subset sum over [n-1]."""
    return _subset_sum(data, data.n - 1)


@lru_cache(maxsize=None)
def _descent_census(n: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Number of permutations per (length, descent set) pair."""
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for _, length, descents in permutations_with_stats(n):
        key = (length, descents)
        counts[key] = counts.get(key, 0) + 1
    return tuple((length, descents, c) for (length, descents), c in sorted(counts.items()))


def igusa_permutation(data: IgusaData) -> RationalFunction:
    """Permutation form: sum over S_n weighted by length and descents."""
    n = data.n
    terms: dict[tuple[int, int], int] = {}
    for length, descents, count in _descent_census(n):
        qe = data.y_qexp * length
        te = 0
        for j in descents:
            a, b = data.x[j - 1]
            qe += a
            te += b
        key = (qe, te)
        terms[key] = terms.get(key, 0) + count
    return RationalFunction(LaurentPoly(terms), _denominator(data))


def igusa_topological(n: int, a, b) -> LinearFactorRational:
    """The leading (q - 1)-degeneration: n! / prod(b_i s - a_i)."""
    if len(a) != n or len(b) != n:
        raise ValueError("need n numerator-free data entries")
    if any(bi < 1 for bi in b):
        raise ValueError("t-exponents must be positive")
    return LinearFactorRational.make(
        Fraction(factorial(n)), (), tuple((bi, ai) for ai, bi in zip(a, b))
    )


def igusa_reduced(n: int, b) -> RationalFunction:
    """Gaussian-parameter-1 degeneration in a single variable Y (stored as t).

    The Gaussian multinomials collapse to counting constants, so this is the
    permutation form with Y-parameter exponent 0 and X_j = Y^{b_j}.
    """
    if len(b) != n:
        raise ValueError("need n exponents")
    if any(bi < 1 for bi in b):
        raise ValueError("exponents must be positive")
    data = IgusaData(n=n, y_qexp=0, x=tuple((0, bi) for bi in b))
    return igusa_permutation(data)
