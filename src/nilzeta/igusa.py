"""Igusa zeta functions of degree n, in subset and permutation form.

The degree-n function takes a Gaussian parameter Y (here always a monomial
q^y) and n monomials X_j = q^a_j t^b_j.  Both closed forms share the common
denominator prod_j (1 - X_j):

  subset form:       sum over I subset of [n] of (n choose I)_Y
                     * prod_{i in I} X_i / (1 - X_i),
  permutation form:  sum over w in S_n of Y^len(w) * prod_{j in Des(w)} X_j,
                     over the common denominator.

The permutation form never walks S_n.  It needs only the census of S_n by
(length, descent set), and Stanley's identity (Enumerative Combinatorics I,
section 1.4) gives that census from the Gaussian multinomials: the
permutations with descent set inside S have length generating function
(n choose S)_Y, so Moebius inversion over the subsets of [n-1] yields the
census in census_subtractions(n) = (n - 1) 2^(n - 2) (C(n, 2) + 1)
coefficient subtractions, against n! C(n, 2) comparisons for the walk.
The walk survives as combinat.permutations_with_stats, the reference the
tests hold the census to.

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
from math import comb, factorial

from .combinat import gaussian_multinomial, gaussian_multinomials
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


def census_subtractions(n: int) -> int:
    """Coefficient subtractions of _descent_census(n): each of the n - 1
    coordinates updates the 2^(n - 2) subsets that contain it, C(n, 2) + 1
    coefficients each."""
    return (n - 1) * 2 ** (n - 1) // 2 * (comb(n, 2) + 1)


@lru_cache(maxsize=None)
def _descent_census(n: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Number of permutations per (length, descent set) pair, sorted.

    Stanley's identity: the length generating function of the permutations
    whose descent set lies inside T is alpha_T = (n choose T)_Y.  Inverting
    over the Boolean lattice of [n-1], one coordinate at a time, leaves
    beta_S = sum over T inside S of (-1)^|S - T| alpha_T, the length
    generating function of the permutations with descent set exactly S.
    Every list is padded to the C(n, 2) + 1 coefficients of [n]_Y!, so the
    inversion makes census_subtractions(n) coefficient subtractions.
    """
    size = comb(n, 2) + 1
    sets: list[tuple[int, ...]] = [()] * (1 << (n - 1))
    beta: list[list[int]] = [[]] * (1 << (n - 1))
    for descents, alpha in gaussian_multinomials(n).items():
        mask = sum(1 << (j - 1) for j in descents)
        sets[mask] = descents
        beta[mask] = list(alpha) + [0] * (size - len(alpha))
    for bit in (1 << i for i in range(n - 1)):
        for mask in range(1 << (n - 1)):
            if mask & bit:
                beta[mask] = [a - b for a, b in zip(beta[mask], beta[mask ^ bit])]
    return tuple(sorted(
        (length, descents, count)
        for descents, row in zip(sets, beta)
        for length, count in enumerate(row)
        if count
    ))


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
