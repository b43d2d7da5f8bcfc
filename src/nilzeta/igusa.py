"""Igusa zeta functions of degree n, in subset and permutation form.

The degree-n function takes a Gaussian parameter Y (here always a monomial
q^y) and n monomials X_j = q^a_j t^b_j.  Both closed forms share the common
denominator prod_j (1 - X_j):

  subset form:       sum over I subset of [n] of (n choose I)_Y
                     * prod_{i in I} X_i / (1 - X_i),
  permutation form:  sum over w in S_n of Y^len(w) * prod_{j in Des(w)} X_j,
                     over the common denominator.

The subset form is summed along the chains that telescope its multinomials,
(n choose I)_Y = (n choose i_l)(i_l choose i_(l-1)) ... (i_2 choose i_1):
walking i = n..1, one partial numerator is kept per least element chosen so
far (n while none is).  Leaving i out multiplies a partial by 1 - X_i;
taking it multiplies by X_i (upper choose i)_Y and moves it to key i.  That
is O(n^2) products instead of n 2^n, and reads nothing of the census.

The permutation form never walks S_n (the walk is the tests' reference,
the `permutations_with_stats` fixture of tests/conftest.py).  It reads the
census of _descent_census: per descent set S of [n-1], the length
generating function beta_S of the permutations with descent set exactly S,
so that the numerator is the sum over S of beta_S(Y) prod_{j in S} X_j.

igusa_middle is the subset chain without its first step, which multiplies
by 1; it is kept only while perfbench/spans.py binds it by name.  The
topological degeneration is a LinearFactorRational in s, the reduced one a
RationalFunction in t alone (t standing for Y).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .combinat import Value, gaussian_binomial, gaussian_multinomials
from .laurent import LaurentPoly
from .rational import RationalFunction
from .univariate import LinearFactorRational


class IgusaData(Value):
    """Input data: the Gaussian parameter q^y_qexp and n monomials (a_j, b_j)."""

    __slots__ = ("y_qexp", "x")

    def __init__(self, y_qexp: int, x: tuple[tuple[int, int], ...]):
        if not x:
            raise ValueError("degree must be positive")
        super().__init__(y_qexp, x)

    @property
    def n(self) -> int:
        return len(self.x)


def _y_power(data: IgusaData, degree_coeffs: tuple[int, ...]) -> LaurentPoly:
    """Substitute Y = q^y_qexp into a polynomial given by coefficients."""
    return LaurentPoly(((data.y_qexp * k, 0), c) for k, c in enumerate(degree_coeffs))


def _denominator(data: IgusaData):
    return [(a, b, 1) for a, b in data.x]


def _subset_sum(data: IgusaData, top: int) -> RationalFunction:
    """Sum over I subset of [top] of (n choose I)_Y * prod_{i in I} X_i
    * prod_{i in [top] - I} (1 - X_i), over the common denominator, by the
    chain walk of the module docstring."""
    partials = {data.n: LaurentPoly.one()}
    for i in range(top, 0, -1):
        x = LaurentPoly({data.x[i - 1]: 1})
        step = {i: LaurentPoly.zero()}
        for upper, partial in partials.items():
            step[upper] = partial * (1 - x)
            step[i] += partial * (x * _y_power(data, gaussian_binomial(upper, i)))
        partials = step
    num = sum(partials.values(), LaurentPoly.zero())
    return RationalFunction(num, _denominator(data))


def igusa_subset(data: IgusaData) -> RationalFunction:
    """Subset form, assembled over the common denominator prod(1 - X_i)."""
    return _subset_sum(data, data.n)


def igusa_middle(data: IgusaData) -> RationalFunction:
    """The subset chain without its step i = n, which multiplies by 1: {n: 1} becomes
    {n: (1 - X_n) + X_n (n choose n)_Y} = {n: 1}.  Kept only while perfbench/spans.py binds it."""
    return _subset_sum(data, data.n - 1)


def census_subtractions(n: int) -> int:
    """Coefficient subtractions of _descent_census(n): each of the n - 1
    coordinates updates the 2^(n - 2) subsets that contain it, C(n, 2) + 1
    coefficients each."""
    return (n - 1) * 2 ** (n - 1) // 2 * (comb(n, 2) + 1)


@lru_cache(maxsize=None)
def _descent_census(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per descent set S of [n-1], the number of permutations with descent
    set exactly S of each length 0..C(n, 2): the pairs (S, beta_S).

    Stanley's identity: the length generating function of the permutations
    whose descent set lies inside T is alpha_T = (n choose T)_Y.  Inverting
    over the Boolean lattice of [n-1], one coordinate j at a time
    (beta_S -= beta_(S - j) for every S containing j), leaves
    beta_S = sum over T inside S of (-1)^|S - T| alpha_T.  Every row is
    padded to the C(n, 2) + 1 coefficients of [n]_Y!, so the inversion makes
    census_subtractions(n) coefficient subtractions.
    """
    size = comb(n, 2) + 1
    beta = {s: list(alpha) + [0] * (size - len(alpha)) for s, alpha in gaussian_multinomials(n).items()}
    for j in range(1, n):
        for s, row in beta.items():
            if j in s:
                beta[s] = [a - b for a, b in zip(row, beta[tuple(i for i in s if i != j)])]
    return tuple((s, tuple(row)) for s, row in beta.items())


def igusa_permutation(data: IgusaData) -> RationalFunction:
    """Permutation form: sum over S_n weighted by length and descents."""
    y, x = data.y_qexp, data.x
    exponents = (
        (sum(x[j - 1][0] for j in s), sum(x[j - 1][1] for j in s), row)
        for s, row in _descent_census(data.n)
    )
    num = LaurentPoly(((qe + y * length, te), count)
                      for qe, te, row in exponents for length, count in enumerate(row))
    return RationalFunction(num, _denominator(data))


def igusa_topological(a, b) -> LinearFactorRational:
    """The leading (q - 1)-degeneration: n! / prod(b_i s - a_i), n = len(a)."""
    if any(bi < 1 for bi in b):
        raise ValueError("t-exponents must be positive")
    factors = tuple((bi, ai) for ai, bi in zip(a, b, strict=True))
    return LinearFactorRational(factorial(len(factors)), (), factors)


def igusa_reduced(b) -> RationalFunction:
    """Gaussian-parameter-1 degeneration in a single variable Y (stored as t).

    The Gaussian multinomials collapse to counting constants, so this is the
    permutation form with Y-parameter exponent 0 and X_j = Y^{b_j}.
    """
    if any(bi < 1 for bi in b):
        raise ValueError("exponents must be positive")
    return igusa_permutation(IgusaData(0, tuple((0, bi) for bi in b)))
