"""Closed-form zeta functions and analytic invariants for the rings L(m, n).

Everything here is assembled from the Igusa layer.  The central object is
the local ideal zeta function at residue cardinality q,

    zeta(m, n) = zeta_ab(d) * I_n(1/q; (q^{a_i} t^{b_i})_{i = n-1..0}),

with index data a_i = (n-i)(i+d) and b_i = n-i+e+sum_{j>i} e(m, j).  The
same skeleton with a_i replaced by i(n-i) gives the graded variant; the
topological and reduced degenerations and the one-factor representation
zeta function are derived alongside.

The variable s never appears in bivariate objects; it is confined to the
two topological forms, which carry exact rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .combinat import Value, lie_dims, e_count
from .igusa import IgusaData, igusa_permutation, igusa_reduced, igusa_topological
from .laurent import LaurentPoly
from .rational import (
    RationalFunction,
    rf_equal,
    rf_invert_vars,
    rf_limit_t1,
)
from .univariate import LinearFactorRational


class NumericalData(Value):
    """Exponent pairs (a_i, b_i), i = 0..n-1, feeding the Igusa function."""

    __slots__ = ("a", "b")


def numerical_data(m: int, n: int) -> NumericalData:
    dims = lie_dims(m, n)
    a = tuple((n - i) * (i + dims.d) for i in range(n))
    b = [0] * n
    tail = 0  # sum of e(m, j) over j > i, one pass from the right
    for i in range(n - 1, -1, -1):
        tail += e_count(m, i + 1)
        b[i] = n - i + dims.e + tail
    if a[0] != dims.d * n or b[0] != dims.h:
        raise AssertionError("index data fails the (d*n, h) anchor")
    return NumericalData(a=a, b=tuple(b))


def abelian_zeta(d: int) -> RationalFunction:
    """Submodule-counting zeta function of the free module of rank d."""
    if d < 1:
        raise ValueError("rank must be positive")
    return RationalFunction(LaurentPoly.one(), [(i, 1, 1) for i in range(d)])


def igusa_data(a: tuple[int, ...], b: tuple[int, ...]) -> IgusaData:
    """The Igusa input of the data (a_i, b_i), i = 0..n-1: Y = q^-1 and
    X_j = q^a_(n-j) t^b_(n-j), so the monomials run from i = n-1 down to 0."""
    return IgusaData(-1, tuple(zip(a, b, strict=True))[::-1])


def ideal_zeta(m: int, n: int) -> RationalFunction:
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    return abelian_zeta(dims.d) * igusa_permutation(igusa_data(nd.a, nd.b))


def graded_ideal_zeta(m: int, n: int) -> RationalFunction:
    """Ideal count of the associated graded ring: same b_i, q-exponent i(n-i)."""
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    graded_a = tuple(i * (n - i) for i in range(n))
    return abelian_zeta(dims.d) * igusa_permutation(igusa_data(graded_a, nd.b))


def rep_zeta(m: int, n: int) -> tuple[RationalFunction, LinearFactorRational]:
    """Local and topological twist-isoclass counting zeta functions.

    The local Euler factor is (1 - t^e)/(1 - q^n t^e); its topological
    limit is s*e/(s*e - n).
    """
    dims = lie_dims(m, n)
    local = RationalFunction(
        LaurentPoly({(0, 0): 1, (0, dims.e): -1}), [(n, dims.e, 1)]
    )
    topological = LinearFactorRational(1, ((dims.e, 0),), ((dims.e, n),))
    return local, topological


def topological_ideal_zeta(m: int, n: int) -> LinearFactorRational:
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    abelian_factors = tuple((1, j) for j in range(dims.d))
    igusa = igusa_topological(nd.a, nd.b)
    return LinearFactorRational(
        igusa.const, igusa.num_factors, abelian_factors + igusa.den_factors
    )


def reduced_ideal_zeta(m: int, n: int) -> tuple[RationalFunction, Fraction]:
    """The Y-specialization (stored over t) and its residue mu = n!/prod(b_i).

    Checks that the pole at Y = 1 has order h, read from the numerator by
    rf_limit_t1, that its leading coefficient is exactly mu, and that
    mu * h! is an integer.
    """
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    base = igusa_reduced(tuple(b for _, b in igusa_data(nd.a, nd.b).x))
    fn = RationalFunction(base.num, list(base.den) + [(0, 1, dims.d)])
    mu = Fraction(factorial(n))
    for bi in nd.b:
        mu /= bi
    order, lead, prod_b = rf_limit_t1(fn)
    if order != dims.h:
        raise AssertionError("pole order at Y = 1 is not h")
    if Fraction(lead.num.constant_value(), prod_b) != mu:
        raise AssertionError("residue at Y = 1 does not equal n!/prod(b_i)")
    if (mu * factorial(dims.h)).denominator != 1:
        raise AssertionError("mu * h! is not an integer")
    return fn, mu


def analytic_invariants(m: int, n: int) -> tuple[int, Fraction]:
    """Abscissa of convergence alpha = d and the continuation bound beta.

    beta is the largest (a_i - 1)/b_i over the data indices that occur in
    numerator descent products, i.e. i = 1..n-1; for n = 1 the single
    denominator datum (a_0 - 1)/b_0 is used.
    """
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    indices = range(1, n) if n >= 2 else range(1)
    beta = max(Fraction(nd.a[i] - 1, nd.b[i]) for i in indices)
    return dims.d, beta


def check_functional_equation(m: int, n: int) -> bool:
    """Inverting q and t multiplies the ideal zeta function by
    (-1)^h q^C(h,2) t^(d+h)."""
    dims = lie_dims(m, n)
    z = ideal_zeta(m, n)
    inverted = rf_invert_vars(z)
    sign = -1 if dims.h % 2 else 1
    target = z * LaurentPoly.term(sign, comb(dims.h, 2), dims.d + dims.h)
    return rf_equal(inverted, target)


def _leading_ratio_is(x: RationalFunction, y: RationalFunction, value: Fraction) -> bool:
    """True iff x / y tends to value at t = 1: equal orders, and leading
    coefficients in the ratio value."""
    x_order, x_lead, x_prod = rf_limit_t1(x)
    y_order, y_lead, y_prod = rf_limit_t1(y)
    return x_order == y_order and rf_equal(
        x_lead * LaurentPoly.term(y_prod * value.denominator),
        y_lead * LaurentPoly.term(x_prod * value.numerator),
    )


def check_zero_behaviour(m: int, n: int) -> tuple[bool, bool]:
    """Behaviour at t = 1 (that is, s = 0).

    pad:    ideal zeta over the rank-h abelian zeta tends to 1;
    graded: graded zeta over abelian(d) * abelian(n) tends to n/h,
            a constant free of q.
    """
    dims = lie_dims(m, n)
    pad = _leading_ratio_is(ideal_zeta(m, n), abelian_zeta(dims.h), Fraction(1))
    graded = _leading_ratio_is(
        graded_ideal_zeta(m, n), abelian_zeta(dims.d) * abelian_zeta(n), Fraction(n, dims.h)
    )
    return pad, graded


class ZetaReport(Value):
    """Everything this package computes for one pair (m, n)."""

    __slots__ = ("dims", "data", "ideal", "graded", "rep_local", "rep_topological", "topological",
                 "reduced", "mu", "alpha", "beta")


def zeta_report(m: int, n: int) -> ZetaReport:
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    ideal = ideal_zeta(m, n)
    local, top_rep = rep_zeta(m, n)
    reduced, mu = reduced_ideal_zeta(m, n)
    alpha, beta = analytic_invariants(m, n)
    # Read off the ideal zeta function: a factor 1/(1 - q^a t^b) has its pole
    # at s = (a + 1)/b, and the numerator continues to its largest q/t ratio
    if alpha != max(Fraction(a + 1, b) for a, b, _ in ideal.den):
        raise AssertionError("alpha is not the rightmost pole of the ideal zeta function")
    top = {}  # each positive t-exponent's largest q-exponent
    for qe, te in ideal.num.terms():
        if te > 0 and top.get(te, qe - 1) < qe:
            top[te] = qe
    ratios = (Fraction(qe, te) for te, qe in top.items())
    if beta != max(ratios, default=Fraction(nd.a[0] - 1, nd.b[0])):
        raise AssertionError("beta is not the largest q/t ratio of the ideal zeta numerator")
    return ZetaReport(
        dims=dims,
        data=nd,
        ideal=ideal,
        graded=graded_ideal_zeta(m, n),
        rep_local=local,
        rep_topological=top_rep,
        topological=topological_ideal_zeta(m, n),
        reduced=reduced,
        mu=mu,
        alpha=alpha,
        beta=beta,
    )
