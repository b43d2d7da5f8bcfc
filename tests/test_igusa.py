"""Igusa functions: closed forms, form equivalence, degenerations."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from nilzeta import igusa
from nilzeta.combinat import gaussian_multinomials, poly_mul
from nilzeta.igusa import (
    IgusaData,
    _descent_census,
    census_subtractions,
    igusa_middle,
    igusa_permutation,
    igusa_reduced,
    igusa_subset,
    igusa_topological,
)
from nilzeta.laurent import LaurentPoly
from nilzeta.rational import RationalFunction, rf_equal, rf_limit_t1, rf_series_coeffs
from nilzeta.univariate import LinearFactorRational


def data(x, y_qexp=-1):
    return IgusaData(y_qexp, tuple(x))


def test_degree_one_both_forms():
    d = data([(2, 3)])
    expected = RationalFunction(LaurentPoly.one(), [(2, 3, 1)])
    assert rf_equal(igusa_subset(d), expected)
    assert rf_equal(igusa_permutation(d), expected)


def test_degree_two_closed_form():
    # numerator 1 + Y X_1 over (1-X_1)(1-X_2), here Y = q^-1
    d = data([(4, 3), (6, 5)])
    expected = RationalFunction(
        LaurentPoly({(0, 0): 1, (3, 3): 1}), [(4, 3, 1), (6, 5, 1)]
    )
    assert rf_equal(igusa_subset(d), expected)
    assert rf_equal(igusa_permutation(d), expected)
    assert rf_equal(igusa_middle(d), expected)


def test_degree_three_published_numerator():
    d = data([(11, 7), (20, 10), (27, 12)])
    out = igusa_subset(d)
    assert out.num == LaurentPoly(
        {(0, 0): 1, (9, 7): 1, (10, 7): 1, (18, 10): 1, (19, 10): 1, (28, 17): 1}
    )
    assert [(a, b) for a, b, _ in out.den] == [(11, 7), (20, 10), (27, 12)]


@pytest.mark.parametrize("n", range(1, 9))
def test_descent_census_matches_permutation_walk(n, permutations_with_stats):
    rows = {descents: [0] * (comb(n, 2) + 1) for descents in gaussian_multinomials(n)}
    for _, length, descents in permutations_with_stats(n):
        rows[descents][length] += 1
    census = _descent_census(n)
    assert isinstance(census, tuple) and all(isinstance(row, tuple) for _, row in census)
    assert dict(census) == {descents: tuple(row) for descents, row in rows.items()}
    assert len(census) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(10, 13))
def test_descent_census_marginals(n):
    census = _descent_census(n)
    assert sum(sum(row) for _, row in census) == factorial(n)
    # summed over descent sets: the Mahonian numbers, coefficients of [n]_Y!
    mahonian = (1,)
    for i in range(1, n + 1):
        mahonian = poly_mul(mahonian, (1,) * i)
    assert tuple(map(sum, zip(*(row for _, row in census)))) == mahonian
    # summed over lengths: the Eulerian numbers A(n, k) by their recurrence
    eulerian = [1]
    for size in range(2, n + 1):
        eulerian = [
            (k + 1) * (eulerian[k] if k < len(eulerian) else 0)
            + (size - k) * (eulerian[k - 1] if k else 0)
            for k in range(size)
        ]
    descents = [0] * n
    for des, row in census:
        descents[len(des)] += sum(row)
    assert descents == eulerian


@pytest.mark.parametrize("n", range(1, 9))
def test_census_subtractions_counts_the_inversion(n, monkeypatch):
    # every subtraction of the inversion consumes one pair of coefficients
    pairs = []

    def counting_zip(first, second):
        out = list(zip(first, second))
        pairs.extend(p for p in out if isinstance(p[0], int))
        return out

    monkeypatch.setattr(igusa, "zip", counting_zip, raising=False)
    igusa._descent_census.__wrapped__(n)
    assert len(pairs) == census_subtractions(n) == (n - 1) * 2 ** (n - 1) // 2 * (comb(n, 2) + 1)


def test_form_equivalence_randomized():
    # Y = q^-1 as in the zeta functions, Y = 1 as in igusa_reduced, and Y = q^2
    rng = random.Random(20240)
    for y_qexp in (-1, 0, 2):
        for n in range(1, 6):
            for _ in range(20):
                x = [(rng.randrange(0, 40), rng.randrange(1, 12)) for _ in range(n)]
                d = data(x, y_qexp)
                subset = igusa_subset(d)
                assert rf_equal(subset, igusa_permutation(d))
                assert rf_equal(subset, igusa_middle(d))


@pytest.mark.parametrize("form", [igusa_subset, igusa_middle])
def test_subset_forms_make_quadratically_many_products(form, monkeypatch):
    # the chain walk keeps one partial per least chosen element, so n = 10
    # costs O(n^2) products rather than one per subset and factor
    calls = []
    mul = LaurentPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    n = 10
    form(data([(3 * j, j) for j in range(1, n + 1)]))
    assert 0 < len(calls) <= 2 * n * n


def test_topological_base_cases():
    z = igusa_topological((0,), (1,))
    assert z.equal(LinearFactorRational(1, (), ((1, 0),)))
    z = igusa_topological((4, 6), (3, 5))
    assert z.equal(LinearFactorRational(2, (), ((3, 4), (5, 6))))


def test_topological_leading_coefficient():
    rng = random.Random(5)
    for n in range(1, 5):
        a = tuple(rng.randrange(0, 9) for _ in range(n))
        b = tuple(rng.randrange(1, 7) for _ in range(n))
        z = igusa_topological(a, b)
        expected = Fraction(1)
        from math import factorial

        expected = Fraction(factorial(n))
        for bi in b:
            expected /= bi
        assert z.scaled_infinity_limit(n) == expected


def test_reduced_base_cases():
    z = igusa_reduced((3,))
    assert z.num == LaurentPoly.one()
    assert [(a, b) for a, b, _ in z.den] == [(0, 3)]
    z = igusa_reduced((3, 5))
    assert z.num == LaurentPoly({(0, 0): 1, (0, 3): 1})
    assert [(a, b) for a, b, _ in z.den] == [(0, 3), (0, 5)]


def test_reduced_published_numerator():
    z = igusa_reduced((7, 10, 12))
    assert z.num == LaurentPoly({(0, 0): 1, (0, 7): 2, (0, 10): 2, (0, 17): 1})


def test_reduced_residue_product_rule():
    from math import factorial

    rng = random.Random(9)
    for n in range(1, 5):
        b = tuple(rng.randrange(1, 9) for _ in range(n))
        order, lead, prod_b = rf_limit_t1(igusa_reduced(b))
        expected = Fraction(factorial(n))
        for bi in b:
            expected /= bi
        assert order == n
        assert Fraction(lead.num.constant_value(), prod_b) == expected


def test_numerator_shares_no_denominator_factor():
    # Experimental observation on the degree-3 production data: the numerator
    # is not divisible by any single denominator factor.  num is a multiple
    # of (1 - q^a t^b) iff the series of num / (1 - q^a t^b) vanishes on the
    # last b orders up to the t-degree of num.
    d = data([(11, 7), (20, 10), (27, 12)])
    num = igusa_subset(d).num
    t_degree = max(et for _, et in num.terms())
    for a, b in d.x:
        assert any(rf_series_coeffs(RationalFunction(num, [(a, b, 1)]), t_degree)[-b:])
