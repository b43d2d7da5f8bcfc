"""Permutation statistics, Gaussian binomials, compositions, dimension data."""

import itertools
from math import comb

import pytest

from nilzeta.combinat import (
    compositions_revlex,
    e_count,
    f_count,
    gaussian_binomial,
    gaussian_multinomial,
    gaussian_multinomials,
    lie_dims,
    poly_mul,
)


def test_stats_n1(permutations_with_stats):
    assert list(permutations_with_stats(1)) == [((1,), 0, ())]


def test_stats_n2(permutations_with_stats):
    assert list(permutations_with_stats(2)) == [
        ((1, 2), 0, ()),
        ((2, 1), 1, (1,)),
    ]


def test_stats_longest_element(permutations_with_stats):
    stats = {w: (length, des) for w, length, des in permutations_with_stats(3)}
    assert stats[(3, 2, 1)] == (3, (1, 2))
    assert stats[(2, 3, 1)] == (2, (2,))
    assert stats[(3, 1, 2)] == (2, (1,))


def test_each_permutation_once(permutations_with_stats):
    seen = [w for w, _, _ in permutations_with_stats(4)]
    assert len(seen) == 24
    assert len(set(seen)) == 24


@pytest.mark.parametrize("n", range(1, 8))
def test_poincare_polynomial(n, permutations_with_stats):
    counts = {}
    for _, length, _ in permutations_with_stats(n):
        counts[length] = counts.get(length, 0) + 1
    poly = tuple(counts.get(k, 0) for k in range(max(counts) + 1))
    expected = (1,)
    for i in range(1, n + 1):
        expected = poly_mul(expected, (1,) * i)
    assert poly == expected


def test_gaussian_binomial_base_cases():
    assert gaussian_binomial(5, 0) == (1,)
    assert gaussian_binomial(2, 1) == (1, 1)
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)


def test_gaussian_binomial_rejects():
    with pytest.raises(ValueError):
        gaussian_binomial(1, 2)


@pytest.mark.parametrize("a", range(0, 9))
def test_gaussian_binomial_at_one(a):
    for b in range(a + 1):
        assert sum(gaussian_binomial(a, b)) == comb(a, b)


@pytest.mark.parametrize("n", range(1, 8))
def test_gaussian_multinomials_table(n):
    table = gaussian_multinomials(n)
    assert len(table) == 2 ** (n - 1)
    for subset, product in table.items():
        assert product == gaussian_multinomial(n, subset)


def test_gaussian_multinomial():
    assert gaussian_multinomial(3, ()) == (1,)
    # (3 choose {1,2}) = (3 choose 2)(2 choose 1) = (1+Y+Y^2)(1+Y)
    assert gaussian_multinomial(3, (1, 2)) == poly_mul((1, 1, 1), (1, 1))
    assert gaussian_multinomial(2, (1,)) == (1, 1)
    with pytest.raises(ValueError):
        gaussian_multinomial(2, (3,))


def test_compositions_revlex_order():
    assert compositions_revlex(1, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert compositions_revlex(2, 3) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert compositions_revlex(0, 4) == [(0, 0, 0, 0)]
    assert all(compositions_revlex(-1, n) == [] for n in range(1, 4))


@pytest.mark.parametrize("n", range(1, 7))
def test_compositions_revlex_lists_every_composition_in_decreasing_order(n):
    for total in range(7):
        expected = sorted((c for c in itertools.product(range(total + 1), repeat=n) if sum(c) == total),
                          reverse=True)
        assert compositions_revlex(total, n) == expected


def test_compositions_revlex_runs_past_the_recursion_limit():
    comps = compositions_revlex(1, 1200)
    assert len(comps) == 1200
    assert comps == sorted(comps, reverse=True)
    assert comps[0] == (1,) + (0,) * 1199 and comps[-1] == (0,) * 1199 + (1,)
    assert compositions_revlex(0, 5000) == [(0,) * 5000]


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_composition_counts_match_dims(m, n):
    assert len(compositions_revlex(m - 1, n)) == e_count(m, n)
    assert len(compositions_revlex(m, n)) == f_count(m, n)


def test_lie_dims_values():
    d23 = lie_dims(2, 3)
    assert (d23.e, d23.f, d23.d, d23.h) == (3, 6, 9, 12)
    for m in (1, 2, 3, 5):
        dm1 = lie_dims(m, 1)
        assert (dm1.e, dm1.f, dm1.d, dm1.h) == (1, 1, 2, 3)
    d12 = lie_dims(1, 2)
    assert (d12.e, d12.f, d12.d, d12.h) == (1, 2, 3, 5)


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("n", range(2, 11))
def test_binomial_identities_grid(m, n):
    dims = lie_dims(m, n)  # constructor asserts the identities
    assert sum(e_count(j, n - 1) for j in range(1, m + 1)) == dims.e
    assert dims.e + f_count(m, n - 1) == dims.f
    assert sum(e_count(m, j) for j in range(1, n + 1)) == dims.f


def test_lie_dims_rejects_nonpositive():
    with pytest.raises(ValueError):
        lie_dims(0, 1)
