"""The p-local elimination kernel, against routes that share no code with it:
determinantal divisors from exact integer minors for the Smith valuations,
and brute-force additive closures modulo p^r for the Hermite forms."""

import random
from itertools import combinations, product
from math import gcd

import pytest

from nilzeta.zlinalg import hnf_mod, snf_valuations


def _det(mat):
    """Exact integer determinant by Laplace expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j, a in enumerate(mat[0])
        if a
    )


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _determinantal_divisors(mat):
    """D_k = gcd of all k x k minors, for k = 1 .. min(rows, cols)."""
    rows, cols = len(mat), len(mat[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, _det([[mat[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_valuations_match_determinantal_divisors(p):
    rng = random.Random(9000 + p)
    for _ in range(60):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) * p ** rng.choice((0, 0, 1, 2)) for _ in range(cols)]
               for _ in range(rows)]
        divisors = _determinantal_divisors(mat)
        # above any true valuation: a nonzero divisor's valuation is at most
        # that of the largest nonzero D_k
        precision = 1 + max((_vp(dk, p) for dk in divisors if dk), default=0)
        vals = snf_valuations(mat, p, precision)
        assert len(vals) == len(divisors)
        for k, dk in enumerate(divisors, start=1):
            if dk:
                assert sum(vals[:k]) == _vp(dk, p)
                assert vals[k - 1] < precision
            else:
                assert vals[k - 1] == precision


def _closure(vectors, n, modulus):
    """Every residue modulo `modulus` of the additive span of `vectors`."""
    seen = {(0,) * n}
    frontier = list(seen)
    gens = [tuple(x % modulus for x in v) for v in vectors]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple((x + y) % modulus for x, y in zip(a, g))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_hnf_mod_against_brute_force(p, r):
    rng = random.Random(100 * p + r)
    modulus = p**r
    for _ in range(40):
        n = rng.randrange(1, 4)
        vectors = [tuple(rng.randrange(-2 * modulus, 2 * modulus) for _ in range(n))
                   for _ in range(rng.randrange(0, 4))]
        basis = hnf_mod(vectors, n, p, r)
        assert len(basis) == n
        diag = [basis[j][j] for j in range(n)]
        assert all(d in [p**k for k in range(r + 1)] for d in diag)
        for i, j in product(range(n), repeat=2):
            if i > j:
                assert basis[i][j] == 0
            elif i < j:
                assert 0 <= basis[i][j] < diag[j]
        span = _closure(vectors, n, modulus)
        assert _closure(basis, n, modulus) == span
        # the rows lie in the lattice and have its index, so they span it
        index = 1
        for d in diag:
            index *= d
        assert index * len(span) == modulus**n


@pytest.mark.parametrize("p", [1, 4, 6, 9])
def test_kernel_rejects_non_prime(p):
    with pytest.raises(ValueError):
        snf_valuations([[1]], p, 1)
    with pytest.raises(ValueError):
        hnf_mod([(1,)], 1, p, 1)


@pytest.mark.parametrize("precision", [0, -1])
def test_kernel_rejects_precision_below_one(precision):
    with pytest.raises(ValueError):
        snf_valuations([[1]], 2, precision)
    with pytest.raises(ValueError):
        hnf_mod([(1,)], 1, 2, precision)
