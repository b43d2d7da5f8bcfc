"""The p-local elimination kernel, against routes that share no code with it:
determinantal divisors for the Smith valuations, from exact integer minors
and, for matrices too large for those, from Euclid's row and column
operations over Z; and brute-force additive closures modulo p^r for the
Hermite forms."""

import random
from itertools import combinations, product
from math import gcd

import pytest

from nilzeta.liering import bracket_matrix, rank_mod, specialize
from nilzeta.oracle import LatticeType, congruence_index_check
from nilzeta.zlinalg import _step, hnf_mod, snf_valuations


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


def _minor_gcds(mat):
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


def _determinantal_divisors(mat):
    """D_k = d_1 ... d_k, for k = 1 .. min(rows, cols), from the elementary
    divisors d_i over Z: pivot on an entry of least absolute value, reduce
    its row and column by division with remainder, and start again while a
    remainder or an entry that the pivot does not divide is left."""
    a = [list(row) for row in mat]
    rows, cols = len(a), len(a[0])
    out, d = [], 1
    for t in range(min(rows, cols)):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
            if not nonzero:
                return out + [0] * (min(rows, cols) - t)
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            x = a[t][t]
            for i in range(t + 1, rows):
                c = a[i][t] // x
                a[i] = [y - c * z for y, z in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                c = a[t][j] // x
                for row in a:
                    row[j] -= c * row[t]
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                continue
            rest = [i for i in range(t + 1, rows) if any(y % x for y in a[i][t + 1:])]
            if not rest:
                break
            a[t] = [y + z for y, z in zip(a[t], a[rest[0]])]
        d *= abs(x)
        out.append(d)
    return out


def test_determinantal_divisors_are_the_gcds_of_minors():
    rng = random.Random(8900)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        mat = _random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
        assert _determinantal_divisors(mat) == _minor_gcds(mat)


def _random_matrix(rng, p, rows, cols):
    return [[rng.randrange(-9, 10) * p ** rng.choice((0, 0, 1, 2)) for _ in range(cols)]
            for _ in range(rows)]


def _assert_matches_determinantal_divisors(mat, p):
    """snf_valuations of `mat`, given as sequence rows and as dict rows, at
    every precision from 1 up to past its largest nonzero divisor's valuation
    (at least 3), against the valuations v_p(D_k / D_(k-1))."""
    true, below = [], 0
    for dk in _determinantal_divisors(mat):
        if dk:
            true.append(_vp(dk, p) - below)
            below = _vp(dk, p)
        else:
            true.append(None)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
    for precision in range(1, max(3, 2 + max((v for v in true if v is not None), default=0))):
        vals = tuple(precision if v is None else min(v, precision) for v in true)
        assert snf_valuations(mat, p, precision) == vals
        # dict rows do not give the width, so only the nonzero divisors read
        assert snf_valuations(sparse, p, precision) == tuple(v for v in vals if v < precision)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_valuations_match_determinantal_divisors(p):
    rng = random.Random(9000 + p)
    for _ in range(60):
        _assert_matches_determinantal_divisors(
            _random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 6)), p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_valuations_of_tall_matrices(p):
    # more rows than columns: eliminated along the columns
    rng = random.Random(9100 + p)
    for _ in range(40):
        cols = rng.randrange(1, 4)
        _assert_matches_determinantal_divisors(
            _random_matrix(rng, p, rng.randrange(cols + 1, 7), cols), p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_valuations_with_zero_rows_and_columns(p):
    # the zero rows and columns are dropped, and their slots still read as
    # zero divisors
    rng = random.Random(9200 + p)
    for _ in range(40):
        mat = _random_matrix(rng, p, rng.randrange(1, 4), rng.randrange(1, 4))
        for _ in range(rng.randrange(1, 3)):
            mat.insert(rng.randrange(len(mat) + 1), [0] * len(mat[0]))
        for _ in range(rng.randrange(1, 3)):
            j = rng.randrange(len(mat[0]) + 1)
            for row in mat:
                row.insert(j, 0)
        _assert_matches_determinantal_divisors(mat, p)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 5), (4, 3), (6, 2)])
def test_snf_valuations_of_zero_matrices(rows, cols):
    assert snf_valuations([[0] * cols for _ in range(rows)], 3, 2) == (2,) * min(rows, cols)
    assert snf_valuations([[9] * cols for _ in range(rows)], 3, 2) == (2,) * min(rows, cols)


def test_snf_valuations_of_empty_matrix():
    assert snf_valuations([], 2, 1) == ()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_valuations_invariant_under_transposition(p):
    rng = random.Random(9300 + p)
    for _ in range(60):
        mat = _random_matrix(rng, p, rng.randrange(1, 8), rng.randrange(1, 8))
        precision = rng.randrange(1, 5)
        assert snf_valuations(mat, p, precision) == snf_valuations(
            [list(col) for col in zip(*mat)], p, precision)


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


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 5)])
def test_snf_valuations_of_bracket_blocks(m, n, p):
    # B evaluated at n scaled points, its blocks side by side and stacked,
    # as the congruence check eliminates them
    b = bracket_matrix(m, n)
    rng = random.Random(100 * m + 10 * n + p)
    for _ in range(2):
        blocks = [specialize(b, [p ** rng.randrange(3) * rng.randrange(1, p**3) for _ in range(n)])
                  for _ in range(n)]
        dense = [[[row.get(j, 0) for j in range(b.cols)] for row in block] for block in blocks]
        _assert_matches_determinantal_divisors([sum(rows, []) for rows in zip(*dense)], p)
        _assert_matches_determinantal_divisors([row for block in dense for row in block], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_valuations_when_p_divides_every_entry(p):
    # no entry is a unit, so every pivot search runs above floor 0
    rng = random.Random(9400 + p)
    for _ in range(40):
        mat = [[p * x for x in row] for row in _random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))]
        _assert_matches_determinantal_divisors(mat, p)


def _pulls(rows):
    """The (index, column, value) triples of `rows`, and the list of those pulled."""
    pulled = []

    def entries():
        for i, row in enumerate(rows):
            for j, x in row.items():
                pulled.append((i, j))
                yield i, j, x

    return entries(), pulled


@pytest.mark.parametrize("floor,expected", [(1, [(0, 0), (0, 1)]), (0, [(0, 0), (0, 1), (1, 0), (1, 1)])])
def test_step_stops_at_the_first_entry_on_the_floor(floor, expected):
    rows = [{0: 4, 1: 2}, {0: 6, 1: 8}]
    entries, pulled = _pulls(rows)
    v, pivot = _step(rows, entries, 2, 16, floor)
    # below the floor nothing can come, so the first entry of valuation 1
    # ends the search; at floor 0 no entry is a unit, so all are read
    assert pulled == expected
    assert (v, pivot) == (1, {0: 4, 1: 2})
    # 8 - 4 * 2 is zero and leaves the row; 6 - 4 * 4 is 6 modulo 16
    assert rows == [{0: 6}]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m,n", [(2, 12), (7, 4)])
def test_congruence_index_check_on_larger_rings(m, n, p):
    types = [LatticeType((i,), (1,)) for i in range(1, n)]
    types.append(LatticeType(tuple(range(1, n)), tuple(1 + i % 2 for i in range(1, n))))
    for seed, lattice_type in enumerate(types):
        assert congruence_index_check(m, n, lattice_type, p, seed)


def test_kernel_rejects_rows_of_unequal_length():
    # zip used to truncate the longer rows: (0, 1) and rank 2
    with pytest.raises(ValueError, match="unequal length"):
        snf_valuations([[1, 2], [3]], 5, 1)
    with pytest.raises(ValueError, match="unequal length"):
        rank_mod([[1, 0], [0, 1, 1]], 2)


@pytest.mark.parametrize("vectors", [[(1, 2, 3)], [(1,)], [(1, 0), (1,)]])
def test_hnf_mod_rejects_vectors_not_of_length_n(vectors):
    # ((1, 2, 3), (0, 4)) used to come back for the first, IndexError for the second
    with pytest.raises(ValueError):
        hnf_mod(vectors, 2, 2, 2)
