"""Enumeration oracles: HNF counts, ideal counts, census, SNF checks."""

import random
import subprocess
import sys
import time
from math import prod

import pytest

from nilzeta.combinat import PRIME_BOUND, compositions_revlex
from nilzeta.igusa import census_subtractions
from nilzeta import oracle
from nilzeta.liering import abelian_structure, build_structure, rank_mod
from nilzeta.oracle import (
    CeilingExceededError,
    LatticeType,
    _bracket_tables,
    _row_residue_sets,
    _u_diagonals,
    congruence_index_check,
    count_graded_ideals,
    count_graded_ideals_naive,
    count_ideals,
    count_ideals_naive,
    dirichlet_counts,
    enumeration_size,
    hnf_contains,
    hnf_count,
    hnf_enumerate,
    maximal_lattice_census,
    rep_matrix_check,
    sample_antidiagonal,
    snf_valuations,
    subgroup_count,
    type_from_valuations,
    verify_dirichlet,
)
from nilzeta.rational import rf_series_coeffs
from nilzeta.zlinalg import hnf_mod
from nilzeta.zetas import abelian_zeta, graded_ideal_zeta


def test_hnf_enumerate_small_counts():
    assert sum(1 for _ in hnf_enumerate(2, 2, 1)) == 3
    assert sum(1 for _ in hnf_enumerate(3, 2, 1)) == 7


def test_hnf_enumerate_distinct_and_canonical():
    seen = set()
    for basis in hnf_enumerate(3, 2, 3):
        assert basis[0][0] * basis[1][1] * basis[2][2] == 2**3
        for i in range(3):
            for j in range(3):
                if i > j:
                    assert basis[i][j] == 0
                elif i < j:
                    assert 0 <= basis[i][j] < basis[j][j]
        seen.add(basis)
    assert len(seen) == hnf_count(3, 2, 3)


@pytest.mark.parametrize("dim,p,kmax", [(1, 2, 4), (2, 2, 4), (3, 2, 3), (2, 3, 3), (4, 2, 2), (3, 3, 2)])
def test_hnf_enumerate_matches_count(dim, p, kmax):
    for k in range(-1, kmax + 1):
        assert sum(1 for _ in hnf_enumerate(dim, p, k)) == hnf_count(dim, p, k)


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("p", [2, 3])
def test_hnf_count_matches_abelian_series(dim, p):
    coeffs = rf_series_coeffs(abelian_zeta(dim), 4)
    for k in range(5):
        assert hnf_count(dim, p, k) == coeffs[k].value_at_q(p)


def test_hnf_count_lists_no_composition(monkeypatch):
    # (105, 2, 4) has C(108, 4) = 5,359,095 diagonal compositions
    def compositions(total, n):
        raise AssertionError("diagonal compositions listed")

    monkeypatch.setattr(oracle, "compositions_revlex", compositions)
    start = time.perf_counter()
    count = hnf_count(105, 2, 4)
    assert time.perf_counter() - start < 0.1
    assert count == rf_series_coeffs(abelian_zeta(105), 4)[4].value_at_q(2)


def test_hnf_contains():
    matrix = ((2, 1, 0), (0, 1, 0), (0, 0, 4))
    assert hnf_contains(matrix, (2, 1, 0))
    assert hnf_contains(matrix, (0, 0, 4))
    assert hnf_contains(matrix, (2, 2, 4))
    assert not hnf_contains(matrix, (1, 0, 0))
    assert not hnf_contains(matrix, (0, 0, 2))
    assert hnf_contains(matrix, (-2, -1, -4))


def test_count_ideals_examples():
    heis = build_structure(1, 1)
    assert count_ideals(heis, 2, 0) == 1
    assert count_ideals(heis, 2, 1) == 3
    grenham = build_structure(1, 2)
    assert count_ideals(grenham, 2, 1) == 7


def test_count_graded_examples():
    heis = build_structure(1, 1)
    assert count_graded_ideals(heis, 2, 0) == 1
    assert count_graded_ideals(heis, 2, 1) == 3


@pytest.mark.parametrize(
    "m,n,p,kmax",
    [(1, 1, 2, 3), (1, 1, 3, 2), (1, 2, 2, 2), (2, 2, 2, 2), (1, 3, 2, 1), (2, 1, 2, 3)],
)
def test_fast_counts_match_naive(m, n, p, kmax):
    struct = build_structure(m, n)
    for k in range(kmax + 1):
        assert count_ideals(struct, p, k) == count_ideals_naive(struct, p, k)


@pytest.mark.parametrize("m,n,p,kmax", [(1, 1, 2, 3), (1, 2, 2, 2), (1, 2, 3, 2), (2, 2, 2, 2)])
def test_fast_graded_match_naive(m, n, p, kmax):
    struct = build_structure(m, n)
    for k in range(kmax + 1):
        assert count_graded_ideals(struct, p, k) == count_graded_ideals_naive(struct, p, k)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_abelian_structure_counts_all_sublattices(m, n):
    struct = abelian_structure(m, n)
    h = struct.dims.h
    for p in (2, 3):
        for k in range(4):
            assert count_ideals(struct, p, k) == hnf_count(h, p, k)


# Ideal and graded counts of every `verify` case in the benchmark pool, plus
# two cases where a diagonal exponent exceeds the tail budget K - kU.  The
# lists were produced by the full (U, T) enumeration, so any change to the
# enumerator has to reproduce them exactly.
PINNED_COUNTS = {
    (2, 2, 2, 4): ([1, 31, 651, 11811, 200787], [1, 31, 651, 11811, 200787]),
    (2, 2, 3, 3): ([1, 121, 11011, 925771], [1, 121, 11011, 925771]),
    (1, 3, 2, 5): ([1, 15, 155, 1507, 13491, 116307], [1, 15, 155, 1402, 11916, 98247]),
    (1, 4, 2, 4): ([1, 31, 651, 12291, 215667], [1, 31, 651, 11826, 201252]),
    (3, 2, 2, 3): ([1, 127, 10795, 788035], [1, 127, 10795, 788035]),
    (1, 2, 2, 7): ([1, 7, 35, 179, 819, 3571, 15347, 63987], [1, 7, 35, 158, 672, 2773, 11273, 45465]),
    (1, 2, 3, 5): ([1, 13, 130, 1318, 12415, 114232], [1, 13, 130, 1214, 11063, 99984]),
    (1, 1, 7, 6): ([1, 8, 57, 449, 3193, 22401, 159258], [1, 8, 57, 401, 2809, 19665, 137658]),
    (1, 1, 2, 2): ([1, 3, 7], [1, 3, 7]),
    (1, 1, 2, 3): ([1, 3, 7, 19], [1, 3, 7, 16]),
    (2, 1, 2, 3): ([1, 3, 7, 19], [1, 3, 7, 16]),
}


@pytest.mark.parametrize("m,n,p,upto", sorted(PINNED_COUNTS))
def test_dirichlet_counts_pinned(m, n, p, upto):
    ideal, graded = PINNED_COUNTS[(m, n, p, upto)]
    assert dirichlet_counts(build_structure(m, n), p, upto) == (ideal, graded)


@pytest.mark.parametrize(
    "m,n,p,upto,rows",
    [(2, 2, 2, 4, 575), (1, 3, 2, 5, 631), (2, 2, 2, 5, 1591), (2, 3, 2, 3, 939)],
)
def test_enumeration_size_counts_row_residues(m, n, p, upto, rows):
    struct = build_structure(m, n)
    d = struct.dims.d
    tables = _bracket_tables(struct.brackets, d, struct.dims.e)
    visited = sum(
        len(row)
        for ku in range(upto)
        for comp in compositions_revlex(ku, d)
        for row in _row_residue_sets(tables, n, comp, p, p ** (upto - ku))
    )
    assert visited == rows == enumeration_size(d, n, p, upto) - census_subtractions(n)


def test_enumeration_size_row_sum_matches_diagonals():
    # the closed sum over W(x)^L against the row products of every diagonal
    for d in range(1, 9):
        for p in (2, 3, 5):
            for upto in range(7):
                rows = 0
                for comp in _u_diagonals(d, upto):
                    cap = p ** (upto - sum(comp))
                    rows += sum(prod(min(p**kj, cap) for kj in comp[i + 1:]) for i in range(d))
                assert enumeration_size(d, 2, p, upto) - census_subtractions(2) == rows


def test_enumeration_size_does_not_list_diagonals(monkeypatch):
    # (6, 6) has d = 714: listing the diagonals of kU <= 2 would hold
    # 255,970 tuples of 714 entries before the run could be refused
    monkeypatch.setattr(oracle, "_u_diagonals", None)
    with pytest.raises(CeilingExceededError) as err:
        verify_dirichlet(6, 6, 2, 3)
    assert err.value.estimate == 425170459 + census_subtractions(6)


@pytest.mark.parametrize("m,n,p,upto", [(1, 1, 2, 4), (1, 2, 2, 3), (1, 2, 3, 2), (2, 2, 2, 2)])
def test_row_residues_parametrise_u(m, n, p, upto):
    struct = build_structure(m, n)
    d = struct.dims.d
    tables = _bracket_tables(struct.brackets, d, struct.dims.e)
    tuples = 0
    lifted = 0
    residues = set()
    for ku in range(upto):
        r = upto - ku
        for comp in compositions_revlex(ku, d):
            size = 1
            for row in _row_residue_sets(tables, struct.dims.n, comp, p, p**r):
                size *= len(row)
            tuples += size
            lifted += size * p ** sum(j * max(kj - r, 0) for j, kj in enumerate(comp))
        # independently: distinct (diagonal, entries mod p^r) over all HNFs
        for basis in hnf_enumerate(d, p, ku):
            diagonal = tuple(basis[i][i] for i in range(d))
            residues.add((diagonal, tuple(tuple(x % p**r for x in row) for row in basis)))
    assert tuples == len(residues)
    assert lifted == sum(hnf_count(d, p, ku) for ku in range(upto))


def test_subgroup_count_matches_tail_containment():
    rng = random.Random(20261018)
    tails = {}
    for _ in range(240):
        n, p, r = rng.randrange(1, 4), rng.choice((2, 3)), rng.randrange(1, 4)
        vectors = [tuple(rng.randrange(p**r) * rng.randrange(2) for _ in range(n))
                   for _ in range(rng.randrange(4))]
        generators = vectors + [tuple(p**r * (i == j) for j in range(n)) for i in range(n)]
        lam = [v for v in snf_valuations(hnf_mod(vectors, n, p, r), p, r) if v]
        for kt in range(1, r + 1):
            if (n, p, kt) not in tails:
                tails[(n, p, kt)] = list(hnf_enumerate(n, p, kt))
            containing = sum(
                all(hnf_contains(t, v) for v in generators) for t in tails[(n, p, kt)]
            )
            assert subgroup_count(lam, kt, p) == containing


def test_subgroup_count_examples():
    assert subgroup_count([], 0, 5) == 1
    assert subgroup_count([], 1, 5) == 0
    assert subgroup_count([1, 1], 1, 3) == 4
    assert subgroup_count([2], 1, 3) == 1
    # Z/p^2 + Z/p: p + 1 subgroups of order p and p + 1 of order p^2
    assert subgroup_count([2, 1], 1, 2) == subgroup_count([2, 1], 2, 2) == 3


@pytest.mark.parametrize("q", [4, 6, 9, 1, PRIME_BOUND])
def test_oracle_refuses_non_prime(q):
    struct = build_structure(1, 1)
    with pytest.raises(ValueError):
        verify_dirichlet(1, 1, q, 2 if q < 10 else 0)
    with pytest.raises(ValueError):
        dirichlet_counts(struct, q, 2 if q < 10 else 0)
    with pytest.raises(ValueError):
        count_ideals(struct, q, 1 if q < 10 else 0)
    with pytest.raises(ValueError):
        count_graded_ideals(struct, q, 1 if q < 10 else 0)


def test_oracle_refuses_negative_index():
    struct = build_structure(1, 2)
    for count in (dirichlet_counts, count_ideals, count_graded_ideals):
        with pytest.raises(ValueError, match="nonnegative"):
            count(struct, 2, -1)


def test_import_leaves_process_pool_unloaded():
    code = "import sys, nilzeta; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_verify_dirichlet_grenham():
    records = verify_dirichlet(1, 2, 2, 4)
    assert [(r.k, r.oracle) for r in records] == [(0, 1), (1, 7), (2, 35), (3, 179), (4, 819)]
    assert all(r.match for r in records)


def test_verify_dirichlet_graded():
    records = verify_dirichlet(1, 2, 3, 3, graded=True)
    assert all(r.match for r in records)
    coeffs = rf_series_coeffs(graded_ideal_zeta(1, 2), 3)
    assert [r.formula for r in records] == [coeffs[k].value_at_q(3) for k in range(4)]


def test_verify_dirichlet_ceiling():
    with pytest.raises(CeilingExceededError) as err:
        verify_dirichlet(2, 3, 2, 9, ceiling=10**6)
    # 2344543 row residues and 2 * 2 * 4 census subtractions
    assert err.value.estimate == 2344559
    with pytest.raises(ValueError, match="nonnegative"):
        verify_dirichlet(1, 1, 2, 1, ceiling=-1)


# (n, upto) -> enumeration_size of verify(1, n, 2, upto): the row residues
# are few, the census subtractions are over the default ceiling
CENSUS_REFUSALS = {(18, 1): 171573267, (20, 2): 951321248}


@pytest.mark.parametrize("n,upto", sorted(CENSUS_REFUSALS))
def test_verify_dirichlet_ceiling_counts_census(n, upto):
    # the oracle is small here, but the closed form's census inverts over
    # the 2^(n - 1) subsets of [n - 1]
    with pytest.raises(CeilingExceededError) as err:
        verify_dirichlet(1, n, 2, upto)
    estimate = CENSUS_REFUSALS[(n, upto)]
    assert err.value.estimate == estimate == enumeration_size(n + 1, n, 2, upto)
    assert census_subtractions(n) > 10**8 > estimate - census_subtractions(n)


def test_snf_valuations_examples():
    assert snf_valuations([[1, 0], [0, 1]], 2, 5) == (0, 0)
    assert snf_valuations([[1, 0, 0], [0, 2, 0], [0, 0, 4]], 2, 5) == (0, 1, 2)
    # border matrix at a primitive vector: rank 2 with unit divisors, and one
    # zero divisor, which reads as the precision
    assert snf_valuations([[0, -1, 0], [1, 0, 0], [0, 0, 0]], 3, 5) == (0, 0, 5)


def test_snf_valuations_needs_combination():
    # entries with no pivot dividing its row/column force gcd steps
    vals = snf_valuations([[4, 6], [6, 4]], 2, 5)
    assert vals == (1, 1)  # divisors 2 and 10 up to units; none is zero


@pytest.mark.parametrize("p", [1, 0, -3])
def test_snf_valuations_rejects_p_below_two(p):
    with pytest.raises(ValueError):
        snf_valuations([[2]], p, 1)


def test_snf_valuations_rectangular():
    vals = snf_valuations([[2, 0, 0, 4], [0, 3, 0, 6]], 2, 3)
    assert vals == (0, 1)  # no zero divisor: no entry equals the precision


def test_lattice_type_helpers():
    t = type_from_valuations((0, 1, 3))
    assert t == LatticeType(positions=(1, 2), jumps=(1, 2))
    assert t.r_total() == 3
    assert t.w(3) == 1 * 2 + 2 * 1
    with pytest.raises(ValueError):
        type_from_valuations((1, 2))
    with pytest.raises(ValueError):
        LatticeType(positions=(1,), jumps=(0,))


def test_census_examples():
    counts = maximal_lattice_census(2, 2, 1)
    assert counts[LatticeType((1,), (1,))] == 3
    counts = maximal_lattice_census(3, 2, 1)
    assert counts[LatticeType((2,), (1,))] == 7
    counts = maximal_lattice_census(2, 3, 2)
    assert counts[LatticeType((1,), (2,))] == 12


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_census_full_grid(n, p):
    # the census itself asserts every reported count against the closed form
    counts = maximal_lattice_census(n, p, 2)
    assert counts[LatticeType((), ())] == 1
    assert all(all(r <= 2 for r in t.jumps) for t in counts)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3)])
def test_census_totals_against_direct_maximality(n, p):
    rmax = 2
    counts = maximal_lattice_census(n, p, rmax)
    bound = (n - 1) * rmax
    by_w: dict[int, int] = {}
    for t, c in counts.items():
        by_w[t.w(n)] = by_w.get(t.w(n), 0) + c
    for k in range(bound + 1):
        direct = 0
        truncated = 0
        for basis in hnf_enumerate(n, p, k):
            vals = snf_valuations(basis, p, k + 1)
            if vals[0] != 0:
                continue
            direct += 1
            if all(r <= rmax for r in type_from_valuations(vals).jumps):
                truncated += 1
        assert by_w.get(k, 0) == truncated
        if k <= rmax:
            # no truncation can occur below the single-jump bound
            assert direct == truncated


def test_antidiagonal_shape():
    rng = random.Random(99)
    rep = sample_antidiagonal(4, 3, 3, rng)
    for i in range(4):
        anti = 4 - 1 - i
        assert rep[i][anti] % 3 != 0
        for j in range(anti):
            assert rep[i][j] == 0


def test_congruence_trivial_type():
    assert congruence_index_check(1, 2, LatticeType((), ()), 2, seed=5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_congruence_grenham_single_jump(p):
    # two linear conditions mod p: index p^2 = formula value
    for seed in range(10):
        assert congruence_index_check(1, 2, LatticeType((1,), (1,)), p, seed)


def test_congruence_23_full_type():
    for seed in range(100):
        assert congruence_index_check(2, 3, LatticeType((1, 2), (1, 1)), 2, seed)


def test_congruence_deterministic_in_seed():
    t = LatticeType((1,), (2,))
    assert congruence_index_check(2, 2, t, 3, 42) == congruence_index_check(2, 2, t, 3, 42)


def test_rep_matrix_check_examples():
    for seed in range(20):
        assert rep_matrix_check(1, 1, 2, 1, seed)
    for seed in range(50):
        assert rep_matrix_check(1, 2, 3, 2, seed)
    for seed in range(50):
        assert rep_matrix_check(2, 3, 2, 3, seed)


@pytest.mark.parametrize("p", [4, 6, 9])
def test_smith_checks_refuse_non_prime(p):
    # composite p used to give an answer: rank_mod([[1]], 6) was 1
    with pytest.raises(ValueError):
        rank_mod([[1]], p)
    with pytest.raises(ValueError):
        congruence_index_check(2, 3, LatticeType((1,), (1,)), p, 1)
    with pytest.raises(ValueError):
        rep_matrix_check(1, 2, p, 2, 1)


def test_smith_checks_refuse_p_one():
    # rep_matrix_check looped forever looking for a y with a unit entry mod 1
    with pytest.raises(ValueError):
        rep_matrix_check(1, 2, 1, 2, 1)
    with pytest.raises(ValueError):
        rank_mod([[1]], 1)


def test_ideal_series_matches_formula_more_pairs():
    for m, n, p, upto in [(2, 1, 3, 4), (2, 2, 2, 3), (1, 3, 2, 2)]:
        records = verify_dirichlet(m, n, p, upto)
        assert all(r.match for r in records)
