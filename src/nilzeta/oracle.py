"""Brute-force verification oracles: lattice enumeration, Smith-form
valuations, and congruence-index checks.

Finite-index sublattices of Z^dim are parametrized by Hermite normal forms:
upper-triangular integer matrices with diagonal (p^k_1, ..., p^k_dim) and
every above-diagonal entry reduced modulo the diagonal entry of its column.
A basis is the tuple of its rows, the form zlinalg.hnf_mod returns.  Column
j has j free entries, so hnf_count reads the number of index-p^k forms off
the x^k coefficient of prod_j 1/(1 - p^j x) without listing a diagonal;
hnf_enumerate lists the forms themselves, for the naive references.

Because the bracket of anything lands in the central coordinates and the
center occupies the trailing block of the basis, an HNF of the full ring
splits into independent blocks (U, R, T): U is an HNF on the non-central
coordinates, T one on the central coordinates, and the freely ranging
upper-right block R never enters the ideal condition.  count_ideals sums
over (U, T) pairs and multiplies by the number of R blocks; the literal
full-rank enumeration is kept alongside as count_ideals_naive and the two
are compared in the test suite.

Three exact reductions keep the (U, T) sum small.  Write kU, kT for the
index exponents of U and T, K for the largest index exponent wanted, and
r = K - kU for the tail budget of U.

- Residues.  A tail T of index p^kT contains p^kT Z^n, hence p^r Z^n for
  every kT <= r.  So "M is inside T", for M the lattice spanned by the
  brackets of U's rows, depends only on M + p^r Z^n.  The brackets are
  linear in U's entries, so only those entries modulo p^r matter,
  diagonal included.  Column j of an HNF with diagonal p^k_j has j free
  entries in range(p^k_j); modulo p^r each takes min(p^k_j, p^r) values,
  every one of them hit p^(k_j - r) times when k_j > r.
- Rows.  M + p^r Z^n is the sum of the lattices spanned by each row's
  brackets and p^r Z^n, and a row's residue involves only its own free
  entries.  So the residue tuples are never formed: a dynamic programme
  runs over the rows, with states the Hermite forms modulo p^r of the
  lattice spanned so far, each weighted by the number of residue prefixes
  (times the lift count) that reach it.  Each row's residues are tallied by
  the Hermite form of their span, and every state is joined with every
  span.  Inside one call each Hermite form, of a residue's brackets or of
  a join, is computed once per r, so the work is one bracket-vector set
  per row residue (enumeration_size counts them) plus dictionary lookups.
- Tails.  The tails of index p^kT that contain M + p^r Z^n correspond to
  the subgroups of index, equivalently of order, p^kT in the finite abelian
  group Z^n / (M + p^r Z^n).  Its type is read off the Smith valuations of
  the final state, and the subgroups are counted by Birkhoff's formula
  (subgroup_count; G. Birkhoff, Proc. London Math. Soc. 38 (1935);
  L. M. Butler, Mem. Amer. Math. Soc. 539 (1994); I. G. Macdonald,
  Symmetric Functions and Hall Polynomials, ch. II), so no tail lattice is
  enumerated.  Nothing is cached across calls.

Smith valuations and the states' Hermite forms modulo p^r come from the
one p-local elimination in zlinalg, which snf_valuations is imported from.
All randomized checks take an explicit seed; enumeration works over Z with
exact integers and explicit modular reduction, never over floats.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import comb
from typing import Iterator

from .combinat import (DIMS_BOUND, compositions_revlex, dims_exceed, e_count, f_count, gaussian_binomial,
                       gaussian_multinomial, lie_dims, require_prime)
from .igusa import census_subtractions
from .liering import LieStructure, b_matrix_direct, build_structure, specialize
from .rational import rf_series_coeffs
from .zlinalg import _smith, hnf_mod, snf_valuations
from .zetas import graded_ideal_zeta, ideal_zeta, numerical_data

DEFAULT_CEILING = 10**8


class CeilingExceededError(RuntimeError):
    """The enumeration size (see enumeration_size) exceeds the configured
    ceiling.  The estimate is that size, or the text of a lower bound where
    forming the size would itself be costly (see refuse_census)."""

    def __init__(self, estimate: int | str, ceiling: int):
        super().__init__(
            f"enumeration size {estimate} exceeds the ceiling {ceiling}"
        )
        self.estimate = estimate
        self.ceiling = ceiling


def hnf_enumerate(dim: int, p: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every index-p^k sublattice of Z^dim exactly once, as the row
    tuples of its Hermite normal form."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    for comp in compositions_revlex(k, dim)[::-1]:
        diag = [p**kj for kj in comp]
        for flat in iproduct(*(range(diag[j]) for j in range(dim) for _ in range(j))):
            rows = [[0] * dim for _ in range(dim)]
            pos = 0
            for j in range(dim):
                rows[j][j] = diag[j]
                for i in range(j):
                    rows[i][j] = flat[pos]
                    pos += 1
            yield tuple(tuple(r) for r in rows)


def hnf_count(dim: int, p: int, k: int) -> int:
    """Number of index-p^k sublattices of Z^dim: the x^k coefficient of
    prod_(j < dim) 1/(1 - p^j x), one factor at a time (module docstring)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if k < 0:
        return 0
    coeffs = [1] + [0] * k
    for j in range(dim):
        for s in range(1, k + 1):
            coeffs[s] += p**j * coeffs[s - 1]
    return coeffs[k]


def hnf_contains(matrix, v) -> bool:
    """Membership of v in the row lattice of an upper-triangular basis."""
    v = list(v)
    for i in range(len(matrix)):
        if v[i]:
            c, r = divmod(v[i], matrix[i][i])
            if r:
                return False
            row = matrix[i]
            for j in range(i, len(v)):
                v[j] -= c * row[j]
    return not any(v)


def _bracket_tables(brackets, d: int, e: int):
    """Per-generator sparse bracket actions: for generator g, a list of
    (coordinate j, center index k-1, sign) such that [b_g, u] picks up
    sign * u_j in central coordinate k."""
    tables: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    for ix, iy, k in brackets:
        tables[ix].append((e + iy, k - 1, 1))
        tables[e + iy].append((ix, k - 1, -1))
    return tables


def _bracket_vectors(tables, n: int, u) -> list[tuple[int, ...]]:
    """Nonzero central vectors [b_g, u] over all generators g."""
    out = []
    for entries in tables:
        if not entries:
            continue
        v = [0] * n
        hit = False
        for j, kk, sign in entries:
            if u[j]:
                v[kk] += sign * u[j]
                hit = True
        if hit and any(v):
            out.append(tuple(v))
    return out


def _u_diagonals(d: int, upto: int) -> list[tuple[int, ...]]:
    """Diagonal compositions of the non-central block with kU < upto."""
    return [c for ku in range(upto) for c in compositions_revlex(ku, d)[::-1]]


def enumeration_size(d: int, n: int, p: int, upto: int) -> int:
    """Work estimate of verify_dirichlet: the row residues the oracle visits,
    the sum over diagonals with kU < upto and rows i of
    prod_(j > i) min(p^k_j, p^(upto - kU)), plus the coefficient
    subtractions of the descent census behind the closed form
    (igusa.census_subtractions).

    The diagonals are not listed, since there are C(d + upto - 1, upto - 1)
    of them.  For each kU let W(x) = sum_k min(p^k, p^(upto - kU)) x^k, and
    give row i its L = d - 1 - i columns on the right.  Those columns, with
    exponents summing to s, contribute [x^s] W(x)^L in total, and the other
    d - L columns take the remaining kU - s in C(kU - s + d - 1 - L, d - 1 - L)
    ways.  So the row term is the sum over kU, L and s of
    C(kU - s + d - 1 - L, d - 1 - L) [x^s] W(x)^L."""
    rows = 0
    for ku in range(upto):
        weights = [p ** min(k, upto - ku) for k in range(ku + 1)]
        power = [1] + [0] * ku  # W(x)^L up to x^kU
        for left in range(d, 0, -1):  # left = d - L
            rows += sum(comb(ku - s + left - 1, left - 1) * c for s, c in enumerate(power))
            power = [sum(power[t] * weights[s - t] for t in range(s + 1)) for s in range(ku + 1)]
    return rows + census_subtractions(n)


def refuse_census(n: int, ceiling: int) -> None:
    """Raise CeilingExceededError when 2^(n - 2) <= census_subtractions(n)
    already exceeds the ceiling, without forming either."""
    if n - 2 >= ceiling.bit_length():
        raise CeilingExceededError(f"at least 2^{n - 2}", ceiling)


def _refuse_rows(d: int, p: int, upto: int, ceiling: int) -> None:
    """Raise CeilingExceededError when one diagonal's row residues already
    exceed the ceiling: putting all of kU = upto // 2 in the last column
    gives (d - 1) p^(upto // 2) + 1 of them.  The power is multiplied out
    only until it passes the ceiling."""
    if upto < 1:
        return
    rows = d - 1
    for _ in range(upto // 2):
        if rows >= ceiling:
            break
        rows *= p
    if rows >= ceiling:
        raise CeilingExceededError(f"at least {d - 1}*{p}^{upto // 2}+1", ceiling)


def _row_residue_sets(tables, n: int, comp, p: int, modulus: int) -> list[list[frozenset]]:
    """For each row i of an HNF with diagonal (p^k for k in comp), one entry
    per residue of the row's free entries modulo `modulus`: the set of the
    row's nonzero bracket vectors reduced modulo `modulus`."""
    dim = len(comp)
    diag = [p**ki for ki in comp]
    rows = []
    for i in range(dim):
        head = [0] * i + [diag[i] % modulus]
        sets = []
        for free in iproduct(*(range(min(diag[j], modulus)) for j in range(i + 1, dim))):
            reduced = (tuple(x % modulus for x in v)
                       for v in _bracket_vectors(tables, n, head + list(free)))
            sets.append(frozenset(v for v in reduced if any(v)))
        rows.append(sets)
    return rows


def subgroup_count(lam, k: int, p: int) -> int:
    """Number of subgroups of order p^k in an abelian p-group of type lam.

    Birkhoff's formula: the sum over partitions mu of k inside lam of
    prod_i p^(mu'_(i+1) (lam'_i - mu'_i)) [lam'_i - mu'_(i+1) choose mu'_i - mu'_(i+1)]_p,
    where ' is the conjugate partition.
    """
    conj = [sum(1 for part in lam if part > i) for i in range(max(lam, default=0))]

    def columns(i: int, after: int, left: int) -> int:
        # mu'_1 >= ... >= mu'_i >= after = mu'_(i+1), summing to `left`
        if i == 0:
            return int(left == 0)
        total = 0
        top = conj[i - 1]
        for a in range(after, min(top, left) + 1):
            if a * i > left:
                break
            binom = sum(c * p**j for j, c in enumerate(gaussian_binomial(top - after, a - after)))
            total += p ** (after * (top - a)) * binom * columns(i - 1, a, left - a)
        return total

    return columns(len(conj), 0, k)


def dirichlet_counts(struct: LieStructure, p: int, upto: int) -> tuple[list[int], list[int]]:
    """Ideal and graded-ideal counts for indices p^0 .. p^upto, by the row
    programme over Hermite states and Birkhoff's tail count (module docstring)."""
    require_prime(p)
    if upto < 0:
        raise ValueError("index bound must be nonnegative")
    d, n, e = struct.dims.d, struct.dims.n, struct.dims.e
    ideal = [hnf_count(d, p, k) for k in range(upto + 1)]
    graded = list(ideal)
    tables = _bracket_tables(struct.brackets, d, e)
    classes: Counter = Counter()

    @cache
    def hermite(r: int, vectors) -> tuple:
        return hnf_mod(vectors, n, p, r)

    for comp in _u_diagonals(d, upto):
        r = upto - sum(comp)
        lifts = p ** sum(j * max(kj - r, 0) for j, kj in enumerate(comp))
        states = {hermite(r, ()): lifts}
        for row in _row_residue_sets(tables, n, comp, p, p**r):
            spans = Counter(hermite(r, vectors) for vectors in row)
            joined: Counter = Counter()
            for state, weight in states.items():
                for span, count in spans.items():
                    joined[hermite(r, state + span)] += weight * count
            states = joined
        for state, weight in states.items():
            classes[(r, state)] += weight
    for (r, state), weight in classes.items():
        lam = [v for v in _smith(state, p, r) if v]
        for kt in range(1, r + 1):
            tails = weight * subgroup_count(lam, kt, p)
            graded[upto - r + kt] += tails
            ideal[upto - r + kt] += tails * p ** (d * kt)
    return ideal, graded


def count_ideals(struct: LieStructure, p: int, k: int) -> int:
    """Number of index-p^k ideals: sublattices closed under bracketing with
    every basis generator."""
    return dirichlet_counts(struct, p, k)[0][k]


def count_graded_ideals(struct: LieStructure, p: int, k: int) -> int:
    """Number of pairs (Lambda_1 in the non-central block, Lambda_2 in the
    center) with index product p^k and all brackets of Lambda_1 landing in
    Lambda_2."""
    return dirichlet_counts(struct, p, k)[1][k]


def count_ideals_naive(struct: LieStructure, p: int, k: int) -> int:
    """Literal enumeration over full-rank HNF bases; used to cross-check the
    block-decomposed fast path on small instances."""
    d, n, h = struct.dims.d, struct.dims.n, struct.dims.h
    tables = _bracket_tables(struct.brackets, d, struct.dims.e)
    count = 0
    for basis in hnf_enumerate(h, p, k):
        if all(
            hnf_contains(basis, (0,) * d + v)
            for row in basis
            for v in _bracket_vectors(tables, n, row[:d])
        ):
            count += 1
    return count


def count_graded_ideals_naive(struct: LieStructure, p: int, k: int) -> int:
    """Direct pair enumeration for the graded condition."""
    d, n = struct.dims.d, struct.dims.n
    tables = _bracket_tables(struct.brackets, d, struct.dims.e)
    count = 0
    for k1 in range(k + 1):
        for u in hnf_enumerate(d, p, k1):
            vectors = [v for row in u for v in _bracket_vectors(tables, n, row)]
            for t in hnf_enumerate(n, p, k - k1):
                if all(hnf_contains(t, v) for v in vectors):
                    count += 1
    return count


@dataclass(frozen=True)
class LatticeType:
    """Elementary-divisor type of a maximal sublattice: jump positions I in
    [n-1] with positive jump sizes r."""

    positions: tuple[int, ...]
    jumps: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.jumps):
            raise ValueError("positions and jumps must align")
        if any(r < 1 for r in self.jumps):
            raise ValueError("jumps must be positive")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be strictly increasing")

    def r_total(self) -> int:
        return sum(self.jumps)

    def w(self, n: int) -> int:
        return sum(r * (n - i) for i, r in zip(self.positions, self.jumps))

    def count_formula(self, n: int, p: int) -> int:
        """Number of maximal sublattices of this type:
        (n choose I)_{1/p} * p^(sum r_i * i * (n - i))."""
        multinomial = gaussian_multinomial(n, self.positions)
        value = sum(Fraction(c, p**j) for j, c in enumerate(multinomial))
        value *= p ** sum(r * i * (n - i) for i, r in zip(self.positions, self.jumps))
        if value.denominator != 1:
            raise AssertionError("type count is not an integer")
        return value.numerator


def type_from_valuations(vals) -> LatticeType:
    """Classify sorted elementary-divisor valuations (first must be 0)."""
    vals = list(vals)
    n = len(vals)
    if not vals or vals[0] != 0:
        raise ValueError("lattice is not maximal")
    positions = []
    jumps = []
    for i in range(n - 1):
        if vals[i + 1] != vals[i]:
            positions.append(i + 1)
            jumps.append(vals[i + 1] - vals[i])
    return LatticeType(positions=tuple(positions), jumps=tuple(jumps))


def maximal_lattice_census(n: int, p: int, rmax: int) -> dict[LatticeType, int]:
    """Census of maximal sublattices of Z^n by elementary-divisor type.

    Enumerates all sublattices of index up to p^((n-1)*rmax), keeps the
    maximal ones (smallest elementary divisor 1), classifies them, and
    reports every type with all jumps <= rmax whose total index lies inside
    the enumeration range.  Each reported count is checked against the
    closed-form type count.
    """
    if rmax < 1:
        raise ValueError("rmax must be positive")
    bound = (n - 1) * rmax
    counts: Counter = Counter()
    for k in range(bound + 1):
        for basis in hnf_enumerate(n, p, k):
            vals = snf_valuations(basis, p, k + 1)
            if vals[-1] > k:
                raise AssertionError("index-p^k basis produced a divisor beyond p^k")
            if vals[0] != 0:
                continue
            lattice_type = type_from_valuations(vals)
            if any(r > rmax for r in lattice_type.jumps):
                continue
            counts[lattice_type] += 1
    for lattice_type, count in counts.items():
        if count != lattice_type.count_formula(n, p):
            raise AssertionError(f"census mismatch for type {lattice_type}")
    return counts


def sample_antidiagonal(n: int, p: int, precision: int,
                        rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Rows of a coset representative: zero above the antidiagonal, units on
    it, entries taken modulo p^precision."""
    modulus = p**precision
    rows = []
    for i in range(n):
        row = [0] * n
        anti = n - 1 - i
        while True:
            unit = rng.randrange(1, modulus)
            if unit % p:
                break
        row[anti] = unit
        for j in range(anti + 1, n):
            row[j] = rng.randrange(modulus)
        rows.append(tuple(row))
    return tuple(rows)


def congruence_index_check(m: int, n: int, lattice_type: LatticeType, p: int,
                           seed: int) -> bool:
    """Check that the solution index of the scaled commutator congruences
    depends only on the lattice type, via Smith valuations.

    Block j is B at column j of a sampled antidiagonal representative times
    p^(sum of jumps at positions >= j).  Up to sign, the commutator matrices
    side by side split into the blocks side by side (B rows) and stacked (B^T
    rows, transposed); log_p of the index of {g : g C = 0 mod p^r}, summed
    over the two, must be the sum of r_i * (b_i - (n - i)), b_i as in
    numerical_data.  Raises ValueError unless n >= 2 and positions lie in [1, n - 1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    if any(not 1 <= pos < n for pos in lattice_type.positions):
        raise ValueError("positions must lie in [1, n - 1]")
    b = b_matrix_direct(build_structure(m, n))
    rng = random.Random(seed)
    r = lattice_type.r_total()
    rep = sample_antidiagonal(n, p, r + 2, rng)
    blocks = []
    for j in range(1, n + 1):
        scale = p ** sum(
            jump for pos, jump in zip(lattice_type.positions, lattice_type.jumps) if pos >= j
        )
        blocks.append(specialize(b, [scale * row[j - 1] for row in rep]))
    side_by_side = [sum(rows, []) for rows in zip(*blocks)]
    stacked = [row for block in blocks for row in block]
    # Valuations >= r add nothing to the index; the trivial type (r = 0) uses 1.
    log_index = sum(max(r - v, 0) for mat in (side_by_side, stacked)
                    for v in snf_valuations(mat, p, max(r, 1)))
    data = numerical_data(m, n)
    expected = sum(jump * (data.b[pos] - (n - pos))
                   for pos, jump in zip(lattice_type.positions, lattice_type.jumps))
    return log_index == expected


def rep_matrix_check(m: int, n: int, p: int, precision: int, seed: int) -> bool:
    """Check that the bracket matrix B has e unit divisors at a primitive
    point; [[0, -B^T], [B, 0]] has those of B and B^T and d - 2e zero ones."""
    require_prime(p)
    if precision < 1:
        raise ValueError("precision must be positive")
    b = b_matrix_direct(build_structure(m, n))
    rng = random.Random(seed)
    modulus = p**precision
    while True:
        y = [rng.randrange(modulus) for _ in range(n)]
        if any(v % p for v in y):
            break
    return snf_valuations(specialize(b, y), p, precision) == (0,) * b.cols


@dataclass(frozen=True)
class VerifyRecord:
    k: int
    formula: int
    oracle: int

    @property
    def match(self) -> bool:
        return self.formula == self.oracle


def verify_dirichlet(m: int, n: int, p: int, upto: int, graded: bool = False,
                     ceiling: int | None = None) -> list[VerifyRecord]:
    """Compare series coefficients of the closed form at q = p against the
    enumeration counts for indices p^0 .. p^upto.

    Raises ValueError unless p is prime, m, n are positive, the ceiling is
    nonnegative and d = e + f <= DIMS_BOUND, and CeilingExceededError when
    enumeration_size, or a cheap lower bound, exceeds the ceiling, before any work."""
    require_prime(p)
    if ceiling is None:
        ceiling = DEFAULT_CEILING
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if ceiling < 0:
        raise ValueError("the ceiling must be nonnegative")
    refuse_census(n, ceiling)
    if dims_exceed(m, n):
        raise ValueError(f"d = e + f exceeds {DIMS_BOUND}")
    _refuse_rows(e_count(m, n) + f_count(m, n), p, upto, ceiling)
    dims = lie_dims(m, n)
    estimate = enumeration_size(dims.d, dims.n, p, upto)
    if estimate > ceiling:
        raise CeilingExceededError(estimate, ceiling)
    zeta = graded_ideal_zeta(m, n) if graded else ideal_zeta(m, n)
    coeffs = rf_series_coeffs(zeta, upto)
    struct = build_structure(m, n)
    ideal_counts, graded_counts = dirichlet_counts(struct, p, upto)
    oracle_counts = graded_counts if graded else ideal_counts
    records = []
    for k in range(upto + 1):
        value = coeffs[k].value_at_q(p)
        if value.denominator != 1:
            raise AssertionError("series coefficient is not integral at q = p")
        records.append(VerifyRecord(k=k, formula=value.numerator, oracle=oracle_counts[k]))
    return records
