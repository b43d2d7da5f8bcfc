"""Brute-force verification oracles: lattice enumeration, Smith-form
valuations, and congruence-index checks.

Finite-index sublattices of Z^dim are parametrized by Hermite normal forms:
upper-triangular integer matrices with diagonal (p^k_1, ..., p^k_dim) and
every above-diagonal entry reduced modulo the diagonal entry of its column.
Ideal counting tests the bracket condition [w, row] in Lambda literally,
with membership decided by reduction against the HNF rows.

Because the bracket of anything lands in the central coordinates and the
center occupies the trailing block of the basis, an HNF of the full ring
splits into independent blocks (U, R, T): U is an HNF on the non-central
coordinates, T one on the central coordinates, and the freely ranging
upper-right block R never enters the ideal condition.  count_ideals sums
over (U, T) pairs and multiplies by the number of R blocks; the literal
full-rank enumeration is kept alongside as count_ideals_naive and the two
are compared in the test suite.

All randomized checks take an explicit seed; enumeration works over Z with
exact integers and explicit modular reduction, never over floats.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator

from .combinat import compositions_revlex, e_count, gaussian_multinomial, lie_dims
from .liering import LieStructure, build_structure, full_commutator_matrix, specialize
from .rational import rf_series_coeffs
from .zetas import graded_ideal_zeta, ideal_zeta

DEFAULT_CEILING = 10**8


class CeilingExceededError(RuntimeError):
    """The estimated enumeration size exceeds the configured ceiling."""

    def __init__(self, estimate: int, ceiling: int):
        super().__init__(
            f"estimated enumeration size {estimate} exceeds the ceiling {ceiling}"
        )
        self.estimate = estimate
        self.ceiling = ceiling


@dataclass(frozen=True)
class HnfBasis:
    """Row basis of a finite-index sublattice of Z^dim, in Hermite form."""

    dim: int
    matrix: tuple[tuple[int, ...], ...]

    def index_exponent(self, p: int) -> int:
        if p < 2:
            raise ValueError("p must be at least 2")
        k = 0
        det = 1
        for i in range(self.dim):
            det *= self.matrix[i][i]
        while det % p == 0:
            det //= p
            k += 1
        if det != 1:
            raise ValueError("determinant is not a power of p")
        return k


def _hnf_rows(comp, p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every HNF basis with diagonal (p^k for k in comp), as row tuples."""
    dim = len(comp)
    diag = [p**ki for ki in comp]
    column_choices = [range(diag[j]) for j in range(dim) for _ in range(j)]
    for flat in iproduct(*column_choices):
        rows = [[0] * dim for _ in range(dim)]
        pos = 0
        for j in range(dim):
            rows[j][j] = diag[j]
            for i in range(j):
                rows[i][j] = flat[pos]
                pos += 1
        yield tuple(tuple(r) for r in rows)


def hnf_enumerate(dim: int, p: int, k: int) -> Iterator[HnfBasis]:
    """Yield every index-p^k sublattice of Z^dim exactly once."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    for comp in compositions_revlex(k, dim)[::-1]:
        for rows in _hnf_rows(comp, p):
            yield HnfBasis(dim=dim, matrix=rows)


def hnf_count(dim: int, p: int, k: int) -> int:
    """Number of index-p^k sublattices of Z^dim, by the same parametrization."""
    total = 0
    for comp in compositions_revlex(k, dim):
        size = 1
        for j, kj in enumerate(comp):
            size *= p ** (kj * j)
        total += size
    return total


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


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def _lattice_basis(vectors, n: int) -> list[tuple[int, ...]]:
    """Triangular basis of the lattice spanned by the given row vectors."""
    pivots: dict[int, list[int]] = {}
    for vec in vectors:
        v = list(vec)
        for j in range(n):
            if not v[j]:
                continue
            if j not in pivots:
                pivots[j] = v
                break
            pivot = pivots[j]
            if v[j] % pivot[j] == 0:
                c = v[j] // pivot[j]
                v = [a - c * b for a, b in zip(v, pivot)]
            else:
                g, x, y = _extended_gcd(pivot[j], v[j])
                combined = [x * a + y * b for a, b in zip(pivot, v)]
                reduced = [
                    (pivot[j] // g) * b - (v[j] // g) * a for a, b in zip(pivot, v)
                ]
                pivots[j] = combined
                v = reduced
    return [tuple(pivots[j]) for j in sorted(pivots)]


def _counts_for_diagonals(bracket_triples, d: int, n: int, e: int, p: int, big_k: int,
                          diagonals) -> tuple[list[int], list[int]]:
    """Materialized part of the (U, T) sum for the given U diagonals.

    Returns partial ideal and graded count vectors covering tail indices
    kT >= 1; the tail-free term is closed-form and added by the caller.
    """
    struct_tables = _bracket_tables(bracket_triples, d, e)
    tails: dict[int, list] = {
        kt: [t.matrix for t in hnf_enumerate(n, p, kt)] for kt in range(1, big_k + 1)
    }
    ideal = [0] * (big_k + 1)
    graded = [0] * (big_k + 1)
    for comp in diagonals:
        ku = sum(comp)
        if ku >= big_k:
            continue
        for rows in _hnf_rows(comp, p):
            vectors = [v for row in rows for v in _bracket_vectors(struct_tables, n, row)]
            basis = _lattice_basis(vectors, n)
            for kt in range(1, big_k - ku + 1):
                weight = p ** (d * kt)
                for tmat in tails[kt]:
                    if all(hnf_contains(tmat, v) for v in basis):
                        ideal[ku + kt] += weight
                        graded[ku + kt] += 1
    return ideal, graded


def _count_worker(payload):
    return _counts_for_diagonals(*payload)


def dirichlet_counts(struct: LieStructure, p: int, upto: int,
                     threads: int = 1) -> tuple[list[int], list[int]]:
    """Ideal and graded-ideal counts for indices p^0 .. p^upto.

    Work is partitioned by the diagonal composition of the non-central
    block; totals are sums of integers, so they do not depend on the
    partitioning.
    """
    d, n, e = struct.dims.d, struct.dims.n, struct.dims.e
    ideal = [hnf_count(d, p, k) for k in range(upto + 1)]
    graded = list(ideal)
    diagonals = [c for ku in range(upto) for c in compositions_revlex(ku, d)[::-1]]
    if threads > 1 and len(diagonals) > 1:
        chunks = [diagonals[i::threads] for i in range(threads)]
        chunks = [c for c in chunks if c]
        payloads = [
            (struct.brackets, d, n, e, p, upto, chunk) for chunk in chunks
        ]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_count_worker, payloads))
    else:
        parts = [
            _counts_for_diagonals(struct.brackets, d, n, e, p, upto, diagonals)
        ]
    for part_ideal, part_graded in parts:
        for k in range(upto + 1):
            ideal[k] += part_ideal[k]
            graded[k] += part_graded[k]
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
            hnf_contains(basis.matrix, (0,) * d + v)
            for row in basis.matrix
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
            vectors = [v for row in u.matrix for v in _bracket_vectors(tables, n, row)]
            for t in hnf_enumerate(n, p, k - k1):
                if all(hnf_contains(t.matrix, v) for v in vectors):
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


def snf_valuations(mat, p: int) -> tuple[tuple[int, ...], int]:
    """p-adic valuations of the nonzero elementary divisors (ascending),
    plus the number of zero divisors.

    Exact integer diagonalization; the divisibility chain is not enforced
    since sorting the diagonal valuations gives the elementary-divisor
    valuations directly.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    slots = min(nrows, ncols)
    diag: list[int] = []
    top = 0
    while top < slots:
        pivot = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != top:
                a[top], a[i0] = a[i0], a[top]
            if j0 != top:
                for row in a:
                    row[top], row[j0] = row[j0], row[top]
            dirty = False
            for i in range(top + 1, nrows):
                if a[i][top]:
                    c = a[i][top] // a[top][top]
                    a[i] = [x - c * y for x, y in zip(a[i], a[top])]
                    if a[i][top]:
                        dirty = True
            for j in range(top + 1, ncols):
                if a[top][j]:
                    c = a[top][j] // a[top][top]
                    for row in a:
                        row[j] -= c * row[top]
                    if a[top][j]:
                        dirty = True
            if not dirty:
                break
            pivot = None
            best = None
            for i in range(top, nrows):
                for j in range(top, ncols):
                    v = abs(a[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
        diag.append(abs(a[top][top]))
        top += 1
    vals = []
    for dvalue in diag:
        v = 0
        while dvalue % p == 0:
            dvalue //= p
            v += 1
        vals.append(v)
    return tuple(sorted(vals)), slots - len(diag)


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
    counts: dict[LatticeType, int] = {}
    for k in range(bound + 1):
        for basis in hnf_enumerate(n, p, k):
            vals, zero = snf_valuations(basis.matrix, p)
            if zero:
                raise AssertionError("full-rank basis produced a zero divisor")
            if vals[0] != 0:
                continue
            lattice_type = type_from_valuations(vals)
            if any(r > rmax for r in lattice_type.jumps):
                continue
            counts[lattice_type] = counts.get(lattice_type, 0) + 1
    for lattice_type, count in counts.items():
        if count != lattice_type.count_formula(n, p):
            raise AssertionError(f"census mismatch for type {lattice_type}")
    return counts


@dataclass(frozen=True)
class AntidiagonalRep:
    """Coset representative: zero above the antidiagonal, units on it,
    entries taken modulo p^precision."""

    n: int
    matrix: tuple[tuple[int, ...], ...]
    precision: int

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.matrix[i][j] for i in range(self.n))


def sample_antidiagonal(n: int, p: int, precision: int, rng: random.Random) -> AntidiagonalRep:
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
    return AntidiagonalRep(n=n, matrix=tuple(rows), precision=precision)


def congruence_index_check(m: int, n: int, lattice_type: LatticeType, p: int,
                           seed: int) -> bool:
    """Check that the solution index of the scaled commutator congruences
    depends only on the lattice type, via Smith valuations.

    Builds the concatenated matrix whose j-th column block is the commutator
    matrix at column j of a sampled antidiagonal representative, scaled by
    p^(sum of jumps at positions >= j), and compares log_p of the index of
    {g : g C = 0 mod p^r} with sum over jumps of r_i * (e + sum_{j>i} e(m,j)).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dims = lie_dims(m, n)
    rng = random.Random(seed)
    r = lattice_type.r_total()
    rep = sample_antidiagonal(n, p, r + 2, rng)
    commutator = full_commutator_matrix(m, n)
    blocks = []
    for j in range(1, n + 1):
        scale = p ** sum(
            jump for pos, jump in zip(lattice_type.positions, lattice_type.jumps) if pos >= j
        )
        block = specialize(commutator, rep.column(j - 1))
        blocks.append([[scale * v for v in row] for row in block])
    concat = [sum((blocks[j][i] for j in range(n)), []) for i in range(dims.d)]
    vals, _ = snf_valuations(concat, p)
    log_index = sum(max(r - v, 0) for v in vals)
    expected = sum(
        jump * (dims.e + sum(e_count(m, j) for j in range(pos + 1, n + 1)))
        for pos, jump in zip(lattice_type.positions, lattice_type.jumps)
    )
    return log_index == expected


def rep_matrix_check(m: int, n: int, p: int, precision: int, seed: int) -> bool:
    """Check the Smith form of the commutator matrix at a primitive point:
    2e unit divisors, everything else zero to the working precision."""
    if precision < 1:
        raise ValueError("precision must be positive")
    dims = lie_dims(m, n)
    rng = random.Random(seed)
    modulus = p**precision
    while True:
        y = [rng.randrange(modulus) for _ in range(n)]
        if any(v % p for v in y):
            break
    mat = specialize(full_commutator_matrix(m, n), y, modulus=modulus)
    vals, _ = snf_valuations(mat, p)
    units = sum(1 for v in vals if v == 0)
    rest_big = all(v >= precision for v in vals if v)
    return units == 2 * dims.e and rest_big


@dataclass(frozen=True)
class VerifyRecord:
    k: int
    formula: int
    oracle: int
    match: bool


def verify_dirichlet(m: int, n: int, p: int, upto: int, graded: bool = False,
                     ceiling: int | None = None, threads: int = 1) -> list[VerifyRecord]:
    """Compare series coefficients of the closed form at q = p against the
    enumeration counts for indices p^0 .. p^upto."""
    if ceiling is None:
        ceiling = DEFAULT_CEILING
    dims = lie_dims(m, n)
    estimate = p ** (upto * (dims.h - 1))
    if estimate > ceiling:
        raise CeilingExceededError(estimate, ceiling)
    zeta = graded_ideal_zeta(m, n) if graded else ideal_zeta(m, n)
    coeffs = rf_series_coeffs(zeta, upto)
    struct = build_structure(m, n)
    ideal_counts, graded_counts = dirichlet_counts(struct, p, upto, threads=threads)
    oracle_counts = graded_counts if graded else ideal_counts
    records = []
    for k in range(upto + 1):
        value = coeffs[k].value_at_q(p)
        if value.denominator != 1:
            raise AssertionError("series coefficient is not integral at q = p")
        formula = value.numerator
        records.append(
            VerifyRecord(k=k, formula=formula, oracle=oracle_counts[k], match=formula == oracle_counts[k])
        )
    return records
