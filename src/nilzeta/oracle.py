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

Two exact reductions keep the (U, T) sum small.  Write kU, kT for the
index exponents of U and T, K for the largest index exponent wanted, and
r = K - kU for the tail budget of U.

- Residues.  A tail T of index p^kT contains p^kT Z^n, hence p^r Z^n for
  every kT <= r.  So "M is inside T", for M the lattice spanned by the
  brackets of U's rows, depends only on M + p^r Z^n.  The brackets are
  linear in U's entries, so only those entries modulo p^r matter,
  diagonal included.  Column j of an HNF with diagonal p^k_j has j free
  entries in range(p^k_j); modulo p^r each takes min(p^k_j, p^r) values,
  every one of them hit p^(k_j - r) times when k_j > r.  Enumerating the
  residues and weighting each by the product of those hit counts gives the
  same sums as enumerating U itself (u_residue_visits counts the residue
  tuples).
- Classes.  Residue tuples are tallied per key (r, the set of their
  nonzero bracket vectors modulo p^r).  The key determines M + p^r Z^n,
  whose Hermite normal form is computed once per key; the tallies are then
  merged per (r, that normal form).  The number of tails of each index
  kT <= r that contain M is a function of (r, M + p^r Z^n) alone, so the
  tail tests run once per merged class, inside one call, and are multiplied
  by the class's tally.  Nothing is cached across calls.

All randomized checks take an explicit seed; enumeration works over Z with
exact integers and explicit modular reduction, never over floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator

from .combinat import compositions_revlex, e_count, gaussian_multinomial, lie_dims, require_prime
from .liering import LieStructure, build_structure, full_commutator_matrix, specialize
from .rational import rf_series_coeffs
from .zetas import graded_ideal_zeta, ideal_zeta

DEFAULT_CEILING = 10**8


class CeilingExceededError(RuntimeError):
    """The enumeration size (see enumeration_size) exceeds the configured
    ceiling."""

    def __init__(self, estimate: int, ceiling: int):
        super().__init__(
            f"enumeration size {estimate} exceeds the ceiling {ceiling}"
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


def _u_diagonals(d: int, upto: int) -> list[tuple[int, ...]]:
    """Diagonal compositions of the non-central block with kU < upto."""
    return [c for ku in range(upto) for c in compositions_revlex(ku, d)[::-1]]


def _residue_visits(comp, p: int, upto: int) -> int:
    """Number of U residue tuples that the enumeration visits for the
    diagonal (p^k for k in comp): prod_j min(p^k_j, p^r)^j with
    r = upto - kU, or 0 when kU >= upto."""
    r = upto - sum(comp)
    if r <= 0:
        return 0
    size = 1
    for j, kj in enumerate(comp):
        size *= p ** (min(kj, r) * j)
    return size


def u_residue_visits(d: int, p: int, upto: int) -> int:
    """Exact number of U residue tuples dirichlet_counts visits: the sum of
    _residue_visits over every diagonal with kU < upto."""
    return sum(_residue_visits(c, p, upto) for c in _u_diagonals(d, upto))


def enumeration_size(d: int, n: int, p: int, upto: int) -> int:
    """Bound on the loop iterations of dirichlet_counts: every U residue
    tuple, each counted with the tails of index p^kT, kT <= upto - kU, that
    it could be tested against.

    A class is first reached by at least one residue tuple, and every tail
    is generated once and tested against the classes whose budget covers
    it, so the tail loop never runs more often than the second term; the
    kU = 0 tuple alone accounts for generating every tail.
    """
    tails = [1]
    for kt in range(1, upto + 1):
        tails.append(tails[-1] + hnf_count(n, p, kt))
    return sum(_residue_visits(c, p, upto) * tails[upto - sum(c)] for c in _u_diagonals(d, upto))


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


def _hnf_mod(vectors, n: int, modulus: int) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form of the lattice spanned by `vectors` and
    modulus * Z^n: upper triangular, positive diagonal, every entry above
    the diagonal reduced modulo the diagonal entry of its column."""
    spanning = list(vectors) + [tuple(modulus if j == i else 0 for j in range(n)) for i in range(n)]
    rows = [list(v) for v in _lattice_basis(spanning, n)]
    for i in range(n):
        if rows[i][i] < 0:
            rows[i] = [-x for x in rows[i]]
        for k in range(i):
            c = rows[k][i] // rows[i][i]
            if c:
                rows[k] = [a - c * b for a, b in zip(rows[k], rows[i])]
    return tuple(tuple(row) for row in rows)


def _counts_for_diagonals(bracket_triples, d: int, n: int, e: int, p: int, big_k: int,
                          diagonals) -> tuple[list[int], list[int]]:
    """Materialized part of the (U, T) sum for the given U diagonals.

    Returns partial ideal and graded count vectors covering tail indices
    kT >= 1; the tail-free term is closed-form and added by the caller.
    """
    tables = _bracket_tables(bracket_triples, d, e)
    classes: dict[int, dict[frozenset, int]] = {}
    for comp in diagonals:
        r = big_k - sum(comp)
        if r <= 0:
            continue
        lifts = p ** sum(j * max(kj - r, 0) for j, kj in enumerate(comp))
        # Row 0 has the most residues, so it is the inner loop.
        first, *rest = _row_residue_sets(tables, n, comp, p, p**r)
        tally = classes.setdefault(r, {})
        for others in iproduct(*rest):
            prefix = frozenset().union(*others)
            for row_set in first:
                key = prefix | row_set
                tally[key] = tally.get(key, 0) + lifts
    lattices: dict[tuple[int, tuple], int] = {}
    for r, tally in classes.items():
        for vectors, weight in tally.items():
            key = (r, _hnf_mod(vectors, n, p**r))
            lattices[key] = lattices.get(key, 0) + weight
    ideal = [0] * (big_k + 1)
    graded = [0] * (big_k + 1)
    top = max((r for r, _ in lattices), default=0)
    for kt in range(1, top + 1):
        scale = p ** (d * kt)
        live = [(big_k - r + kt, basis, weight) for (r, basis), weight in lattices.items() if r >= kt]
        # Tails are generated, not stored: memory stays proportional to the
        # number of classes however many tails there are.
        for tail in hnf_enumerate(n, p, kt):
            for k, basis, weight in live:
                if all(hnf_contains(tail.matrix, v) for v in basis):
                    graded[k] += weight
                    ideal[k] += weight * scale
    return ideal, graded


def _count_worker(payload):
    return _counts_for_diagonals(*payload)


def _balanced_chunks(diagonals, weights, parts: int) -> list[list]:
    """Greedy longest-first split of `diagonals` into at most `parts`
    nonempty chunks with near-equal total weight."""
    loads = [0] * parts
    chunks: list[list] = [[] for _ in range(parts)]
    for w, comp in sorted(zip(weights, diagonals), key=lambda wc: -wc[0]):
        i = loads.index(min(loads))
        loads[i] += w
        chunks[i].append(comp)
    return [c for c in chunks if c]


def dirichlet_counts(struct: LieStructure, p: int, upto: int,
                     threads: int = 1) -> tuple[list[int], list[int]]:
    """Ideal and graded-ideal counts for indices p^0 .. p^upto.

    Work is partitioned by the diagonal composition of the non-central
    block, each diagonal weighted by its _residue_visits; totals are sums of
    integers, so they do not depend on the partitioning.
    """
    require_prime(p)
    d, n, e = struct.dims.d, struct.dims.n, struct.dims.e
    ideal = [hnf_count(d, p, k) for k in range(upto + 1)]
    graded = list(ideal)
    diagonals = _u_diagonals(d, upto)
    if threads > 1 and len(diagonals) > 1:
        from concurrent.futures import ProcessPoolExecutor

        weights = [_residue_visits(c, p, upto) for c in diagonals]
        payloads = [
            (struct.brackets, d, n, e, p, upto, chunk)
            for chunk in _balanced_chunks(diagonals, weights, threads)
        ]
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
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
    enumeration counts for indices p^0 .. p^upto.

    Raises ValueError unless p is prime, and CeilingExceededError when
    enumeration_size exceeds the ceiling, before any work starts."""
    require_prime(p)
    if ceiling is None:
        ceiling = DEFAULT_CEILING
    dims = lie_dims(m, n)
    estimate = enumeration_size(dims.d, dims.n, p, upto)
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
