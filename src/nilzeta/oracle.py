"""Brute-force verification oracles: lattice enumeration, Smith-form
valuations, and congruence-index checks.

Finite-index sublattices of Z^dim are parametrized by Hermite normal forms:
upper-triangular integer matrices with diagonal (p^k_1, ..., p^k_dim) and
every above-diagonal entry reduced modulo the diagonal entry of its column.
A basis is the tuple of its rows, the form zlinalg.hnf_mod returns.  Column
j has j free entries, so hnf_count forms the number of index-p^k forms, the
x^k coefficient of prod_j 1/(1 - p^j x), without listing a diagonal.

Because the bracket of anything lands in the central coordinates and the
center occupies the trailing block of the basis, an HNF of the full ring
splits into independent blocks (U, R, T): U is an HNF on the non-central
coordinates, T one on the central coordinates, and the freely ranging
upper-right block R never enters the ideal condition.  dirichlet_counts
sums over (U, T) pairs and multiplies by the number of R blocks; the tests
compare it with the literal listing of every full-rank HNF.

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
  span.  Row i's tally depends only on r and its capped exponents
  min(k_j, r), j >= i (its head is p^k_i mod p^r), so inside one call each
  such pattern is tallied once, and each Hermite form, of a residue's
  brackets or of a join, once per r: one bracket-vector set per residue of
  a distinct pattern (enumeration_size bounds them), plus lookups.  A
  residue's brackets are summed over its own entries, not all d generators.
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
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import comb

from .combinat import (DIMS_BOUND, Value, compositions_revlex, dims_exceed, e_count, f_count,
                       gaussian_multinomial, lie_dims, require_prime)
from .igusa import census_subtractions
from .liering import LieStructure, bracket_matrix, build_structure, specialize
from .rational import rf_series_coeffs
from .zlinalg import _hermite, _smith, snf_valuations
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


def hnf_count(dim: int, p: int, k: int) -> int:
    """Number of index-p^k sublattices of Z^dim: the x^k coefficient of
    prod_(j < dim) 1/(1 - p^j x), (dim + k - 1 choose k)_p = prod_(j = 1..k)
    (p^(dim + j - 1) - 1)/(p^j - 1), whose partial products are such binomials: each division is exact."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if k < 0:
        return 0
    count = 1
    for j in range(1, k + 1):
        count = count * (p ** (dim + j - 1) - 1) // (p**j - 1)
    return count


def _bracket_tables(brackets, d: int, e: int):
    """Per-coordinate sparse bracket actions: for coordinate j, a list of
    (generator g, center index k-1, sign) such that [b_g, e_j] = sign * z_k."""
    columns: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    for ix, iy, k in brackets:
        columns[e + iy].append((ix, k - 1, 1))
        columns[ix].append((e + iy, k - 1, -1))
    return columns


def _bracket_vectors(columns, n: int, u: dict[int, int], modulus: int) -> list[tuple[int, ...]]:
    """Nonzero central vectors [b_g, u] modulo `modulus`, for u a dict from
    coordinate to entry: v_g sums u_j [b_g, e_j] over u's entries, so only
    the generators that meet u's support are visited."""
    vectors: defaultdict[int, list[int]] = defaultdict(lambda: [0] * n)
    for j, x in u.items():
        for g, kk, sign in columns[j] if x else ():
            vectors[g][kk] += sign * x
    return [v for v in (tuple(x % modulus for x in v) for v in vectors.values()) if any(v)]


def _u_diagonals(d: int, upto: int) -> list[tuple[int, ...]]:
    """Diagonal compositions of the non-central block with kU < upto."""
    return [c for ku in range(upto) for c in compositions_revlex(ku, d)[::-1]]


def enumeration_size(d: int, n: int, p: int, upto: int) -> int:
    """Work estimate of verify_dirichlet: the sum over diagonals with
    kU < upto and rows i of prod_(j > i) min(p^k_j, p^(upto - kU)), an upper
    bound on the row residues the oracle expands (a row pattern that recurs
    is expanded once), plus the coefficient subtractions of the descent
    census behind the closed form (igusa.census_subtractions).

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
            # (top - after choose a - after)_p, since (A choose B)_p = hnf_count(A - B + 1, p, B)
            binom = hnf_count(top - a + 1, p, a - after)
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
    columns = _bracket_tables(struct.brackets, d, e)
    classes: Counter = Counter()

    hermite = cache(_hermite)

    @cache
    def row_spans(r: int, i: int, caps: tuple[tuple[int, int], ...]) -> Counter:
        # row i's residues modulo p^r as {column: entry}, tallied by the Hermite
        # form of their brackets; caps holds the nonzero (j, min(k_j, r)), j >= i
        modulus = p**r
        entries = {j: range(p**c) for j, c in caps if j > i}
        entries[i] = [p ** dict(caps).get(i, 0) % modulus]
        spans: Counter = Counter()
        for values in iproduct(*entries.values()):
            u = dict(zip(entries, values))
            spans[hermite(frozenset(_bracket_vectors(columns, n, u, modulus)), n, p, r)] += 1
        return spans

    for comp in _u_diagonals(d, upto):
        r = upto - sum(comp)
        lifts = p ** sum(j * max(kj - r, 0) for j, kj in enumerate(comp))
        caps = [(j, min(kj, r)) for j, kj in enumerate(comp) if kj]
        states = {hermite((), n, p, r): lifts}
        for i in range(d):
            spans = row_spans(r, i, tuple(jc for jc in caps if jc[0] >= i))
            joined: Counter = Counter()
            for state, weight in states.items():
                for span, count in spans.items():
                    joined[hermite(state + span, n, p, r)] += weight * count
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


class LatticeType(Value):
    """Elementary-divisor type of a maximal sublattice: jump positions I in
    [n-1] with positive jump sizes r."""

    __slots__ = ("positions", "jumps")

    def __init__(self, positions: tuple[int, ...], jumps: tuple[int, ...]):
        if len(positions) != len(jumps):
            raise ValueError("positions and jumps must align")
        if any(r < 1 for r in jumps):
            raise ValueError("jumps must be positive")
        if list(positions) != sorted(set(positions)):
            raise ValueError("positions must be strictly increasing")
        super().__init__(positions, jumps)

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
    b = bracket_matrix(m, n)
    rng = random.Random(seed)
    r = lattice_type.r_total()
    rep = sample_antidiagonal(n, p, r + 2, rng)
    blocks = []
    for j in range(1, n + 1):
        scale = p ** sum(
            jump for pos, jump in zip(lattice_type.positions, lattice_type.jumps) if pos >= j
        )
        blocks.append(specialize(b, [scale * row[j - 1] for row in rep]))
    side_by_side = [{j + k * b.cols: x for k, row in enumerate(rows) for j, x in row.items()}
                    for rows in zip(*blocks)]
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
    b = bracket_matrix(m, n)
    rng = random.Random(seed)
    modulus = p**precision
    while True:
        y = [rng.randrange(modulus) for _ in range(n)]
        if any(v % p for v in y):
            break
    return snf_valuations(specialize(b, y), p, precision) == (0,) * b.cols


class VerifyRecord(Value):
    __slots__ = ("k", "formula", "oracle")

    @property
    def match(self) -> bool:
        return self.formula == self.oracle


def verify_dirichlet(m: int, n: int, p: int, upto: int, graded: bool = False,
                     ceiling: int = DEFAULT_CEILING) -> list[VerifyRecord]:
    """Compare series coefficients of the closed form at q = p against the
    enumeration counts for indices p^0 .. p^upto.

    Raises ValueError unless p is prime, m, n are positive, the ceiling is
    nonnegative and d = e + f <= DIMS_BOUND, and CeilingExceededError when
    enumeration_size, or a cheap lower bound, exceeds the ceiling, before any work."""
    require_prime(p)
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
