"""Naive references that the tests compare the package with, and that no
CLI verb runs.

- Hermite normal forms listed one by one (hnf_enumerate, hnf_contains), and
  the literal ideal and graded-ideal counts over them (count_ideals_naive,
  count_graded_ideals_naive), against `oracle.dirichlet_counts`.
- x(T) = log_p [Z^d : X(T)] by counting the u modulo p^r whose brackets
  lie in T (index_exponent_by_counting), against `oracle.index_exponent`.
- The census of maximal sublattices by elementary-divisor type
  (maximal_lattice_census, type_from_valuations), against
  `LatticeType.count_formula`.
- L(m, n) with every bracket set to zero (abelian_structure).
- The decoder of the JSON schema that the CLI writes (rational_from_obj).
- The same literal counts over O = Z_p[w], an unramified quadratic
  extension of Z_p with residue field of q = p^2 elements
  (o_hnf_enumerate, o_contains, o_ideal_counts), against the closed forms
  at that q rather than at p.
"""

from collections import Counter
from collections.abc import Iterator
from itertools import product as iproduct

from nilzeta.combinat import compositions_revlex
from nilzeta.laurent import LaurentPoly
from nilzeta.liering import LieStructure, build_structure
from nilzeta.oracle import LatticeType
from nilzeta.rational import RationalFunction
from nilzeta.zlinalg import snf_valuations


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


def generator_brackets(struct: LieStructure, u) -> list[tuple[int, ...]]:
    """[u, b_g] in the central coordinates for every generator b_g of the
    non-central block, u in Z^d, read off struct.brackets: a triple
    (ix, iy, k) there means [x_ix, y_iy] = z_k, so [y_iy, x_ix] = -z_k."""
    e = struct.dims.e
    out = [[0] * struct.dims.n for _ in range(struct.dims.d)]
    for ix, iy, k in struct.brackets:
        out[e + iy][k - 1] += u[ix]
        out[ix][k - 1] -= u[e + iy]
    return [tuple(v) for v in out]


def index_exponent_by_counting(struct: LieStructure, columns, p: int, r: int) -> int:
    """x(T) = log_p [Z^d : X(T)] for T = {v in Z^n : v.s = 0 mod p^r for
    every column s}, by counting the u in (Z/p^r)^d whose brackets
    [u, b_g] all lie in T: X(T) contains p^r Z^d, so its index is p^(rd)
    over that count."""
    modulus = p**r
    inside = sum(
        all(sum(a * b for a, b in zip(v, s)) % modulus == 0
            for v in generator_brackets(struct, u) for s in columns)
        for u in iproduct(range(modulus), repeat=struct.dims.d)
    )
    index, x = modulus**struct.dims.d // inside, 0
    while index > 1:
        index, rest = divmod(index, p)
        assert rest == 0, "the index is a power of p"
        x += 1
    return x


def count_ideals_naive(struct: LieStructure, p: int, k: int) -> int:
    """Literal enumeration over full-rank HNF bases; used to cross-check the
    block-decomposed fast path on small instances."""
    d, h = struct.dims.d, struct.dims.h
    count = 0
    for basis in hnf_enumerate(h, p, k):
        if all(
            hnf_contains(basis, (0,) * d + v)
            for row in basis
            for v in generator_brackets(struct, row[:d])
        ):
            count += 1
    return count


def count_graded_ideals_naive(struct: LieStructure, p: int, k: int) -> int:
    """Direct pair enumeration for the graded condition."""
    d, n = struct.dims.d, struct.dims.n
    count = 0
    for k1 in range(k + 1):
        for u in hnf_enumerate(d, p, k1):
            vectors = [v for row in u for v in generator_brackets(struct, row)]
            for t in hnf_enumerate(n, p, k - k1):
                if all(hnf_contains(t, v) for v in vectors):
                    count += 1
    return count


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


def abelian_structure(m: int, n: int) -> LieStructure:
    """Same underlying module with every bracket set to zero (oracle baseline)."""
    s = build_structure(m, n)
    return LieStructure(dims=s.dims, basis_x=s.basis_x, basis_y=s.basis_y, brackets=())


def rational_from_obj(obj: dict) -> RationalFunction:
    num = LaurentPoly(((int(e["q"]), int(e["t"])), int(e["c"])) for e in obj["num"])
    den = [(int(f["a"]), int(f["b"]), int(f["mult"])) for f in obj["den"]]
    return RationalFunction(num, den)


# O = Z_p[w] with w^2 = g1 w + g0 irreducible modulo p, so that p stays prime
# in O and O/pO is the field of q = p^2 elements.  An element a + b w is the
# pair (a, b), and each ring below is given as (p, (g0, g1)).
Z2_W = (2, (1, 1))  # w^2 = w + 1, q = 4
Z3_I = (3, (-1, 0))  # w^2 = -1, q = 9


def _o_mul(g, x, y):
    """(a + b w)(c + d w), with w^2 = g1 w + g0 for g = (g0, g1)."""
    (a, b), (c, d) = x, y
    return a * c + b * d * g[0], a * d + b * c + b * d * g[1]


def o_hnf_enumerate(dim: int, p: int, k: int) -> Iterator[tuple[tuple[tuple[int, int], ...], ...]]:
    """Yield every O-submodule of O^dim of index q^k exactly once, as the
    rows of its Hermite normal form: p^(k_j) on the diagonal and, above it
    in column j, pairs (a, b) with 0 <= a, b < p^(k_j).  So there are
    q^(k_j) choices per entry, and hnf_count(dim, q, k) forms in all."""
    for comp in compositions_revlex(k, dim)[::-1]:
        diag = [p**kj for kj in comp]
        entries = (iproduct(range(diag[j]), repeat=2) for j in range(dim) for _ in range(j))
        for flat in iproduct(*entries):
            rows = [[(0, 0)] * dim for _ in range(dim)]
            pos = 0
            for j in range(dim):
                rows[j][j] = (diag[j], 0)
                for i in range(j):
                    rows[i][j] = flat[pos]
                    pos += 1
            yield tuple(tuple(r) for r in rows)


def o_contains(g, matrix, v) -> bool:
    """Membership of v in the O-row module of an upper-triangular basis whose
    diagonal entries are powers of p: back-substitution, where dividing by
    the diagonal needs both coordinates divisible."""
    v = list(v)
    for i, row in enumerate(matrix):
        a, b = v[i]
        if a or b:
            pk = row[i][0]
            if a % pk or b % pk:
                return False
            c = (a // pk, b // pk)
            for j in range(i, len(v)):
                x, y = _o_mul(g, c, row[j])
                v[j] = (v[j][0] - x, v[j][1] - y)
    return not any(a or b for a, b in v)


def o_ideal_counts(struct: LieStructure, ring, upto: int) -> tuple[list[int], list[int]]:
    """Ideal and graded-ideal counts of L(m, n) tensor O for indices
    q^0 .. q^upto, by listing every O-Hermite form.  The bracket is
    O-bilinear, so a module is an ideal when [u, e_g] is a member for every
    row u and every basis vector e_g; it is graded when, besides, the rows
    of the non-central block are zero in the central columns."""
    p, g = ring
    d, h = struct.dims.d, struct.dims.h
    zero = ((0, 0),) * d
    ideal, graded = [0] * (upto + 1), [0] * (upto + 1)
    for k in range(upto + 1):
        for basis in o_hnf_enumerate(h, p, k):
            if all(o_contains(g, basis, zero + v)
                   for row in basis for v in _o_generator_brackets(struct, row[:d])):
                ideal[k] += 1
                graded[k] += not any(a or b for row in basis[:d] for a, b in row[d:])
    return ideal, graded


def _o_generator_brackets(struct: LieStructure, u) -> list[tuple[tuple[int, int], ...]]:
    """The nonzero [u, b_g] for u in O^d, by generator_brackets' rule: each
    b_g is rational, so the parts a and b of a + b w add separately."""
    e = struct.dims.e
    out = [[(0, 0)] * struct.dims.n for _ in range(struct.dims.d)]
    for ix, iy, k in struct.brackets:
        for g, j, sign in ((e + iy, ix, 1), (ix, e + iy, -1)):
            (a, b), (c, f) = out[g][k - 1], u[j]
            out[g][k - 1] = (a + sign * c, b + sign * f)
    return [tuple(v) for v in out if any(map(any, v))]
