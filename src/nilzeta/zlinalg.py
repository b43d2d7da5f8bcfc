"""The package's one row elimination, over Z/p^N: Smith valuations and
Hermite forms modulo p^r.

Over Z_p an entry of least p-valuation v divides every entry it is compared
with, so one pivot step serves both: scale the pivot's row by the inverse of
its unit part, making the pivot p^v, and clear the rest of its column.
Smith pivots on the least valuation in the whole matrix and drops the pivot
row, whose other entries p^v divides, so no column operation is needed.
Hermite pivots column by column and returns p^(r-v) times the pivot row,
zero in that column modulo p^r, to the pending rows (the Howell step).
"""

from __future__ import annotations

from .combinat import require_prime


def _require(p: int, precision: int) -> None:
    require_prime(p)
    if precision < 1:
        raise ValueError("precision must be positive")


def _step(rows: list[list[int]], entries, p: int, modulus: int):
    """Pivot on a value of least p-valuation v among `entries`, (row, column,
    value) triples of the nonzero entries of `rows` to search: scale its row
    so that the value becomes p^v, clear the rest of its column, and return
    (v, row); None if there are no entries."""
    best = None
    for i, j, x in entries:
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        if best is None or v < best[0]:
            best = (v, i, j)
            if not v:
                break
    if best is None:
        return None
    v, i, j = best
    pv = p**v
    unit = pow(rows[i][j] // pv, -1, modulus)
    pivot = rows[i] = [x * unit % modulus for x in rows[i]]
    for k, row in enumerate(rows):
        if k != i and row[j]:
            c = row[j] // pv
            rows[k] = [(x - c * y) % modulus for x, y in zip(row, pivot)]
    return v, i


def _smith(mat, p: int, precision: int) -> tuple[int, ...]:
    """snf_valuations without the argument checks."""
    modulus = p**precision
    rows = [[x % modulus for x in row] for row in mat]
    slots = min(len(rows), len(rows[0])) if rows else 0
    vals = []
    while len(vals) < slots:
        step = _step(rows, ((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x),
                     p, modulus)
        if step is None:
            break
        vals.append(step[0])
        del rows[step[1]]
    return tuple(sorted(vals + [precision] * (slots - len(vals))))


def snf_valuations(mat, p: int, precision: int) -> tuple[int, ...]:
    """Ascending min(v_p(d_i), precision) over the min(rows, cols) elementary
    divisors d_i of an integer matrix; a zero divisor reads as precision.
    Raises ValueError unless p is prime and precision positive."""
    _require(p, precision)
    return _smith(mat, p, precision)


def hnf_mod(vectors, n: int, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice spanned by `vectors` and p^r Z^n:
    upper triangular, diagonal entries powers of p, each entry above the
    diagonal reduced modulo the diagonal entry of its column.
    Raises ValueError unless p is prime and r positive."""
    _require(p, r)
    modulus = p**r
    pending = [[x % modulus for x in vec] for vec in vectors]
    basis = []
    for j in range(n):
        step = _step(pending, ((i, j, row[j]) for i, row in enumerate(pending) if row[j]), p, modulus)
        if step is None:
            pivot = [modulus if k == j else 0 for k in range(n)]
        else:
            v, i = step
            pivot = pending[i]
            pending[i] = [x * p ** (r - v) % modulus for x in pivot]
        for i, row in enumerate(basis):
            c = row[j] // pivot[j]
            if c:
                basis[i] = [a - c * b for a, b in zip(row, pivot)]
        basis.append(pivot)
    return tuple(tuple(row) for row in basis)
