"""The package's one row elimination, over Z/p^N: Smith valuations and
Hermite forms modulo p^r.

Over Z_p an entry of least p-valuation v divides every entry it is compared
with, so one pivot step serves both: scale the pivot's row by the inverse of
its unit part, making the pivot p^v, and clear the rest of its column.
Smith pivots on the least valuation in the whole matrix and drops the pivot
row, whose other entries p^v divides, so no column operation is needed.
Hermite pivots column by column and returns p^(r-v) times the pivot row,
zero in that column modulo p^r, to the pending rows (the Howell step).

Rows are sparse: one dict per row, from column to the row's nonzero residue
modulo p^N, made by one conversion pass from rows given as sequences or as
such dicts (liering.specialize evaluates B(y) into dicts).  A step reads
and writes only nonzero entries: its row updates touch only the pivot row's
support, and rows that become zero are dropped.  Under Smith every entry
stays divisible by the last pivot's p^v, so valuations never fall and the
pivot search stops at the first entry whose valuation equals the last
pivot's; the pivots come out in ascending order.
"""

from __future__ import annotations

from .combinat import require_prime


def _require(p: int, precision: int) -> None:
    require_prime(p)
    if precision < 1:
        raise ValueError("precision must be positive")


def _rows(mat, modulus: int, shorter: bool) -> tuple[list[dict[int, int]], int, int | None]:
    """The conversion pass.  Return the nonzero rows of `mat` as dicts from
    column to nonzero residue modulo `modulus` (if `shorter` and `mat` has
    more rows than nonzero columns, its nonzero columns instead, as dicts from
    row to residue), the number of rows of `mat`, and the common length of its
    rows (None when they are dicts, whose length is not given).  Raises
    ValueError for sequence rows of unequal length."""
    mat = list(mat)
    if mat and isinstance(mat[0], dict):
        width, items = None, dict.items
        keys = set().union(*mat) if shorter else ()
    else:
        widths = set(map(len, mat))
        if len(widths) > 1:
            raise ValueError(f"rows of unequal length {sorted(widths)}")
        width, items = (widths.pop() if widths else None), enumerate
        keys = range(width or 0)
    if shorter and len(mat) > len(keys):
        cols = {j: {} for j in keys}
        for i, row in enumerate(mat):
            for j, x in items(row):
                if y := x % modulus:
                    cols[j][i] = y
        return [col for col in cols.values() if col], len(mat), width
    rows = []
    for row in mat:
        nonzero = {}
        for j, x in items(row):
            if y := x % modulus:
                nonzero[j] = y
        if nonzero:
            rows.append(nonzero)
    return rows, len(mat), width


def _step(rows: list[dict[int, int]], entries, p: int, modulus: int, floor: int):
    """Pivot on a value of least p-valuation v among `entries`, (index,
    column, value) triples of the nonzero entries of `rows` to search, none of
    valuation below `floor`; the search stops at the first of valuation
    `floor`.  Remove the pivot's row from `rows`, scaled so that the value
    becomes p^v, clear the rest of its column, drop the rows that become
    zero, and return (v, scaled row); None if there are no entries."""
    best = None
    for i, j, x in entries:
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        if best is None or v < best[0]:
            best = (v, i, j)
            if v == floor:
                break
    if best is None:
        return None
    v, i, j = best
    pv = p**v
    pivot = rows.pop(i)
    unit = pow(pivot[j] // pv, -1, modulus)
    if unit != 1:
        pivot = {k: x * unit % modulus for k, x in pivot.items()}
    emptied = False
    for row in rows:
        if j in row:
            c = row[j] // pv
            for k, y in pivot.items():
                if x := (row.get(k, 0) - c * y) % modulus:
                    row[k] = x
                else:
                    row.pop(k, None)
            emptied = emptied or not row
    if emptied:
        rows[:] = [row for row in rows if row]
    return v, pivot


def _smith(mat, p: int, precision: int) -> tuple[int, ...]:
    """snf_valuations without the argument checks.  Elementary divisors do
    not change under transposition or under deleting zero rows and columns,
    so only the nonzero part modulo p^N is eliminated, along its shorter
    side; a matrix whose rows are all dicts reads only its divisors that are
    nonzero modulo p^N."""
    modulus = p**precision
    rows, count, width = _rows(mat, modulus, True)
    vals = []
    v = 0
    while step := _step(rows, ((i, j, x) for i, row in enumerate(rows) for j, x in row.items()),
                        p, modulus, v):
        v = step[0]
        vals.append(v)
    slots = len(vals) if width is None else min(count, width)
    return (*vals, *[precision] * (slots - len(vals)))


def snf_valuations(mat, p: int, precision: int) -> tuple[int, ...]:
    """Ascending min(v_p(d_i), precision) over the min(rows, cols) elementary
    divisors d_i of an integer matrix; a zero divisor reads as precision.
    Rows are sequences of equal length, or dicts from column to entry (absent
    entries are zero); a matrix of dict rows, whose width is not given,
    reads only its divisors that are nonzero modulo p^precision.
    Raises ValueError unless p is prime, precision positive and the sequence
    rows of equal length."""
    _require(p, precision)
    return _smith(mat, p, precision)


def hnf_mod(vectors, n: int, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice spanned by `vectors` and p^r Z^n:
    upper triangular, diagonal entries powers of p, each entry above the
    diagonal reduced modulo the diagonal entry of its column.
    Raises ValueError unless p is prime, r positive and every vector of
    length n."""
    _require(p, r)
    return _hermite(vectors, n, p, r)


def _hermite(vectors, n: int, p: int, r: int) -> tuple[tuple[int, ...], ...]:
    """hnf_mod without the prime and precision checks."""
    modulus = p**r
    pending, _, width = _rows(vectors, modulus, False)
    if width not in (None, n):
        raise ValueError(f"vectors of length {width}, expected {n}")
    basis = []
    for j in range(n):
        step = _step(pending, ((i, j, row[j]) for i, row in enumerate(pending) if j in row), p, modulus, 0)
        pivot = [0] * n
        if step is None:
            pivot[j] = modulus
        else:
            v, row = step
            for k, x in row.items():
                pivot[k] = x
            # p^r times the row of a unit pivot is zero modulo p^r
            if v and (howell := {k: y for k, x in row.items() if (y := x * p ** (r - v) % modulus)}):
                pending.append(howell)
        for i, row in enumerate(basis):
            c = row[j] // pivot[j]
            if c:
                basis[i] = [a - c * b for a, b in zip(row, pivot)]
        basis.append(pivot)
    return tuple(tuple(row) for row in basis)
