"""The Lie rings L(m, n): structure constants and commutator matrices.

L(m, n) is free abelian on generators x_e (e a composition of m-1 into n
parts), y_f (f a composition of m), and central z_1..z_n, with the single
family of nonzero brackets [x_e, y_f] = z_i whenever f - e is the i-th
standard basis vector.  Both generator layers are ordered reverse-
lexicographically; that order is the single source of truth for every
matrix index in this package.

The rectangular bracket matrix B (rows indexed by the y layer, columns by
the x layer) is built twice: directly from the structure constants and by
a block-bidiagonal recursion in n.  The two must agree entrywise.  Each of
B's entries is a single variable Y_i, and each entry of the commutator
[[0, -B^T], [B, 0]] is +-Y_i, so a linear form is stored as its nonzero
(variable, coefficient) pairs and evaluating it is a gather.
"""

from __future__ import annotations

from functools import lru_cache

from .combinat import Value, compositions_revlex, e_count, lie_dims, require_prime
from .laurent import format_terms
from .zlinalg import _smith


class LieStructure(Value):
    """Structure constants over the ordered basis (x_e..., y_f..., z_1..z_n).

    brackets holds triples (ix, iy, k): [x at position ix, y at position iy]
    equals z_k (1-based k); all other brackets of generators vanish.
    """

    __slots__ = ("dims", "basis_x", "basis_y", "brackets")


def build_structure(m: int, n: int) -> LieStructure:
    dims = lie_dims(m, n)
    basis_x = tuple(compositions_revlex(m - 1, n))
    basis_y = tuple(compositions_revlex(m, n))
    y_index = {comp: i for i, comp in enumerate(basis_y)}
    brackets = []
    for ix, e in enumerate(basis_x):
        for k in range(n):
            f = tuple(e[j] + (1 if j == k else 0) for j in range(n))
            brackets.append((ix, y_index[f], k + 1))
    return LieStructure(dims=dims, basis_x=basis_x, basis_y=basis_y, brackets=tuple(brackets))


class LinearFormMatrix(Value):
    """Matrix whose entries are integer linear forms in Y_1..Y_nvars.

    Entries are stored sparsely in `forms`, (row, col) -> form, each key
    inside the shape; absent entries are zero.  A form is the tuple of its
    nonzero (k, c) pairs, meaning c * Y_(k+1), in increasing k with each k
    in range(nvars) at most once; stored forms are never empty.
    """

    __slots__ = ("rows", "cols", "nvars", "forms")

    def __init__(self, rows: int, cols: int, nvars: int, forms: dict):
        clean = {}
        for key, form in forms.items():
            if not (0 <= key[0] < rows and 0 <= key[1] < cols):
                raise ValueError(f"entry {key} lies outside a {rows} x {cols} matrix")
            pairs = sorted(form)
            variables = [k for k, _ in pairs]
            if not all(0 <= k < nvars for k in variables):
                raise ValueError(f"entry {key} names a variable outside Y_1..Y_{nvars}")
            if len(set(variables)) != len(variables):
                raise ValueError(f"entry {key} names a variable twice")
            pairs = tuple((k, c) for k, c in pairs if c)
            if pairs:
                clean[key] = pairs
        super().__init__(rows, cols, nvars, clean)

    def entry(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        return self.forms.get((i, j), ())

    def __repr__(self) -> str:
        return f"LinearFormMatrix({self.rows}x{self.cols} in Y_1..Y_{self.nvars})"


def b_matrix_direct(struct: LieStructure) -> LinearFormMatrix:
    """The f x e bracket matrix read off the structure constants: entry
    (row y_f, col x_e) is Y_i when [x_e, y_f] = z_i."""
    entries = {(iy, ix): ((k - 1, 1),) for ix, iy, k in struct.brackets}
    return LinearFormMatrix(struct.dims.f, struct.dims.e, struct.dims.n, entries)


@lru_cache(maxsize=1)
def bracket_matrix(m: int, n: int) -> LinearFormMatrix:
    """B for L(m, n), built once for every check that eliminates it; only the
    last pair's B is kept, so no cache holds a large B for good."""
    return b_matrix_direct(build_structure(m, n))


def _b_recursive_entries(m: int, n: int, var_offset: int, entries: dict, row0: int, col0: int):
    """Fill entries of the (m, n) block at the given offset; variables used
    are Y_{var_offset+1}..Y_{var_offset+n}."""
    scalar = ((var_offset, 1),)
    if n == 1:
        entries[(row0, col0)] = scalar
        return
    row = row0
    col = col0
    for j in range(1, m + 1):
        width = e_count(j, n - 1)
        for i in range(width):
            entries[(row + i, col + i)] = scalar
        _b_recursive_entries(j, n - 1, var_offset + 1, entries, row + width, col)
        row += width
        col += width


def b_matrix_recursive(m: int, n: int) -> LinearFormMatrix:
    """Block-bidiagonal recursion in n: column block j stacks a scalar block
    Y_1 * Id of size e(j, n-1) on top of the (j, n-1) matrix in Y_2..Y_n."""
    dims = lie_dims(m, n)
    entries: dict = {}
    _b_recursive_entries(m, n, 0, entries, 0, 0)
    return LinearFormMatrix(dims.f, dims.e, n, entries)


def full_commutator_matrix(m: int, n: int) -> LinearFormMatrix:
    """The d x d antisymmetric matrix [[0, -B^T], [B, 0]] over the ordered
    non-central basis (x layer first, then y layer)."""
    b = bracket_matrix(m, n)
    e, d = b.cols, b.cols + b.rows
    entries = {}
    for (i, j), form in b.forms.items():
        entries[(e + i, j)] = form
        entries[(j, e + i)] = tuple((k, -c) for k, c in form)
    return LinearFormMatrix(d, d, n, entries)


def specialize(mat: LinearFormMatrix, y) -> list[dict[int, int]]:
    """Evaluate every linear form at the integer vector y, into the rows that
    zlinalg eliminates: one dict per row, from column to nonzero value."""
    if len(y) != mat.nvars:
        raise ValueError(f"expected {mat.nvars} values, got {len(y)}")
    out = [{} for _ in range(mat.rows)]
    for (i, j), form in mat.forms.items():
        x = 0
        for k, c in form:
            x += c * y[k]
        if x:
            out[i][j] = x
    return out


def rank_mod(matrix, p: int) -> int:
    """Rank over F_p of a matrix in any form snf_valuations takes, the number
    of unit elementary divisors; p must be prime."""
    require_prime(p)
    return _smith(matrix, p, 1).count(0)


def render_linear_matrix(mat: LinearFormMatrix) -> str:
    """Aligned text grid of the linear forms (used by the check --print output)."""
    cells = [[format_terms(mat.entry(i, j), lambda k, c: f"{'' if c == 1 else c}Y{k + 1}")
              for j in range(mat.cols)] for i in range(mat.rows)]
    widths = [max(len(cells[i][j]) for i in range(mat.rows)) for j in range(mat.cols)]
    lines = []
    for row in cells:
        lines.append("[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]")
    return "\n".join(lines)
