"""The Lie rings L(m, n): structure constants and commutator matrices.

L(m, n) is free abelian on generators x_e (e a composition of m-1 into n
parts), y_f (f a composition of m), and central z_1..z_n, with the single
family of nonzero brackets [x_e, y_f] = z_i whenever f - e is the i-th
standard basis vector.  Both generator layers are ordered reverse-
lexicographically; that order is the single source of truth for every
matrix index in this package.

The rectangular bracket matrix B (rows indexed by the y layer, columns by
the x layer) is built twice: directly from the structure constants and by
a block-bidiagonal recursion in n.  The two must agree entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import LieDims, compositions_revlex, e_count, lie_dims, require_prime
from .zlinalg import _smith


@dataclass(frozen=True)
class LieStructure:
    """Structure constants over the ordered basis (x_e..., y_f..., z_1..z_n).

    brackets holds triples (ix, iy, k): [x at position ix, y at position iy]
    equals z_k (1-based k); all other brackets of generators vanish.
    """

    dims: LieDims
    basis_x: tuple[tuple[int, ...], ...]
    basis_y: tuple[tuple[int, ...], ...]
    brackets: tuple[tuple[int, int, int], ...]


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


def abelian_structure(m: int, n: int) -> LieStructure:
    """Same underlying module with every bracket set to zero (oracle baseline)."""
    s = build_structure(m, n)
    return LieStructure(dims=s.dims, basis_x=s.basis_x, basis_y=s.basis_y, brackets=())


@dataclass(frozen=True)
class LinearFormMatrix:
    """Matrix whose entries are integer linear forms in Y_1..Y_nvars.

    Entries are stored sparsely in `forms`, (row, col) -> coefficient tuple;
    absent entries are zero.  Stored coefficient vectors are never all-zero.
    """

    rows: int
    cols: int
    nvars: int
    forms: dict

    def __post_init__(self):
        clean = {}
        for key, coeffs in self.forms.items():
            coeffs = tuple(coeffs)
            if len(coeffs) != self.nvars:
                raise ValueError("coefficient vector has wrong length")
            if any(coeffs):
                clean[key] = coeffs
        object.__setattr__(self, "forms", clean)

    def entry(self, i: int, j: int) -> tuple[int, ...]:
        return self.forms.get((i, j), (0,) * self.nvars)

    def entries(self) -> dict:
        return dict(self.forms)

    def __repr__(self) -> str:
        return f"LinearFormMatrix({self.rows}x{self.cols} in Y_1..Y_{self.nvars})"


def b_matrix_direct(struct: LieStructure) -> LinearFormMatrix:
    """The f x e bracket matrix read off the structure constants: entry
    (row y_f, col x_e) is Y_i when [x_e, y_f] = z_i."""
    n = struct.dims.n
    entries = {}
    for ix, iy, k in struct.brackets:
        coeffs = [0] * n
        coeffs[k - 1] = 1
        entries[(iy, ix)] = tuple(coeffs)
    return LinearFormMatrix(struct.dims.f, struct.dims.e, n, entries)


def _b_recursive_entries(m: int, n: int, var_offset: int, nvars: int, entries: dict,
                         row0: int, col0: int):
    """Fill entries of the (m, n) block at the given offset; variables used
    are Y_{var_offset+1}..Y_{var_offset+n} inside a width-nvars vector."""
    if n == 1:
        coeffs = [0] * nvars
        coeffs[var_offset] = 1
        entries[(row0, col0)] = tuple(coeffs)
        return
    scalar = [0] * nvars
    scalar[var_offset] = 1
    scalar = tuple(scalar)
    row = row0
    col = col0
    for j in range(1, m + 1):
        width = e_count(j, n - 1)
        for i in range(width):
            entries[(row + i, col + i)] = scalar
        _b_recursive_entries(j, n - 1, var_offset + 1, nvars, entries, row + width, col)
        row += width
        col += width


def b_matrix_recursive(m: int, n: int) -> LinearFormMatrix:
    """Block-bidiagonal recursion in n: column block j stacks a scalar block
    Y_1 * Id of size e(j, n-1) on top of the (j, n-1) matrix in Y_2..Y_n."""
    dims = lie_dims(m, n)
    entries: dict = {}
    _b_recursive_entries(m, n, 0, n, entries, 0, 0)
    return LinearFormMatrix(dims.f, dims.e, n, entries)


def full_commutator_matrix(m: int, n: int) -> LinearFormMatrix:
    """The d x d antisymmetric matrix [[0, -B^T], [B, 0]] over the ordered
    non-central basis (x layer first, then y layer)."""
    struct = build_structure(m, n)
    b = b_matrix_direct(struct)
    e, f, nv = struct.dims.e, struct.dims.f, n
    entries = {}
    for (i, j), coeffs in b.entries().items():
        entries[(e + i, j)] = coeffs
        entries[(j, e + i)] = tuple(-c for c in coeffs)
    return LinearFormMatrix(e + f, e + f, nv, entries)


def specialize(mat: LinearFormMatrix, y, modulus: int | None = None) -> list[list[int]]:
    """Evaluate every linear form at the integer vector y, optionally mod m."""
    if len(y) != mat.nvars:
        raise ValueError(f"expected {mat.nvars} values, got {len(y)}")
    if modulus is not None and modulus < 1:
        raise ValueError("modulus must be positive")
    out = [[0] * mat.cols for _ in range(mat.rows)]
    for (i, j), coeffs in mat.entries().items():
        v = sum(c * yk for c, yk in zip(coeffs, y))
        out[i][j] = v % modulus if modulus is not None else v
    return out


def rank_mod(matrix: list[list[int]], p: int) -> int:
    """Rank over F_p, the number of unit elementary divisors; p must be prime."""
    require_prime(p)
    return _smith(matrix, p, 1).count(0)


def render_linear_matrix(mat: LinearFormMatrix) -> str:
    """Aligned text grid of the linear forms (used by the check --print output)."""

    def form(coeffs: tuple[int, ...]) -> str:
        pieces = []
        for k, c in enumerate(coeffs, start=1):
            if not c:
                continue
            if c == 1:
                lead = ""
            elif c == -1:
                lead = "-"
            else:
                lead = str(c)
            piece = f"{lead}Y{k}"
            if pieces and not piece.startswith("-"):
                piece = "+" + piece
            pieces.append(piece)
        return "".join(pieces) if pieces else "0"

    cells = [[form(mat.entry(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]
    widths = [max(len(cells[i][j]) for i in range(mat.rows)) for j in range(mat.cols)]
    lines = []
    for row in cells:
        lines.append("[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]")
    return "\n".join(lines)
