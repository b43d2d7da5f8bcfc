"""Lie structure, commutator matrices, specialization, modular rank."""

import random

import pytest

from nilzeta.combinat import lie_dims
from nilzeta.liering import (
    LinearFormMatrix,
    b_matrix_direct,
    b_matrix_recursive,
    build_structure,
    full_commutator_matrix,
    rank_mod,
    render_linear_matrix,
    specialize,
)


def unit(n, k):
    return tuple(1 if i == k else 0 for i in range(n))


def test_heisenberg_structure():
    s = build_structure(1, 1)
    assert s.basis_x == ((0,),)
    assert s.basis_y == ((1,),)
    assert s.brackets == ((0, 0, 1),)


def test_grenham_structure():
    n = 4
    s = build_structure(1, n)
    assert len(s.basis_x) == 1
    assert s.brackets == tuple((0, i, i + 1) for i in range(n))
    # [x, y_i] = z_i with the y layer ordered by unit vectors
    assert s.basis_y == tuple(unit(n, k) for k in range(n))


def test_23_bracket_count():
    s = build_structure(2, 3)
    assert len(s.brackets) == 9
    assert s.basis_x == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert s.basis_y == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_b_matrix_23_published(dense):
    b = b_matrix_direct(build_structure(2, 3))
    expected = {
        (0, 0): (1, 0, 0),
        (1, 0): (0, 1, 0),
        (1, 1): (1, 0, 0),
        (2, 0): (0, 0, 1),
        (2, 2): (1, 0, 0),
        (3, 1): (0, 1, 0),
        (4, 1): (0, 0, 1),
        (4, 2): (0, 1, 0),
        (5, 2): (0, 0, 1),
    }
    assert {key: dense(form, 3) for key, form in b.forms.items()} == expected


def test_b_matrix_m2_bidiagonal(dense):
    for m in range(1, 6):
        b = b_matrix_direct(build_structure(m, 2))
        assert (b.rows, b.cols) == (m + 1, m)
        for i in range(b.rows):
            for j in range(b.cols):
                entry = dense(b.entry(i, j), 2)
                if i == j:
                    assert entry == (1, 0)
                elif i == j + 1:
                    assert entry == (0, 1)
                else:
                    assert entry == (0, 0)


def test_b_matrix_grenham_column(dense):
    n = 5
    b = b_matrix_direct(build_structure(1, n))
    assert (b.rows, b.cols) == (n, 1)
    for i in range(n):
        assert dense(b.entry(i, 0), n) == unit(n, i)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_recursive_equals_direct(m, n):
    assert b_matrix_recursive(m, n) == b_matrix_direct(build_structure(m, n))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_b_matrix_shape(m, n):
    dims = lie_dims(m, n)
    b = b_matrix_recursive(m, n)
    assert (b.rows, b.cols) == (dims.f, dims.e)


def test_recursive_column_block_pattern(dense):
    # column block j: zeros of height e(j-1, n), scalar block, recursive
    # block, zeros below
    from nilzeta.combinat import e_count, f_count

    for m in range(1, 6):
        for n in range(2, 6):
            b = b_matrix_recursive(m, n)
            col = 0
            for j in range(1, m + 1):
                width = e_count(j, n - 1)
                head = e_count(j - 1, n) if j > 1 else 0
                sub = b_matrix_recursive(j, n - 1)
                for jj in range(col, col + width):
                    for i in range(b.rows):
                        entry = dense(b.entry(i, jj), n)
                        local = jj - col
                        if head <= i < head + width:
                            expected = (1,) + (0,) * (n - 1) if i - head == local else (0,) * n
                        elif head + width <= i < head + width + f_count(j, n - 1):
                            expected = (0,) + dense(sub.entry(i - head - width, local), n - 1)
                        else:
                            expected = (0,) * n
                        assert entry == expected, (m, n, i, jj)
                col += width


def test_full_commutator_heisenberg(dense):
    m11 = full_commutator_matrix(1, 1)
    assert dense(m11.entry(0, 1), 1) == (-1,)
    assert dense(m11.entry(1, 0), 1) == (1,)
    assert dense(m11.entry(0, 0), 1) == (0,)


def test_full_commutator_grenham_border(dense):
    n = 3
    m1n = full_commutator_matrix(1, n)
    assert (m1n.rows, m1n.cols) == (n + 1, n + 1)
    for i in range(n):
        assert dense(m1n.entry(0, i + 1), n) == tuple(-v for v in unit(n, i))
        assert dense(m1n.entry(i + 1, 0), n) == unit(n, i)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_antisymmetry(m, n, dense):
    mat = full_commutator_matrix(m, n)
    for i in range(mat.rows):
        for j in range(mat.cols):
            assert dense(mat.entry(i, j), n) == tuple(-c for c in dense(mat.entry(j, i), n))


def test_specialize_examples():
    b12 = b_matrix_direct(build_structure(1, 2))
    assert specialize(b12, (1, 0)) == [{0: 1}, {}]
    b22 = b_matrix_direct(build_structure(2, 2))
    values = specialize(b22, (0, 1))
    assert rank_mod(values, 2) == 2
    m = full_commutator_matrix(2, 2)
    assert specialize(m, (0, 0)) == [{}] * m.rows
    with pytest.raises(ValueError):
        specialize(b12, (1, 2, 3))


def _random_form(rng, n):
    """Pairs (k, c) over a random set of variables, in random order, with
    coefficients that may be zero or negative."""
    variables = rng.sample(range(n), rng.randrange(n + 1))
    return [(k, rng.randrange(-5, 6)) for k in variables]


@pytest.mark.parametrize("seed", range(5))
def test_specialize_equals_a_dense_evaluation(seed, dense):
    rng = random.Random(seed)
    n, rows, cols = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
    forms = {(i, j): _random_form(rng, n) for i in range(rows) for j in range(cols) if rng.random() < 0.7}
    mat = LinearFormMatrix(rows, cols, n, forms)
    for _ in range(10):
        y = [rng.randrange(-20, 21) for _ in range(n)]
        expected = [{} for _ in range(rows)]
        for (i, j), form in forms.items():
            if value := sum(c * v for c, v in zip(dense(form, n), y)):
                expected[i][j] = value
        assert specialize(mat, y) == expected


def test_forms_in_any_order_compare_equal():
    rng = random.Random(7)
    for _ in range(20):
        form = _random_form(rng, 6)
        shuffled = rng.sample(form, len(form))
        assert LinearFormMatrix(1, 1, 6, {(0, 0): form}) == LinearFormMatrix(1, 1, 6, {(0, 0): shuffled})


def test_full_rank_exhaustive():
    for m in range(1, 7):
        for n in range(1, 7):
            dims = lie_dims(m, n)
            if dims.e > 10:
                continue
            b = b_matrix_direct(build_structure(m, n))
            for q in (2, 3):
                for mask in range(1, q**n):
                    y = [(mask // q**i) % q for i in range(n)]
                    assert rank_mod(specialize(b, y), q) == dims.e


def test_render_linear_matrix():
    text = render_linear_matrix(b_matrix_direct(build_structure(1, 2)))
    lines = text.splitlines()
    assert len(lines) == 2
    assert "Y1" in lines[0] and "Y2" in lines[1]


def test_render_linear_matrix_coefficients_literal():
    # no builder makes a coefficient other than +-1, so no golden covers it
    mat = LinearFormMatrix(2, 3, 3, {(0, 0): ((0, 2), (1, -3)), (0, 2): ((2, -1),),
                                     (1, 1): ((0, -4), (1, 1), (2, 5)), (1, 2): ((1, 1),)})
    assert render_linear_matrix(mat) == "[ 2Y1-3Y2            0  -Y3 ]\n[       0  -4Y1+Y2+5Y3   Y2 ]"
