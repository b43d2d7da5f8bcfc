"""Value types: frozen after construction, canonical from the constructor."""

from fractions import Fraction

import pytest

from nilzeta.igusa import IgusaData
from nilzeta.laurent import LaurentPoly
from nilzeta.liering import LinearFormMatrix
from nilzeta.rational import DenomFactor, RationalFunction
from nilzeta.univariate import LinearFactorRational
from nilzeta.zetas import igusa_data


@pytest.mark.parametrize("value,attr", [
    (RationalFunction(LaurentPoly.one(), [(1, 1, 1)]), "num"),
    (RationalFunction(LaurentPoly.one(), [(1, 1, 1)]), "den"),
    (LinearFormMatrix(1, 1, 1, {(0, 0): (1,)}), "forms"),
    (LinearFormMatrix(1, 1, 1, {(0, 0): (1,)}), "rows"),
    (LinearFactorRational(1, (), ((1, 0),)), "const"),
    (IgusaData(-1, ((1, 1),)), "x"),
    (IgusaData(-1, ((1, 1),)), "n"),
])
def test_assigning_an_attribute_raises(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, None)


def test_linear_factor_rational_pulls_contents_into_the_constant():
    value = LinearFactorRational(6, (), ((12, 27), (10, 20)))
    assert value.const == Fraction(1, 5)
    assert value.num_factors == ()
    assert value.den_factors == ((4, 9), (1, 2))


def test_linear_factor_rational_rejects_a_nonpositive_leading_coefficient():
    with pytest.raises(ValueError):
        LinearFactorRational(1, ((0, 1),))
    with pytest.raises(ValueError):
        LinearFactorRational(1, (), ((-1, 2),))


def test_rational_function_merges_equal_factors():
    value = RationalFunction(LaurentPoly.one(), [(1, 1, 1), (1, 1, 2)])
    assert value.den == (DenomFactor(1, 1, 3),)


def test_linear_form_matrix_drops_zero_vectors():
    mat = LinearFormMatrix(2, 2, 2, {(0, 0): [1, 0], (0, 1): (0, 0), (1, 1): (0, -1)})
    assert mat.entries() == {(0, 0): (1, 0), (1, 1): (0, -1)}
    assert mat.entry(0, 1) == (0, 0)
    assert mat == LinearFormMatrix(2, 2, 2, {(0, 0): (1, 0), (1, 1): (0, -1)})


def test_linear_form_matrix_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError):
        LinearFormMatrix(1, 1, 2, {(0, 0): (1,)})


def test_igusa_data_degree_is_the_number_of_monomials():
    assert IgusaData(-1, ((1, 1), (2, 3))).n == 2
    with pytest.raises(ValueError):
        IgusaData(-1, ())


def test_igusa_data_of_the_paper_runs_from_the_last_index():
    # X_j takes (a_(n-j), b_(n-j))
    data = igusa_data((1, 2, 3), (4, 5, 6))
    assert data == IgusaData(-1, ((3, 6), (2, 5), (1, 4)))
    with pytest.raises(ValueError):
        igusa_data((1, 2), (4,))
