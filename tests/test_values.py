"""Value types: frozen after construction, canonical from the constructor."""

import copy
import pickle
from fractions import Fraction

import pytest

from nilzeta.combinat import Value, lie_dims
from nilzeta.igusa import IgusaData
from nilzeta.laurent import LaurentPoly
from nilzeta.liering import LinearFormMatrix, build_structure
from nilzeta.oracle import LatticeType, VerifyRecord
from nilzeta.rational import DenomFactor, RationalFunction
from nilzeta.univariate import LinearFactorRational
from nilzeta.zetas import igusa_data, numerical_data, zeta_report


@pytest.mark.parametrize("value,attr", [
    (RationalFunction(LaurentPoly.one(), [(1, 1, 1)]), "num"),
    (RationalFunction(LaurentPoly.one(), [(1, 1, 1)]), "den"),
    (LinearFormMatrix(1, 1, 1, {(0, 0): ((0, 1),)}), "forms"),
    (LinearFormMatrix(1, 1, 1, {(0, 0): ((0, 1),)}), "rows"),
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
    mat = LinearFormMatrix(2, 2, 2, {(0, 0): [(0, 1), (1, 0)], (0, 1): ((0, 0),), (1, 1): ((1, -1),)})
    assert mat.forms == {(0, 0): ((0, 1),), (1, 1): ((1, -1),)}
    assert mat.entry(0, 1) == ()
    assert mat == LinearFormMatrix(2, 2, 2, {(0, 0): ((0, 1),), (1, 1): ((1, -1),)})


def test_linear_form_matrix_rejects_a_variable_outside_its_range():
    for variable in (2, 5, -1):
        with pytest.raises(ValueError, match="outside Y_1..Y_2"):
            LinearFormMatrix(1, 1, 2, {(0, 0): ((variable, 1),)})


@pytest.mark.parametrize("form", [((0, 1), (0, 1)), ((1, 2), (0, 1), (1, -2)), ((0, 0), (0, 3))])
def test_linear_form_matrix_rejects_a_repeated_variable(form):
    with pytest.raises(ValueError, match="twice"):
        LinearFormMatrix(1, 1, 2, {(0, 0): form})


@pytest.mark.parametrize("key", [(0, 7), (5, 0), (-1, 0), (0, -1), (1, 1)])
def test_linear_form_matrix_rejects_an_entry_outside_its_shape(key):
    with pytest.raises(ValueError):
        LinearFormMatrix(1, 1, 1, {key: ((0, 1),)})


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


# One instance of every value type, its field names in declaration order and
# its repr, unchanged from when the types were frozen dataclasses.
VALUES = [
    (lie_dims(2, 3), ("m", "n", "e", "f", "d", "h"), "LieDims(m=2, n=3, e=3, f=6, d=9, h=12)"),
    (IgusaData(-1, ((1, 2), (3, 4))), ("y_qexp", "x"), "IgusaData(y_qexp=-1, x=((1, 2), (3, 4)))"),
    (build_structure(1, 2), ("dims", "basis_x", "basis_y", "brackets"),
     "LieStructure(dims=LieDims(m=1, n=2, e=1, f=2, d=3, h=5), basis_x=((0, 0),), "
     "basis_y=((1, 0), (0, 1)), brackets=((0, 0, 1), (0, 1, 2)))"),
    (LinearFormMatrix(2, 1, 2, {(0, 0): ((0, 1),), (1, 0): ((1, 1),)}), ("rows", "cols", "nvars", "forms"),
     "LinearFormMatrix(2x1 in Y_1..Y_2)"),
    (LatticeType((1, 3), (2, 1)), ("positions", "jumps"), "LatticeType(positions=(1, 3), jumps=(2, 1))"),
    (VerifyRecord(k=2, formula=5, oracle=5), ("k", "formula", "oracle"), "VerifyRecord(k=2, formula=5, oracle=5)"),
    (DenomFactor(1, 2, 3), ("a", "b", "mult"), "DenomFactor(a=1, b=2, mult=3)"),
    (RationalFunction(LaurentPoly.one() - LaurentPoly.term(1, 1, 1), [(1, 1, 1), (0, 2, 2)]), ("num", "den"),
     "RationalFunction(LaurentPoly(1-q t) / (1-q^1 t^1)(1-q^0 t^2)^2)"),
    (LinearFactorRational(6, (), ((12, 27), (10, 20))), ("const", "num_factors", "den_factors"),
     "LinearFactorRational(const=Fraction(1, 5), num_factors=(), den_factors=((4, 9), (1, 2)))"),
    (numerical_data(1, 2), ("a", "b"), "NumericalData(a=(6, 4), b=(5, 3))"),
    (zeta_report(1, 1), ("dims", "data", "ideal", "graded", "rep_local", "rep_topological", "topological",
                         "reduced", "mu", "alpha", "beta"),
     "ZetaReport(dims=LieDims(m=1, n=1, e=1, f=1, d=2, h=3), data=NumericalData(a=(2,), b=(3,)), "
     "ideal=RationalFunction(LaurentPoly(1) / (1-q^0 t^1)(1-q^1 t^1)(1-q^2 t^3)), "
     "graded=RationalFunction(LaurentPoly(1) / (1-q^0 t^1)(1-q^1 t^1)(1-q^0 t^3)), "
     "rep_local=RationalFunction(LaurentPoly(1-t) / (1-q^1 t^1)), "
     "rep_topological=LinearFactorRational(const=Fraction(1, 1), num_factors=((1, 0),), den_factors=((1, 1),)), "
     "topological=LinearFactorRational(const=Fraction(1, 1), num_factors=(), "
     "den_factors=((1, 0), (1, 1), (3, 2))), "
     "reduced=RationalFunction(LaurentPoly(1) / (1-q^0 t^1)^2(1-q^0 t^3)), "
     "mu=Fraction(1, 3), alpha=2, beta=Fraction(1, 3))"),
    (LaurentPoly.term(3, 1, 2), ("_terms",), "LaurentPoly(3 q t^2)"),
]
# Equality is mathematical for these two, and neither hashes its field tuple.
OWN_EQUALITY = (RationalFunction, LaurentPoly)


def _ids(cases):
    return [type(case[0]).__name__ for case in cases]


def test_every_value_type_is_listed():
    package_types = {cls for cls in Value.__subclasses__() if cls.__module__.startswith("nilzeta.")}
    assert {type(value) for value, _, _ in VALUES} == package_types


@pytest.mark.parametrize("value,fields,text", VALUES, ids=_ids(VALUES))
def test_fields_can_be_neither_assigned_nor_deleted(value, fields, text):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value,fields,text", VALUES, ids=_ids(VALUES))
def test_repr_is_the_dataclass_text(value, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,fields,text", VALUES, ids=_ids(VALUES))
def test_copies_and_pickles_are_equal_values(value, fields, text):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text


STRUCTURAL = [case for case in VALUES if not isinstance(case[0], OWN_EQUALITY)]


@pytest.mark.parametrize("value,fields,text", STRUCTURAL, ids=_ids(STRUCTURAL))
def test_equal_fields_of_another_type_compare_unequal(value, fields, text):
    twin_type = type("Twin", (Value,), {"__slots__": fields})
    twin = object.__new__(twin_type)
    for name in fields:
        object.__setattr__(twin, name, getattr(value, name))
    assert value == value and twin == twin
    assert value != twin and twin != value


@pytest.mark.parametrize("value,fields,text", STRUCTURAL, ids=_ids(STRUCTURAL))
def test_hash_is_the_hash_of_the_field_tuple(value, fields, text):
    key = tuple(getattr(value, name) for name in fields)
    try:
        expected = hash(key)
    except TypeError:  # a dict or a RationalFunction among the fields
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


class _Pair(Value):
    __slots__ = ("left", "right")


def test_the_base_constructor_binds_positional_and_keyword_fields_in_order():
    value = _Pair(1, [2])
    assert (value.left, value.right) == (1, [2])
    assert value == _Pair(left=1, right=[2]) == _Pair(1, right=[2]) == _Pair(right=[2], left=1)
    assert repr(value) == "_Pair(left=1, right=[2])"


@pytest.mark.parametrize("args,named", [
    ((1,), {}),  # missing
    ((), {"right": 2}),  # missing
    ((1, 2, 3), {}),  # extra
    ((1, 2), {"left": 1}),  # repeated
    ((1,), {"left": 1, "right": 2}),  # repeated
    ((1, 2), {"middle": 3}),  # unknown
    ((1,), {"middle": 3}),  # unknown
])
def test_the_base_constructor_rejects_a_missing_extra_repeated_or_unknown_field(args, named):
    # the message is the base constructor's, which names fields
    with pytest.raises(TypeError, match="field"):
        _Pair(*args, **named)


KEYWORD_BUILT = [case for case in VALUES if not isinstance(case[0], LaurentPoly)]


@pytest.mark.parametrize("value,fields,text", KEYWORD_BUILT, ids=_ids(KEYWORD_BUILT))
def test_every_value_rebuilds_from_its_fields_by_name(value, fields, text):
    twin = type(value)(**{name: getattr(value, name) for name in fields})
    assert type(twin) is type(value) and twin == value and repr(twin) == text
