"""Laurent polynomial arithmetic: exactness, canonical form."""

import ast
import operator
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nilzeta
from nilzeta.laurent import LaurentPoly


def test_difference_of_squares():
    left = LaurentPoly({(0, 0): 1, (1, 1): -1})
    right = LaurentPoly({(0, 0): 1, (1, 1): 1})
    assert left * right == LaurentPoly({(0, 0): 1, (2, 2): -1})


def test_multiplicative_identity():
    p = LaurentPoly({(0, 0): 3, (2, -1): -5, (-4, 7): 1})
    assert p * LaurentPoly.one() == p


def test_negative_exponents_preserved():
    # (1 + q^-1 t^-1) * q t = q t + 1, expanded by hand
    p = LaurentPoly({(0, 0): 1, (-1, -1): 1})
    assert p * LaurentPoly.term(1, 1, 1) == LaurentPoly({(1, 1): 1, (0, 0): 1})


def test_canonical_no_zero_coefficients():
    p = LaurentPoly({(0, 0): 1, (1, 0): 0})
    assert p.terms() == {(0, 0): 1}
    assert (p - p) == LaurentPoly.zero()
    assert not (p - p)


def test_constructor_merges_duplicate_keys():
    p = LaurentPoly([((1, 2), 3), ((1, 2), -3), ((0, 0), 1)])
    assert p.terms() == {(0, 0): 1}


def test_structural_equality_is_representation_independent():
    a = LaurentPoly({(0, 0): 1, (1, 1): 2})
    b = LaurentPoly({(1, 1): 2, (0, 0): 1})
    assert a == b and hash(a) == hash(b)


def test_sorted_terms_order():
    p = LaurentPoly({(5, 0): 1, (0, 1): 1, (-2, 1): 1, (0, 0): 1})
    keys = [key for key, _ in p.sorted_terms()]
    assert keys == [(0, 0), (5, 0), (-2, 1), (0, 1)]


def test_addition_and_negation():
    p = LaurentPoly({(1, 0): 2})
    q = LaurentPoly({(1, 0): -2, (0, 3): 1})
    assert p + q == LaurentPoly({(0, 3): 1})
    assert -(p + q) == LaurentPoly({(0, 3): -1})
    assert p - p == LaurentPoly.zero()


@pytest.mark.parametrize("other", [1.5, Fraction(1, 2)])
def test_arithmetic_with_other_number_types_raises_type_error(other):
    one = LaurentPoly.one()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(one, other)
        with pytest.raises(TypeError):
            op(other, one)


def test_constant_hashes_as_its_integer():
    assert hash(LaurentPoly.term(3)) == hash(3)
    assert hash(LaurentPoly.zero()) == hash(0)
    assert {3: 1}.get(LaurentPoly.term(3)) == 1
    assert {LaurentPoly.term(-2): "c"}[-2] == "c"


def test_power():
    base = LaurentPoly({(0, 0): 1, (0, 1): -1})
    assert base**0 == LaurentPoly.one()
    assert base**2 == LaurentPoly({(0, 0): 1, (0, 1): -2, (0, 2): 1})
    with pytest.raises(ValueError):
        base ** (-1)


def test_invert_vars_and_subs():
    p = LaurentPoly({(2, 3): 5, (-1, 0): 1})
    assert p.invert_vars() == LaurentPoly({(-2, -3): 5, (1, 0): 1})


def test_value_at_q():
    from fractions import Fraction

    p = LaurentPoly({(2, 0): 1, (-1, 0): 1})
    assert p.value_at_q(2) == Fraction(9, 2)
    assert p.value_at_q(Fraction(-2, 3)) == Fraction(4, 9) - Fraction(3, 2)
    assert LaurentPoly({(3, 0): 2, (0, 0): -1}).value_at_q(0) == -1
    assert LaurentPoly().value_at_q(7) == 0
    with pytest.raises(ZeroDivisionError):
        p.value_at_q(0)
    with pytest.raises(ValueError):
        LaurentPoly({(0, 1): 1}).value_at_q(2)


@pytest.mark.parametrize("q", [2, 3, 7, Fraction(-2, 3)])
def test_value_at_q_equals_the_sum_of_its_terms(q):
    rng = random.Random(str(q))
    for _ in range(60):
        terms = {(rng.randrange(-40, 40), 0): rng.randrange(-99, 100) for _ in range(rng.randrange(0, 30))}
        poly = LaurentPoly(terms)
        expected = sum(Fraction(c) * Fraction(q) ** eq for (eq, _), c in poly.terms().items())
        assert poly.value_at_q(q) == expected


def test_value_at_q_of_many_terms_is_subquadratic():
    # one multiplication of the running value per term is quadratic in the
    # degree: about 7 s on 2 cores
    poly = LaurentPoly(((e, 0), 1 + e % 7) for e in range(5 * 10**5))
    start = time.perf_counter()
    value = poly.value_at_q(2)
    assert time.perf_counter() - start < 2
    assert value % 2**64 == sum((1 + e % 7) << e for e in range(64)) % 2**64


def test_no_dict_comprehension_reaches_the_constructor():
    # a dict comprehension keeps the last of repeated keys; only the
    # constructor merges them, so it must be handed (key, c) pairs
    src = Path(nilzeta.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "LaurentPoly"
                    and any(isinstance(arg, ast.DictComp) for arg in node.args)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders

