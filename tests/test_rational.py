"""Factored rational functions: equality, inversion, series, limits, JSON."""

import random
from math import prod

import pytest

from nilzeta.laurent import LaurentPoly
from nilzeta.rational import (
    NonExpandableFactorError,
    RationalFunction,
    rational_dumps,
    rational_from_obj,
    rational_loads,
    factor_poly,
    rational_to_obj,
    rf_equal,
    rf_invert_vars,
    rf_limit_t1,
    rf_series_coeffs,
    rf_series_work,
)

ONE = LaurentPoly.one()


def rf(num_terms, den):
    return RationalFunction(LaurentPoly(num_terms), den)


def test_denom_factor_validation():
    # the factors are merged before they are checked, so a multiplicity
    # that merges to 0 is refused
    for den, message in [
        ([(0, 0, 1)], "denominator factor (1 - 1) is zero"),
        ([(1, -1, 1)], "t-exponent of a denominator factor must be nonnegative"),
        ([(1, 1, 2), (0, 1, 1), (1, 1, -2)], "denominator factor multiplicity must be positive"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            RationalFunction(ONE, den)
        assert str(excinfo.value) == message


def test_den_canonicalized_and_merged():
    x = RationalFunction(ONE, [(1, 1, 1), (0, 1, 2), (1, 1, 1)])
    assert x.den == ((0, 1, 2), (1, 1, 2))
    assert all(type(f) is tuple and all(type(v) is int for v in f) for f in x.den)


def test_product_merges_equal_factors():
    x = RationalFunction(ONE, [(1, 1, 1), (2, 3, 1)]) * RationalFunction(ONE, [(0, 1, 1), (1, 1, 2)])
    assert x.den == ((0, 1, 1), (1, 1, 3), (2, 3, 1))


def test_rf_equal_cancellation():
    # 1/(1-t) == (1+t)/(1-t^2)
    x = RationalFunction(ONE, [(0, 1, 1)])
    y = rf({(0, 0): 1, (0, 1): 1}, [(0, 2, 1)])
    assert rf_equal(x, y)
    assert x == y


def test_rf_equal_distinguishes():
    x = RationalFunction(ONE, [(0, 1, 1)])
    y = RationalFunction(ONE, [(1, 1, 1)])
    assert not rf_equal(x, y)


def test_rf_equal_is_equivalence_on_random_family():
    rng = random.Random(7)
    for _ in range(20):
        num = LaurentPoly(
            {(rng.randrange(-3, 6), rng.randrange(0, 5)): rng.randrange(-4, 5) for _ in range(4)}
        )
        if not num:
            num = ONE
        den = [(rng.randrange(0, 4), rng.randrange(1, 4), 1) for _ in range(3)]
        x = RationalFunction(num, den)
        y = RationalFunction(num * factor_poly(1, 1), list(den) + [(1, 1, 1)])
        z = RationalFunction(num * factor_poly(0, 2), list(den) + [(0, 2, 1)])
        assert rf_equal(x, x)
        assert rf_equal(x, y) and rf_equal(y, x)
        assert rf_equal(y, z) and rf_equal(x, z)


def test_invert_vars_single_factor():
    x = RationalFunction(ONE, [(1, 1, 1)])
    inv = rf_invert_vars(x)
    assert inv.num == LaurentPoly({(1, 1): -1})
    assert inv.den == x.den


def test_invert_vars_three_factors():
    # 1/((1-t)(1-qt)(1-q^2 t^3)) -> (-1)^3 q^3 t^5 * itself
    x = RationalFunction(ONE, [(0, 1, 1), (1, 1, 1), (2, 3, 1)])
    inv = rf_invert_vars(x)
    target = x * LaurentPoly.term(-1, 3, 5)
    assert rf_equal(inv, target)


def test_invert_vars_constant():
    x = RationalFunction(ONE)
    assert rf_equal(rf_invert_vars(x), x)


def test_invert_vars_is_involution():
    rng = random.Random(11)
    for _ in range(10):
        num = LaurentPoly(
            {(rng.randrange(-2, 5), rng.randrange(-2, 5)): rng.randrange(1, 5) for _ in range(3)}
        )
        den = [(rng.randrange(0, 5), rng.randrange(0, 3), rng.randrange(1, 3)) for _ in range(2)]
        den = [(a, b, m) for a, b, m in den if (a, b) != (0, 0)]
        x = RationalFunction(num, den)
        assert rf_equal(rf_invert_vars(rf_invert_vars(x)), x)


def test_series_geometric_product():
    x = RationalFunction(ONE, [(0, 1, 1), (1, 1, 1)])
    coeffs = rf_series_coeffs(x, 2)
    assert coeffs == [
        LaurentPoly({(0, 0): 1}),
        LaurentPoly({(0, 0): 1, (1, 0): 1}),
        LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1}),
    ]


def test_series_heisenberg():
    x = RationalFunction(ONE, [(0, 1, 1), (1, 1, 1), (2, 3, 1)])
    coeffs = rf_series_coeffs(x, 3)
    assert coeffs[3] == LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1})


def test_series_sparse_factor():
    x = RationalFunction(ONE, [(2, 3, 1)])
    assert rf_series_coeffs(x, 2) == [ONE, LaurentPoly.zero(), LaurentPoly.zero()]


def test_series_work_bounds_rows():
    # positive numerators cannot cancel, so every row key is a term; a
    # factor reads rows 0..upto - b, each at most as full as at the end
    rng = random.Random(11)
    for _ in range(40):
        upto = rng.randrange(0, 9)
        num = {(rng.randrange(-3, 6), rng.randrange(0, 4)): rng.randrange(1, 4) for _ in range(3)}
        den = [(rng.randrange(-2, 6), rng.randrange(1, 4), rng.randrange(1, 3)) for _ in range(3)]
        x = rf(num, den)
        sizes = [len(c.terms()) for c in rf_series_coeffs(x, upto)]
        updates, terms = rf_series_work(x, upto)
        assert terms >= sum(sizes)
        assert updates >= sum(mult * sum(sizes[: max(upto - b + 1, 0)]) for _, b, mult in x.den)


def test_series_work_heisenberg_exact():
    # 1/((1 - t)(1 - q t)(1 - q^2 t^3)): row k holds q^0 .. q^k; the two
    # factors with b = 1 read rows 0..99, the third rows 0..97
    x = RationalFunction(ONE, [(0, 1, 1), (1, 1, 1), (2, 3, 1)])
    assert rf_series_work(x, 100) == (2 * 5050 + 4851, 5151)
    assert sum(len(c.terms()) for c in rf_series_coeffs(x, 100)) == 5151


def test_series_rejects_b_zero_factor():
    x = RationalFunction(ONE, [(1, 0, 1)])
    with pytest.raises(NonExpandableFactorError):
        rf_series_coeffs(x, 2)


def test_series_rejects_negative_t_numerator():
    x = RationalFunction(LaurentPoly({(0, -1): 1}), [(0, 1, 1)])
    with pytest.raises(ValueError):
        rf_series_coeffs(x, 2)


def test_series_cauchy_product():
    rng = random.Random(3)
    upto = 5
    for _ in range(10):
        x = RationalFunction(
            LaurentPoly({(rng.randrange(0, 3), rng.randrange(0, 3)): rng.randrange(1, 4)}),
            [(rng.randrange(0, 3), rng.randrange(1, 3), 1)],
        )
        y = RationalFunction(
            LaurentPoly({(rng.randrange(0, 3), rng.randrange(0, 3)): rng.randrange(1, 4)}),
            [(rng.randrange(0, 3), rng.randrange(1, 3), 1)],
        )
        cx = rf_series_coeffs(x, upto)
        cy = rf_series_coeffs(y, upto)
        cxy = rf_series_coeffs(x * y, upto)
        for k in range(upto + 1):
            cauchy = LaurentPoly.zero()
            for i in range(k + 1):
                cauchy = cauchy + cx[i] * cy[k - i]
            assert cxy[k] == cauchy


def at_t1(poly):
    """A polynomial evaluated at t = 1, for the expected leading terms."""
    return LaurentPoly(((eq, 0), c) for (eq, _), c in poly.terms().items())


def test_limit_cyclotomic():
    # order 0: (1 - t^3)/(1 - t) -> 3
    x = rf({(0, 0): 1, (0, 3): -1}, [(0, 1, 1)])
    order, lead, prod_b = rf_limit_t1(x)
    assert (order, prod_b) == (0, 1)
    assert rf_equal(lead, RationalFunction(LaurentPoly.term(3)))


def test_limit_zero():
    # negative order: (1 - t)^2/(1 - qt) vanishes to order 2, like (1 - t)^2/(1 - q)
    x = rf({(0, 0): 1, (0, 1): -2, (0, 2): 1}, [(1, 1, 1)])
    order, lead, prod_b = rf_limit_t1(x)
    assert (order, prod_b) == (-2, 1)
    assert lead.num == ONE
    assert lead.den == ((1, 0, 1),)


def test_limit_cancel_and_evaluate():
    # (1-t) * 1/((1-t)(1-qt)) -> 1/(1-q), the factor (1 - q) kept as a factor
    x = rf({(0, 0): 1, (0, 1): -1}, [(0, 1, 1), (1, 1, 1)])
    order, lead, prod_b = rf_limit_t1(x)
    assert (order, prod_b) == (0, 1)
    assert lead.num == ONE
    assert lead.den == ((1, 0, 1),)


def test_limit_reports_residual_pole_order():
    # order > 0: 1/((1 - t^2)(1 - t^3)(1 - q^2 t)(1 - q^2)) ~ 1/(6 (1 - q^2)^2 (1 - t)^2)
    x = RationalFunction(ONE, [(0, 2, 1), (0, 3, 1), (2, 1, 1), (2, 0, 1)])
    order, lead, prod_b = rf_limit_t1(x)
    assert (order, prod_b) == (2, 6)
    assert lead.num == ONE
    assert lead.den == ((2, 0, 2),)


def test_limit_reads_negative_t_exponents():
    # (t^-1 - t)/(1 - t)^2 = t^-1 (1 + t)/(1 - t) ~ 2/(1 - t)
    x = rf({(0, -1): 1, (0, 1): -1}, [(0, 1, 2)])
    order, lead, prod_b = rf_limit_t1(x)
    assert (order, prod_b) == (1, 1)
    assert lead.num == LaurentPoly.term(2)
    assert lead.den == ()


def test_limit_of_zero_raises():
    with pytest.raises(ValueError, match="no leading term"):
        rf_limit_t1(RationalFunction(LaurentPoly.zero(), [(0, 1, 1)]))


def test_limit_against_known_answers():
    # x = g (1 - t)^j / den with g(1) != 0 behaves like
    # g(1) / (prod_{a=0} b^mult * prod_{a!=0} (1 - q^a)^mult * (1 - t)^(P - j)),
    # with P the count of the factors with a = 0: a pole for j < P, a zero for j > P.
    rng = random.Random(13)
    one_minus_t = LaurentPoly({(0, 0): 1, (0, 1): -1})
    for _ in range(60):
        g = LaurentPoly(
            {(rng.randrange(-3, 4), rng.randrange(-3, 5)): rng.randrange(-5, 6) for _ in range(4)}
        )
        if not at_t1(g):
            continue
        den = [(rng.randrange(0, 3), rng.randrange(1, 4), rng.randrange(1, 3)) for _ in range(3)]
        den += [(rng.randrange(1, 3), 0, 1)] * rng.randrange(0, 2)
        pole = sum(m for a, _, m in den if a == 0)
        prod_b = prod(b**m for a, b, m in den if a == 0)
        expected = RationalFunction(at_t1(g), [(a, 0, m) for a, _, m in den if a])
        for j in range(pole + 3):
            order, lead, got_b = rf_limit_t1(RationalFunction(g * one_minus_t**j, den))
            assert (order, got_b) == (pole - j, prod_b)
            assert (lead.num, lead.den) == (expected.num, expected.den)


def test_json_round_trip_bit_exact():
    x = rf({(0, 0): 1, (9, 7): 1, (28, 17): -12345678901234567890}, [(0, 1, 9), (11, 7, 1)])
    blob = rational_dumps(x)
    again = rational_loads(blob)
    assert rational_dumps(again) == blob
    assert rf_equal(x, again)
    obj = rational_to_obj(x)
    assert obj["num"][0] == {"q": 0, "t": 0, "c": "1"}
    assert obj["den"][0] == {"a": 0, "b": 1, "mult": 9}
    assert rf_equal(rational_from_obj(obj), x)


def test_json_load_merges_repeated_terms():
    x = rational_loads('{"num":[{"q":0,"t":0,"c":"1"},{"q":0,"t":0,"c":"2"}],"den":[]}')
    assert x.num == LaurentPoly({(0, 0): 3})
    y = rational_loads('{"num":[{"q":1,"t":0,"c":"4"},{"q":1,"t":0,"c":"-4"}],"den":[]}')
    assert not y.num
