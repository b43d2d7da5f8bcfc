"""Hypothesis property tests: the LaurentPoly constructor's merge and the
ring laws, series against the expanded denominator, series multiplicativity,
q-Pascal and symmetry of Gaussian binomials, inversion, JSON round trip."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nilzeta.cli import _dumps  # noqa: E402
from nilzeta.combinat import gaussian_binomial  # noqa: E402
from nilzeta.laurent import LaurentPoly  # noqa: E402
from nilzeta.rational import (  # noqa: E402
    RationalFunction,
    factor_poly,
    rational_to_obj,
    rf_equal,
    rf_invert_vars,
    rf_series_coeffs,
)

from references import rational_from_obj  # noqa: E402

PROPS = settings(max_examples=60, deadline=None)


def polys(tmin):
    keys = st.tuples(st.integers(-4, 6), st.integers(tmin, 6))
    return st.dictionaries(keys, st.integers(-9, 9), max_size=5).map(LaurentPoly)


def factors(bmin):
    return st.lists(
        st.tuples(st.integers(0, 4), st.integers(bmin, 3), st.integers(1, 3)).filter(
            lambda f: f[:2] != (0, 0)
        ),
        max_size=3,
    )


def y_add_shifted(p, q, k):
    """p + Y^k q on coefficient tuples."""
    out = list(p) + [0] * max(0, k + len(q) - len(p))
    for i, c in enumerate(q):
        out[i + k] += c
    return tuple(out)


def truncated(poly, upto):
    return LaurentPoly({key: c for key, c in poly.terms().items() if key[1] <= upto})


# a small key range, so that keys repeat
SMALL_KEYS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@PROPS
@given(st.lists(st.tuples(SMALL_KEYS, st.integers(-3, 3)), max_size=20), st.integers(0, 20))
def test_constructor_merges_repeated_keys(pairs, cut):
    # the first `cut` pairs come back negated, so some keys cancel to zero
    pairs = pairs + [(key, -c) for key, c in pairs[:cut]]
    summed: dict[tuple[int, int], int] = {}
    for key, c in pairs:
        summed[key] = summed.get(key, 0) + c
    assert LaurentPoly(pairs).terms() == {key: c for key, c in summed.items() if c}


@PROPS
@given(polys(-6), polys(-6), polys(-6))
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.one() == a == a + LaurentPoly.zero()
    assert a * LaurentPoly.zero() == LaurentPoly.zero()


@PROPS
@given(polys(0), factors(1), st.integers(0, 8))
def test_series_times_denominator_is_numerator(num, den, upto):
    x = RationalFunction(num, den)
    coeffs = rf_series_coeffs(x, upto)
    series = LaurentPoly(((eq, k), c) for k, coeff in enumerate(coeffs) for (eq, _), c in coeff.terms().items())
    product = series
    for a, b, mult in x.den:
        product = product * factor_poly(a, b) ** mult
    assert truncated(product, upto) == truncated(num, upto)


@PROPS
@given(polys(0), factors(1), polys(0), factors(1), st.integers(0, 8))
def test_series_of_product_is_cauchy_product(num_x, den_x, num_y, den_y, upto):
    x, y = RationalFunction(num_x, den_x), RationalFunction(num_y, den_y)
    sx, sy = rf_series_coeffs(x, upto), rf_series_coeffs(y, upto)
    cauchy = [sum((sx[i] * sy[k - i] for i in range(k + 1)), LaurentPoly.zero()) for k in range(upto + 1)]
    assert rf_series_coeffs(x * y, upto) == cauchy


@PROPS
@given(st.integers(1, 14).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))))
def test_gaussian_binomial_second_q_pascal(kj):
    # (k choose j) = (k-1 choose j) + Y^(k-j) (k-1 choose j-1)
    k, j = kj
    upper = gaussian_binomial(k - 1, j) if j < k else ()
    assert gaussian_binomial(k, j) == y_add_shifted(upper, gaussian_binomial(k - 1, j - 1), k - j)


@PROPS
@given(st.integers(0, 16).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, a))))
def test_gaussian_binomial_symmetry(ab):
    a, b = ab
    assert gaussian_binomial(a, b) == gaussian_binomial(a, a - b)


@PROPS
@given(polys(-6), factors(0))
def test_invert_vars_is_involution(num, den):
    x = RationalFunction(num, den)
    assert rf_equal(rf_invert_vars(rf_invert_vars(x)), x)


@PROPS
@given(polys(-6), factors(0))
def test_json_round_trip(num, den):
    x = RationalFunction(num, den)
    blob = _dumps(rational_to_obj(x))
    again = rational_from_obj(json.loads(blob))
    assert _dumps(rational_to_obj(again)) == blob
    assert again.num == x.num and again.den == x.den
