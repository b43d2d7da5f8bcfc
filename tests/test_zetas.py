"""Closed-form zeta functions: anchors, symmetries, degenerations."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from nilzeta import zetas
from nilzeta.combinat import lie_dims
from nilzeta.igusa import igusa_reduced
from nilzeta.laurent import LaurentPoly
from nilzeta.rational import RationalFunction, rf_equal, rf_series_coeffs
from nilzeta.univariate import LinearFactorRational
from nilzeta.zetas import (
    _leading_ratio_is,
    abelian_zeta,
    analytic_invariants,
    check_functional_equation,
    check_zero_behaviour,
    graded_ideal_zeta,
    ideal_zeta,
    numerical_data,
    reduced_ideal_zeta,
    rep_zeta,
    topological_ideal_zeta,
    zeta_report,
)


def test_numerical_data_23():
    nd = numerical_data(2, 3)
    assert nd.a == (27, 20, 11)
    assert nd.b == (12, 10, 7)


def test_numerical_data_heisenberg():
    for m in (1, 2, 3, 5):
        nd = numerical_data(m, 1)
        assert nd.a == (2,)
        assert nd.b == (3,)


def test_numerical_data_12():
    nd = numerical_data(1, 2)
    assert nd.a == (6, 4)
    assert nd.b == (5, 3)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_numerical_data_anchor(m, n):
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    assert nd.a[0] == dims.d * n
    assert nd.b[0] == dims.h


def test_abelian_zeta():
    z1 = abelian_zeta(1)
    assert [(a, b) for a, b, _ in z1.den] == [(0, 1)]
    z2 = rf_series_coeffs(abelian_zeta(2), 2)
    assert z2 == [
        LaurentPoly.one(),
        LaurentPoly({(0, 0): 1, (1, 0): 1}),
        LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1}),
    ]
    c2 = rf_series_coeffs(abelian_zeta(3), 2)[2]
    assert c2 == LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1})


def test_ideal_zeta_heisenberg():
    expected = RationalFunction(LaurentPoly.one(), [(0, 1, 1), (1, 1, 1), (2, 3, 1)])
    for m in (1, 2, 3, 5):
        assert rf_equal(ideal_zeta(m, 1), expected)


def test_ideal_zeta_23_exact():
    fixture = RationalFunction(
        LaurentPoly({(0, 0): 1, (9, 7): 1, (10, 7): 1, (18, 10): 1, (19, 10): 1, (28, 17): 1}),
        [(i, 1, 1) for i in range(9)] + [(27, 12, 1), (20, 10, 1), (11, 7, 1)],
    )
    assert rf_equal(ideal_zeta(2, 3), fixture)


def test_ideal_zeta_12():
    fixture = RationalFunction(
        LaurentPoly({(0, 0): 1, (3, 3): 1}),
        [(0, 1, 1), (1, 1, 1), (2, 1, 1), (4, 3, 1), (6, 5, 1)],
    )
    assert rf_equal(ideal_zeta(1, 2), fixture)
    c1 = rf_series_coeffs(ideal_zeta(1, 2), 1)[1]
    assert c1 == LaurentPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1})


@pytest.mark.parametrize("m", range(1, 6))
def test_n2_specialization_identity(m):
    # degree-2 numerator 1 + q^(2m+1) t^(2m+1), data ((2(2m+1), 2m+2), (2m+3, 2m+1))
    nd = numerical_data(m, 2)
    assert nd.a == (2 * (2 * m + 1), 2 * m + 2)
    assert nd.b == (2 * m + 3, 2 * m + 1)
    z = ideal_zeta(m, 2)
    assert z.num == LaurentPoly({(0, 0): 1, (2 * m + 1, 2 * m + 1): 1})


def test_graded_zeta_heisenberg():
    expected = RationalFunction(LaurentPoly.one(), [(0, 1, 1), (1, 1, 1), (0, 3, 1)])
    assert rf_equal(graded_ideal_zeta(2, 1), expected)


def test_graded_zeta_12():
    z = graded_ideal_zeta(1, 2)
    assert z.num == LaurentPoly({(0, 0): 1, (0, 3): 1})
    assert [(a, b) for a, b, _ in z.den] == [(0, 1), (1, 1), (2, 1), (1, 3), (0, 5)]


def test_graded_zeta_23_constant_term():
    assert rf_series_coeffs(graded_ideal_zeta(2, 3), 0)[0] == LaurentPoly.one()


def test_rep_zeta_forms():
    local, topological = rep_zeta(2, 1)
    assert local.num == LaurentPoly({(0, 0): 1, (0, 1): -1})
    assert [(a, b) for a, b, _ in local.den] == [(1, 1)]
    local, topological = rep_zeta(1, 2)
    assert local.num == LaurentPoly({(0, 0): 1, (0, 1): -1})
    assert [(a, b) for a, b, _ in local.den] == [(2, 1)]
    _, topological = rep_zeta(2, 3)
    assert topological.equal(LinearFactorRational(1, ((1, 0),), ((1, 1),)))


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_rep_zeta_grid(m, n):
    dims = lie_dims(m, n)
    local, topological = rep_zeta(m, n)
    assert local.num == LaurentPoly({(0, 0): 1, (0, dims.e): -1})
    assert local.den == ((n, dims.e, 1),)
    assert topological.equal(
        LinearFactorRational(1, ((dims.e, 0),), ((dims.e, n),))
    )


def test_topological_23_published():
    fixture = LinearFactorRational(
        Fraction(1, 5),
        (),
        tuple((1, i) for i in range(9)) + ((4, 9), (1, 2), (7, 11)),
    )
    assert topological_ideal_zeta(2, 3).equal(fixture)


def test_topological_heisenberg():
    fixture = LinearFactorRational(1, (), ((1, 0), (1, 1), (3, 2)))
    assert topological_ideal_zeta(3, 1).equal(fixture)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_topological_degree(m, n):
    dims = lie_dims(m, n)
    assert topological_ideal_zeta(m, n).degree() == -dims.h


def test_reduced_23_published():
    fn, mu = reduced_ideal_zeta(2, 3)
    fixture = RationalFunction(
        LaurentPoly({(0, 0): 1, (0, 7): 2, (0, 10): 2, (0, 17): 1}),
        [(0, 1, 9), (0, 7, 1), (0, 10, 1), (0, 12, 1)],
    )
    assert rf_equal(fn, fixture)
    assert mu == Fraction(1, 140)


def test_reduced_heisenberg():
    fn, mu = reduced_ideal_zeta(2, 1)
    fixture = RationalFunction(LaurentPoly.one(), [(0, 1, 2), (0, 3, 1)])
    assert rf_equal(fn, fixture)
    assert mu == Fraction(1, 3)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_reduced_degree(m, n):
    dims = lie_dims(m, n)
    fn, _ = reduced_ideal_zeta(m, n)
    num_deg = max(et for _, et in fn.num.terms())
    den_deg = sum(b * mult for _, b, mult in fn.den)
    assert num_deg - den_deg == -dims.d - dims.h


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_reduced_residue_generic_route(m, n):
    # the residue by hand, without rf_limit_t1: every factor of the reduced
    # function is (1 - t^b), that is (1 - t) times a cofactor worth b at t = 1,
    # and the numerator is worth n! there
    dims = lie_dims(m, n)
    fn, mu = reduced_ideal_zeta(m, n)
    assert all(a == 0 for a, _, _ in fn.den)
    assert sum(mult for _, _, mult in fn.den) == dims.h
    at_one = sum(fn.num.terms().values())
    assert at_one == factorial(n)
    assert Fraction(at_one, prod(b**mult for _, b, mult in fn.den)) == mu


def test_reduced_pole_order_is_read_from_the_numerator(monkeypatch):
    # a numerator vanishing at Y = 1 lowers the pole order below h while the
    # factor count stays h; the check must see it
    def vanishing(b):
        base = igusa_reduced(b)
        return RationalFunction(base.num * LaurentPoly({(0, 0): 1, (0, 1): -1}), base.den)

    monkeypatch.setattr(zetas, "igusa_reduced", vanishing)
    with pytest.raises(AssertionError, match="pole order at Y = 1 is not h"):
        reduced_ideal_zeta(2, 3)


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_mu_times_h_factorial_integral(m, n):
    dims = lie_dims(m, n)
    _, mu = reduced_ideal_zeta(m, n)
    assert mu > 0
    assert (mu * factorial(dims.h)).denominator == 1


def test_analytic_invariants_anchors():
    alpha, beta = analytic_invariants(2, 3)
    assert alpha == 9
    assert beta == Fraction(19, 10)
    alpha, _ = analytic_invariants(4, 1)
    assert alpha == 2


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(1, 9))
def test_beta_below_alpha(m, n):
    alpha, beta = analytic_invariants(m, n)
    assert beta < alpha


def test_functional_equation_examples():
    assert check_functional_equation(2, 1)
    assert check_functional_equation(1, 2)
    assert check_functional_equation(2, 3)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_functional_equation_grid(m, n):
    assert check_functional_equation(m, n)


def test_functional_equation_monomial_shape():
    # the (1,2) case inverts to -q^10 t^8 times itself
    from nilzeta.rational import rf_invert_vars

    dims = lie_dims(1, 2)
    assert (dims.h, comb(dims.h, 2), dims.d + dims.h) == (5, 10, 8)
    z = ideal_zeta(1, 2)
    assert rf_equal(rf_invert_vars(z), z * LaurentPoly.term(-1, 10, 8))


def test_zero_behaviour_heisenberg():
    assert check_zero_behaviour(3, 1) == (True, True)
    dims = lie_dims(3, 1)
    graded, divisor = graded_ideal_zeta(3, 1), abelian_zeta(dims.d) * abelian_zeta(1)
    assert _leading_ratio_is(graded, divisor, Fraction(1, 3))
    assert not _leading_ratio_is(graded, divisor, Fraction(1, 2))


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("n", range(1, 5))
def test_zero_behaviour_grid(m, n):
    assert check_zero_behaviour(m, n) == (True, True)


def test_zero_behaviour_23_ratio_value():
    graded, divisor = graded_ideal_zeta(2, 3), abelian_zeta(9) * abelian_zeta(3)
    assert _leading_ratio_is(graded, divisor, Fraction(1, 4))
    assert not _leading_ratio_is(graded, divisor, Fraction(1, 3))


def test_zero_behaviour_reads_false_when_the_orders_differ(monkeypatch):
    # zeta (1 - t) has no pole at t = 1, the abelian divisor a simple one
    def vanishing(m, n):
        return ideal_zeta(m, n) * LaurentPoly({(0, 0): 1, (0, 1): -1})

    monkeypatch.setattr(zetas, "ideal_zeta", vanishing)
    assert check_zero_behaviour(2, 3) == (False, True)


def test_zeta_report_aggregates():
    report = zeta_report(2, 3)
    assert report.alpha == report.dims.d == 9
    assert report.mu == Fraction(1, 140)
    assert report.beta == Fraction(19, 10)
    assert rf_equal(report.ideal, ideal_zeta(2, 3))


@pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (2, 3), (1, 5), (4, 4)])
@pytest.mark.parametrize("field,shift", [("alpha", 1), ("beta", Fraction(1, 7)), ("beta", Fraction(-1, 7))])
def test_zeta_report_rejects_invariants_the_ideal_zeta_function_contradicts(monkeypatch, m, n, field, shift):
    # alpha is the rightmost pole (a + 1)/b of the ideal zeta function and
    # beta the largest q/t ratio of its numerator; a moved one must raise
    import nilzeta.zetas as zetas_mod

    real = zetas_mod.analytic_invariants

    def moved(m, n):
        alpha, beta = real(m, n)
        return (alpha + shift, beta) if field == "alpha" else (alpha, beta + shift)

    monkeypatch.setattr(zetas_mod, "analytic_invariants", moved)
    with pytest.raises(AssertionError, match=field):
        zeta_report(m, n)
