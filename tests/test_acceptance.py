"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact (integers, rationals, or symbolic
equality), with wall-clock ceilings asserted where stated.
"""

import random
import time
from fractions import Fraction
from math import factorial

from nilzeta.combinat import lie_dims
from nilzeta.igusa import IgusaData, igusa_permutation, igusa_subset
from nilzeta.laurent import LaurentPoly
from nilzeta.liering import (
    b_matrix_direct,
    b_matrix_recursive,
    build_structure,
    rank_mod,
    specialize,
)
from nilzeta.oracle import (
    LatticeType,
    congruence_index_check,
    maximal_lattice_census,
    rep_matrix_check,
    verify_dirichlet,
)
from nilzeta.rational import RationalFunction, rf_equal
from nilzeta.univariate import LinearFactorRational
from nilzeta.zetas import (
    analytic_invariants,
    check_functional_equation,
    check_zero_behaviour,
    ideal_zeta,
    igusa_data,
    numerical_data,
    reduced_ideal_zeta,
    rep_zeta,
    topological_ideal_zeta,
)


def _report(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_example_exactness():
    start = time.monotonic()
    fixture = RationalFunction(
        LaurentPoly({(0, 0): 1, (9, 7): 1, (10, 7): 1, (18, 10): 1, (19, 10): 1, (28, 17): 1}),
        [(i, 1, 1) for i in range(9)] + [(27, 12, 1), (20, 10, 1), (11, 7, 1)],
    )
    ok = rf_equal(ideal_zeta(2, 3), fixture)
    elapsed = time.monotonic() - start
    _report(1, "example exactness (2,3)", ok and elapsed < 1.0, elapsed)


def test_criterion_02_heisenberg():
    start = time.monotonic()
    fixture = RationalFunction(LaurentPoly.one(), [(0, 1, 1), (1, 1, 1), (2, 3, 1)])
    ok = all(rf_equal(ideal_zeta(m, 1), fixture) for m in (1, 2, 3, 5))
    elapsed = time.monotonic() - start
    _report(2, "Heisenberg closed form", ok and elapsed < 1.0, elapsed)


def test_criterion_03_oracle_concordance_ideal():
    start = time.monotonic()
    configs = [
        (1, 1, 2, 6),
        (1, 1, 3, 6),
        (1, 2, 2, 4),
        (1, 2, 3, 4),
        (2, 2, 2, 4),
        (1, 3, 2, 3),
        (2, 2, 2, 5),
        (2, 2, 3, 4),
        (2, 3, 2, 2),
        (2, 3, 2, 6),
        (2, 3, 3, 4),
        (2, 4, 2, 4),
        (3, 3, 2, 4),
    ]
    ok = True
    for m, n, p, upto in configs:
        records = verify_dirichlet(m, n, p, upto)
        ok = ok and all(r.match for r in records)
    elapsed = time.monotonic() - start
    _report(3, "oracle concordance (ideal)", ok and elapsed < 600.0, elapsed)


def test_criterion_04_oracle_concordance_graded():
    start = time.monotonic()
    configs = [(1, 1, 2, 5), (1, 2, 2, 3), (1, 2, 3, 3), (2, 3, 2, 4)]
    ok = True
    for m, n, p, upto in configs:
        records = verify_dirichlet(m, n, p, upto, graded=True)
        ok = ok and all(r.match for r in records)
    elapsed = time.monotonic() - start
    _report(4, "oracle concordance (graded)", ok and elapsed < 300.0, elapsed)


def test_criterion_05_functional_equation():
    start = time.monotonic()
    # (1, 10) and (2, 10) lie past the permutation walk's reach
    grid = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(1, 10), (2, 10)]
    ok = all(check_functional_equation(m, n) for m, n in grid)
    elapsed = time.monotonic() - start
    _report(5, "functional equation grid", ok and elapsed < 60.0, elapsed)


def test_criterion_06_zero_behaviour():
    start = time.monotonic()
    grid = [(m, n) for m in range(1, 4) for n in range(1, 5)] + [(1, 10), (2, 10)]
    ok = all(check_zero_behaviour(m, n) == (True, True) for m, n in grid)
    elapsed = time.monotonic() - start
    _report(6, "zero behaviour grid", ok, elapsed)


def test_criterion_07_topological_reduced_anchors():
    start = time.monotonic()
    topo_fixture = LinearFactorRational(
        Fraction(1, 5),
        (),
        tuple((1, i) for i in range(9)) + ((4, 9), (1, 2), (7, 11)),
    )
    ok = topological_ideal_zeta(2, 3).equal(topo_fixture)
    reduced_fixture = RationalFunction(
        LaurentPoly({(0, 0): 1, (0, 7): 2, (0, 10): 2, (0, 17): 1}),
        [(0, 1, 9), (0, 7, 1), (0, 10, 1), (0, 12, 1)],
    )
    fn, mu = reduced_ideal_zeta(2, 3)
    ok = ok and rf_equal(fn, reduced_fixture) and mu == Fraction(1, 140)
    for m in range(1, 9):
        for n in range(1, 9):
            _, mu_mn = reduced_ideal_zeta(m, n)
            ok = ok and (mu_mn * factorial(lie_dims(m, n).h)).denominator == 1
    elapsed = time.monotonic() - start
    _report(7, "topological/reduced anchors", ok, elapsed)


def test_criterion_08_igusa_form_equivalence():
    start = time.monotonic()
    rng = random.Random(20240)
    ok = True
    for n in range(1, 6):
        for _ in range(20):
            x = tuple((rng.randrange(0, 40), rng.randrange(1, 12)) for _ in range(n))
            data = IgusaData(-1, x)
            ok = ok and rf_equal(igusa_subset(data), igusa_permutation(data))
    # the paper's X-data, where the subset form is the census's only
    # independent check above n = 8
    for m, n in ((2, 10), (1, 12)):
        nd = numerical_data(m, n)
        data = igusa_data(nd.a, nd.b)
        ok = ok and rf_equal(igusa_subset(data), igusa_permutation(data))
    elapsed = time.monotonic() - start
    _report(8, "Igusa form equivalence", ok, elapsed)


def test_criterion_09_commutator_matrices():
    start = time.monotonic()
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            ok = ok and b_matrix_recursive(m, n) == b_matrix_direct(build_structure(m, n))
    # the three worked matrices
    b23 = b_matrix_direct(build_structure(2, 3))
    expected_23 = {
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
    ok = ok and b23.entries() == expected_23
    b32 = b_matrix_direct(build_structure(3, 2))
    for i in range(4):
        for j in range(3):
            entry = b32.entry(i, j)
            expected = (1, 0) if i == j else (0, 1) if i == j + 1 else (0, 0)
            ok = ok and entry == expected
    b14 = b_matrix_direct(build_structure(1, 4))
    ok = ok and all(
        b14.entry(i, 0) == tuple(1 if k == i else 0 for k in range(4)) for i in range(4)
    )
    # full-rank behaviour, exhaustive over nonzero vectors
    for m in range(1, 7):
        for n in range(1, 7):
            dims = lie_dims(m, n)
            if dims.e > 10:
                continue
            b = b_matrix_direct(build_structure(m, n))
            for q in (2, 3):
                for mask in range(1, q**n):
                    y = [(mask // q**i) % q for i in range(n)]
                    ok = ok and rank_mod(specialize(b, y, modulus=q), q) == dims.e
    elapsed = time.monotonic() - start
    _report(9, "commutator matrices", ok, elapsed)


def test_criterion_10_congruence_index():
    start = time.monotonic()
    ok = True
    for m, n in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        rng = random.Random(1000 * m + n)
        for trial in range(100):
            size = rng.randrange(1, n)
            positions = tuple(sorted(rng.sample(range(1, n), size)))
            jumps = tuple(rng.randrange(1, 4) for _ in positions)
            lattice_type = LatticeType(positions=positions, jumps=jumps)
            p = rng.choice((2, 3))
            ok = ok and congruence_index_check(m, n, lattice_type, p, seed=trial)
    elapsed = time.monotonic() - start
    _report(10, "congruence-index formula", ok and elapsed < 120.0, elapsed)


def test_criterion_11_maximal_lattice_census():
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        for p in (2, 3):
            counts = maximal_lattice_census(n, p, 2)
            ok = ok and all(
                count == lattice_type.count_formula(n, p)
                for lattice_type, count in counts.items()
            )
    elapsed = time.monotonic() - start
    _report(11, "maximal-lattice census", ok, elapsed)


def test_criterion_12_representation_zeta():
    start = time.monotonic()
    ok = True
    for m in range(1, 5):
        for n in range(1, 5):
            dims = lie_dims(m, n)
            local, _ = rep_zeta(m, n)
            expected = RationalFunction(
                LaurentPoly({(0, 0): 1, (0, dims.e): -1}), [(n, dims.e, 1)]
            )
            ok = ok and rf_equal(local, expected)
    heis_local, _ = rep_zeta(4, 1)
    ok = ok and rf_equal(
        heis_local, RationalFunction(LaurentPoly({(0, 0): 1, (0, 1): -1}), [(1, 1, 1)])
    )
    for m, n in [(1, 2), (2, 2), (2, 3)]:
        for seed in range(50):
            precision = 1 + seed % 3
            ok = ok and rep_matrix_check(m, n, 2, precision, seed)
    elapsed = time.monotonic() - start
    _report(12, "representation zeta", ok, elapsed)


def test_criterion_13_analytic_invariants():
    start = time.monotonic()
    ok = True
    alpha, beta = analytic_invariants(2, 3)
    ok = ok and alpha == 9 and beta == Fraction(19, 10)
    for m in range(1, 9):
        for n in range(1, 9):
            alpha, beta = analytic_invariants(m, n)
            ok = ok and alpha == lie_dims(m, n).d and beta < alpha
    elapsed = time.monotonic() - start
    _report(13, "analytic invariants", ok, elapsed)
