"""Command-line surface: compute, render, and verify.

Exit codes: 0 on success (or all checks passing), 1 on a verification or
check failure, 2 on usage errors or a refused run.  All JSON output
is emitted with compact separators and canonical ordering so that repeated
invocations are byte-identical.  Randomized suites take --seed
(default 1729); the oracle enumeration ceiling comes from --ceiling or the
NILZETA_ORACLE_CEILING environment variable (default 10^8).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .combinat import lie_dims, require_prime
from .igusa import IgusaData, census_subtractions, igusa_middle, igusa_permutation, igusa_subset
from .laurent import LaurentPoly, format_terms, poly_text
from .liering import (
    b_matrix_direct,
    b_matrix_recursive,
    build_structure,
    full_commutator_matrix,
    rank_mod,
    render_linear_matrix,
    specialize,
)
from .oracle import (
    DEFAULT_CEILING,
    CeilingExceededError,
    LatticeType,
    congruence_index_check,
    rep_matrix_check,
    verify_dirichlet,
)
from .rational import RationalFunction, rational_to_obj, rf_equal, rf_series_coeffs, rf_series_work
from .univariate import LinearFactorRational
from .zetas import (
    ZetaReport,
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

DEFAULT_SEED = 1729
# coeffs refuses a series whose rf_series_work bounds exceed these: about
# 15 s of coefficient updates, or about 200 MB of coefficients
SERIES_UPDATES_BOUND = 10**8
SERIES_TERMS_BOUND = 10**6


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def rational_text(x: RationalFunction, tname: str = "t") -> str:
    num = poly_text(x.num, tname)
    if len(x.num) > 1:
        num = f"({num})"
    if not x.den:
        return num
    pieces = [
        f"({poly_text(f.base_poly(), tname)})" + (f"^{f.mult}" if f.mult > 1 else "")
        for f in x.den
    ]
    den = "".join(pieces)
    if len(pieces) == 1 and x.den[0].mult == 1:
        return f"{num}/{den}"
    return f"{num}/({den})"


def _latex_monomial_qs(eq: int, et: int) -> str:
    """q^{a-bs} for the monomial q^eq t^et."""
    if et == 0:
        return f"q^{{{eq}}}"
    spart = "s" if et == 1 else f"{et}s"
    if eq == 0:
        return f"q^{{-{spart}}}"
    return f"q^{{{eq}-{spart}}}"


def poly_latex(poly: LaurentPoly, y_variable: bool = False) -> str:
    def monomial(eq: int, et: int, c: int) -> str:
        if (eq, et) == (0, 0):
            return str(c)
        if y_variable:
            mono = "Y" if et == 1 else f"Y^{{{et}}}"
        else:
            mono = _latex_monomial_qs(eq, et)
        return mono if c == 1 else f"{c}{mono}"

    return format_terms(poly, monomial)


def rational_latex(x: RationalFunction, y_variable: bool = False) -> str:
    num = poly_latex(x.num, y_variable)
    if not x.den:
        return num
    den = "".join(
        f"({poly_latex(f.base_poly(), y_variable)})" + (f"^{{{f.mult}}}" if f.mult > 1 else "")
        for f in x.den
    )
    return f"\\frac{{{num}}}{{{den}}}"


def _linear_text(b: int, a: int) -> str:
    lead = "s" if b == 1 else f"{b}s"
    if a == 0:
        return lead
    return f"{lead}-{a}" if a > 0 else f"{lead}+{-a}"


def _factor_product(coeff: int, factors) -> str:
    """coeff times the parenthesised linear factors; a unit coefficient in
    front of at least one factor is left out."""
    prefix = "" if coeff == 1 and factors else str(coeff)
    return prefix + "".join(f"({_linear_text(b, a)})" for b, a in factors)


def linear_rational_text(x: LinearFactorRational) -> str:
    c = x.const
    if len(x.num_factors) == 1 and x.num_factors[0][1] == 0:
        num = ("" if c.numerator == 1 else str(c.numerator)) + _linear_text(*x.num_factors[0])
    else:
        num = _factor_product(c.numerator, x.num_factors)
    if not x.den_factors and c.denominator == 1:
        return num
    den = _factor_product(c.denominator, x.den_factors)
    if c.denominator == 1 and len(x.den_factors) == 1:
        return f"{num}/{den}"
    return f"{num}/({den})"


def linear_rational_latex(x: LinearFactorRational) -> str:
    num = _factor_product(x.const.numerator, x.num_factors)
    if not x.den_factors and x.const.denominator == 1:
        return num
    return f"\\frac{{{num}}}{{{_factor_product(x.const.denominator, x.den_factors)}}}"


def linear_rational_obj(x: LinearFactorRational) -> dict:
    return {
        "const": fraction_str(x.const),
        "num": [[b, a] for b, a in x.num_factors],
        "den": [[b, a] for b, a in x.den_factors],
    }


def render_rational(x: RationalFunction, fmt: str, y_variable: bool = False) -> str:
    if fmt == "json":
        return _dumps(rational_to_obj(x))
    if fmt == "latex":
        return rational_latex(x, y_variable)
    return rational_text(x, "Y" if y_variable else "t")


def render_linear_rational(x: LinearFactorRational, fmt: str) -> str:
    if fmt == "json":
        return _dumps(linear_rational_obj(x))
    if fmt == "latex":
        return linear_rational_latex(x)
    return linear_rational_text(x)


def invariants_obj(m: int, n: int) -> dict:
    dims = lie_dims(m, n)
    nd = numerical_data(m, n)
    alpha, beta = analytic_invariants(m, n)
    _, mu = reduced_ideal_zeta(m, n)
    return {
        "e": dims.e,
        "f": dims.f,
        "d": dims.d,
        "h": dims.h,
        "a": list(nd.a),
        "b": list(nd.b),
        "alpha": alpha,
        "beta": fraction_str(beta),
        "mu": fraction_str(mu),
    }


def report_obj(report: ZetaReport) -> dict:
    return {
        "m": report.dims.m,
        "n": report.dims.n,
        "dims": {"e": report.dims.e, "f": report.dims.f, "d": report.dims.d, "h": report.dims.h},
        "data": {"a": list(report.data.a), "b": list(report.data.b)},
        "ideal": rational_to_obj(report.ideal),
        "graded": rational_to_obj(report.graded),
        "rep_local": rational_to_obj(report.rep_local),
        "rep_topological": linear_rational_obj(report.rep_topological),
        "topological": linear_rational_obj(report.topological),
        "reduced": rational_to_obj(report.reduced),
        "mu": fraction_str(report.mu),
        "alpha": report.alpha,
        "beta": fraction_str(report.beta),
    }


def render_report(report: ZetaReport, fmt: str) -> str:
    if fmt == "json":
        return _dumps(report_obj(report))
    dims = report.dims
    lines = [] if fmt == "latex" else [
        f"m={dims.m} n={dims.n} e={dims.e} f={dims.f} d={dims.d} h={dims.h}",
        f"a={list(report.data.a)} b={list(report.data.b)}",
    ]
    lines += [
        f"ideal: {render_rational(report.ideal, fmt)}",
        f"graded: {render_rational(report.graded, fmt)}",
        f"rep_local: {render_rational(report.rep_local, fmt)}",
        f"rep_topological: {render_linear_rational(report.rep_topological, fmt)}",
        f"topological: {render_linear_rational(report.topological, fmt)}",
        f"reduced: {render_rational(report.reduced, fmt, y_variable=True)}",
        f"mu: {fraction_str(report.mu)}",
        f"alpha: {report.alpha}",
        f"beta: {fraction_str(report.beta)}",
    ]
    return "\n".join(lines)


def _check_igusa(m: int, n: int, seed: int) -> bool:
    nd = numerical_data(m, n)
    datasets = [IgusaData(n=n, y_qexp=-1, x=tuple((nd.a[n - j], nd.b[n - j]) for j in range(1, n + 1)))]
    rng = random.Random(seed)
    for _ in range(5):
        x = tuple((rng.randrange(0, 30), rng.randrange(1, 10)) for _ in range(n))
        datasets.append(IgusaData(n=n, y_qexp=-1, x=x))
    for data in datasets:
        subset = igusa_subset(data)
        if not rf_equal(subset, igusa_permutation(data)):
            return False
        if not rf_equal(subset, igusa_middle(data)):
            return False
    return True


def _check_commat(m: int, n: int, do_print: bool) -> bool:
    struct = build_structure(m, n)
    direct = b_matrix_direct(struct)
    recursive = b_matrix_recursive(m, n)
    if do_print:
        print(f"B({m},{n}):")
        print(render_linear_matrix(direct))
        print(f"M({m},{n}):")
        print(render_linear_matrix(full_commutator_matrix(m, n)))
    if direct != recursive:
        return False
    commutator = full_commutator_matrix(m, n)
    d = struct.dims.d
    for i in range(d):
        for j in range(d):
            if commutator.entry(i, j) != tuple(-c for c in commutator.entry(j, i)):
                return False
    for q in (2, 3):
        for mask in range(1, q**n):
            y = [(mask // q**i) % q for i in range(n)]
            if rank_mod(specialize(direct, y, modulus=q), q) != struct.dims.e:
                return False
    return True


def _check_congruence(m: int, n: int, seed: int) -> bool:
    if n < 2:
        return True
    rng = random.Random(seed)
    for trial in range(5):
        size = rng.randrange(1, n)
        positions = tuple(sorted(rng.sample(range(1, n), size)))
        jumps = tuple(rng.randrange(1, 3) for _ in positions)
        lattice_type = LatticeType(positions=positions, jumps=jumps)
        for p in (2, 3):
            if not congruence_index_check(m, n, lattice_type, p, seed + 100 * trial + p):
                return False
    return True


def _check_repmat(m: int, n: int, seed: int) -> bool:
    for p in (2, 3):
        for trial in range(5):
            if not rep_matrix_check(m, n, p, 2, seed + 10 * trial + p):
                return False
    return True


# Each runner looks its check up by name when called, so that rebinding a
# module attribute (as tests and the tracer do) reaches it.
_SUITES = {
    "funceq": lambda args: check_functional_equation(args.m, args.n),
    "zero": lambda args: check_zero_behaviour(args.m, args.n) == (True, True),
    "igusa": lambda args: _check_igusa(args.m, args.n, args.seed),
    "commat": lambda args: _check_commat(args.m, args.n, args.print),
    "congruence": lambda args: _check_congruence(args.m, args.n, args.seed),
    "repmat": lambda args: _check_repmat(args.m, args.n, args.seed),
}


def _run_check(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    unknown = [s for s in suites if s not in _SUITES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if not suites:
        print("no suite given", file=sys.stderr)
        return 2
    all_ok = True
    for suite in suites:
        ok = _SUITES[suite](args)
        print(f"{suite}: {'ok' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _run_verify(args) -> int:
    records = verify_dirichlet(
        args.m,
        args.n,
        args.prime,
        args.upto,
        graded=args.graded,
        ceiling=args.ceiling,
    )
    all_match = True
    for rec in records:
        print(_dumps({"k": rec.k, "formula": rec.formula, "oracle": rec.oracle, "match": rec.match}))
        all_match = all_match and rec.match
    return 0 if all_match else 1


def _run_coeffs(args) -> int:
    zeta = graded_ideal_zeta(args.m, args.n) if args.graded else ideal_zeta(args.m, args.n)
    updates, terms = rf_series_work(zeta, args.upto)
    if updates > SERIES_UPDATES_BOUND or terms > SERIES_TERMS_BOUND:
        print(f"refused: series of up to {updates} updates and {terms} terms exceeds the bounds "
              f"{SERIES_UPDATES_BOUND} and {SERIES_TERMS_BOUND}", file=sys.stderr)
        return 2
    coeffs = rf_series_coeffs(zeta, args.upto)
    if args.format == "json":
        out = []
        for k, poly in enumerate(coeffs):
            entry = {"k": k, "terms": [{"q": eq, "c": str(c)} for (eq, _), c in poly.sorted_terms()]}
            if args.prime is not None:
                entry["value"] = str(poly.value_at_q(args.prime).numerator)
            out.append(entry)
        print(_dumps({"coeffs": out}))
        return 0
    for k, poly in enumerate(coeffs):
        line = f"k={k}: {poly_text(poly)}"
        if args.prime is not None:
            line += f" = {poly.value_at_q(args.prime).numerator} at q={args.prime}"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilzeta",
        description="Zeta functions of the class-2 nilpotent Lie rings L(m, n)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp, with_format=True):
        sp.add_argument("m", type=int)
        sp.add_argument("n", type=int)
        if with_format:
            sp.add_argument("--format", choices=["text", "latex", "json"], default="text")

    for verb, helptext in (
        ("ideal", "local ideal zeta function"),
        ("graded", "graded ideal zeta function"),
        ("rep", "representation zeta function (local and topological)"),
        ("topo", "topological ideal zeta function"),
        ("reduced", "reduced ideal zeta function"),
        ("invariants", "numerical data and analytic invariants"),
        ("report", "full dossier for the pair (m, n)"),
    ):
        add_common(sub.add_parser(verb, help=helptext))

    coeffs = sub.add_parser("coeffs", help="series coefficients of the zeta function")
    add_common(coeffs)
    coeffs.add_argument("--upto", type=int, default=3)
    coeffs.add_argument("--graded", action="store_true")
    coeffs.add_argument("--prime", type=int, default=None)

    verify = sub.add_parser("verify", help="compare closed form against enumeration")
    add_common(verify, with_format=False)
    verify.add_argument("--prime", type=int, default=2)
    verify.add_argument("--upto", type=int, default=3)
    verify.add_argument("--graded", action="store_true")
    verify.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: the oracle runs in one process")
    verify.add_argument("--ceiling", type=int, default=None)

    check = sub.add_parser("check", help="symbolic and randomized property suites")
    add_common(check, with_format=False)
    check.add_argument("--suite", default="funceq,zero,igusa,commat")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--print", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.m < 1 or args.n < 1:
        parser.error("m and n must be positive")
    if getattr(args, "prime", None) is not None:
        try:
            require_prime(args.prime)
        except ValueError as exc:
            parser.error(f"--prime: {exc}")
    if getattr(args, "upto", None) is not None and args.upto < 0:
        parser.error("--upto must be nonnegative")
    if args.verb == "verify":
        if args.threads < 1:
            parser.error("--threads must be at least 1")
        env = os.environ.get("NILZETA_ORACLE_CEILING")
        if args.ceiling is None and env:
            try:
                args.ceiling = int(env)
            except ValueError:
                parser.error(f"NILZETA_ORACLE_CEILING must be an integer, got {env!r}")
    try:
        # every verb but rep and topo builds the descent census (verify
        # counts it in its own estimate); refuse it before any work
        if args.verb not in ("rep", "topo", "verify") and (work := census_subtractions(args.n)) > DEFAULT_CEILING:
            raise CeilingExceededError(work, DEFAULT_CEILING)
        if args.verb == "ideal":
            print(render_rational(ideal_zeta(args.m, args.n), args.format))
        elif args.verb == "graded":
            print(render_rational(graded_ideal_zeta(args.m, args.n), args.format))
        elif args.verb == "rep":
            local, topological = rep_zeta(args.m, args.n)
            if args.format == "json":
                print(_dumps({
                    "local": rational_to_obj(local),
                    "topological": linear_rational_obj(topological),
                }))
            else:
                print(f"local: {render_rational(local, args.format)}")
                print(f"topological: {render_linear_rational(topological, args.format)}")
        elif args.verb == "topo":
            print(render_linear_rational(topological_ideal_zeta(args.m, args.n), args.format))
        elif args.verb == "reduced":
            fn, mu = reduced_ideal_zeta(args.m, args.n)
            if args.format == "json":
                print(_dumps({"fn": rational_to_obj(fn), "mu": fraction_str(mu)}))
            else:
                print(render_rational(fn, args.format, y_variable=True))
                print(f"mu: {fraction_str(mu)}")
        elif args.verb == "invariants":
            obj = invariants_obj(args.m, args.n)
            if args.format == "json":
                print(_dumps(obj))
            else:
                for key, value in obj.items():
                    print(f"{key}={value}")
        elif args.verb == "report":
            print(render_report(zeta_report(args.m, args.n), args.format))
        elif args.verb == "coeffs":
            return _run_coeffs(args)
        elif args.verb == "verify":
            return _run_verify(args)
        elif args.verb == "check":
            return _run_check(args)
    except CeilingExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
