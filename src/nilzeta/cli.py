"""Command-line surface: compute, render, and verify.

Exit codes: 0 on success (or all checks passing), 1 on a verification or
check failure, 2 on usage errors or a refused run.  All JSON output
is emitted with compact separators and canonical ordering so that repeated
invocations are byte-identical.  Randomized suites take --seed
(default 1729); the oracle enumeration ceiling comes from --ceiling
(default 10^8).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

from .combinat import DIMS_BOUND, dims_exceed, e_count, f_count, lie_dims, require_prime
from .igusa import IgusaData, census_subtractions, igusa_permutation, igusa_subset
from .laurent import LaurentPoly, format_terms, poly_text
from .liering import (
    b_matrix_recursive,
    bracket_matrix,
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
    refuse_census,
    rep_matrix_check,
    verify_dirichlet,
)
from .rational import (
    RationalFunction,
    factor_poly,
    rational_to_obj,
    rf_equal,
    rf_series_coeffs,
    rf_series_work,
)
from .univariate import LinearFactorRational
from .zetas import (
    ZetaReport,
    analytic_invariants,
    check_functional_equation,
    check_zero_behaviour,
    graded_ideal_zeta,
    ideal_zeta,
    igusa_data,
    numerical_data,
    reduced_ideal_zeta,
    rep_zeta,
    topological_ideal_zeta,
    zeta_report,
)

DEFAULT_SEED = 1729
# coeffs refuses a series whose rf_series_work bounds exceed these: about
# 15 s of coefficient updates, or about 200 MB of coefficients.  Every verb
# also refuses d = e + f above combinat.DIMS_BOUND.  topo refuses an n! of
# more digits than its bound, since int-to-str is quadratic in the digits.
SERIES_UPDATES_BOUND = 10**8
SERIES_TERMS_BOUND = 10**6
FACTORIAL_DIGITS_BOUND = 10**5


class _Refused(Exception):
    """A run refused before its work; main prints the message and exits 2."""


def _factorial_digits(n: int) -> int:
    """The decimal length of n!, estimated from lgamma without forming n!."""
    return int(math.lgamma(n + 1) / math.log(10)) + 1


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
    den = "".join(
        f"({poly_text(factor_poly(a, b), tname)})" + (f"^{mult}" if mult > 1 else "")
        for a, b, mult in x.den
    )
    if len(x.den) == 1 and x.den[0][2] == 1:
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
        f"({poly_latex(factor_poly(a, b), y_variable)})" + (f"^{{{mult}}}" if mult > 1 else "")
        for a, b, mult in x.den
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
    """Text, or LaTeX for fmt "latex"; the JSON form is chosen in _render."""
    if fmt == "latex":
        return rational_latex(x, y_variable)
    return rational_text(x, "Y" if y_variable else "t")


def render_linear_rational(x: LinearFactorRational, fmt: str) -> str:
    """Text, or LaTeX for fmt "latex"; the JSON form is chosen in _render."""
    if fmt == "latex":
        return linear_rational_latex(x)
    return linear_rational_text(x)


def _render(value, fmt: str, y_variable: bool = False):
    """One value in its JSON-ready form for json, else as its text or LaTeX
    string; other values (integers, lists, dicts) pass through."""
    if isinstance(value, RationalFunction):
        return rational_to_obj(value) if fmt == "json" else render_rational(value, fmt, y_variable)
    if isinstance(value, LinearFactorRational):
        return linear_rational_obj(value) if fmt == "json" else render_linear_rational(value, fmt)
    if isinstance(value, Fraction):
        return fraction_str(value)
    return value


def _show(value, fmt: str, line="{}: {}".format, y_fields=()) -> str:
    """What a verb prints: its one value, or its dict of fields each rendered
    once (those named in y_fields in the variable Y).  JSON for json, else
    the value's text or LaTeX, or one line per field."""
    if isinstance(value, dict):
        rendered = {key: _render(field, fmt, key in y_fields) for key, field in value.items()}
    else:
        rendered = _render(value, fmt)
    if fmt == "json":
        return _dumps(rendered)
    if isinstance(rendered, dict):
        return "\n".join(line(key, field) for key, field in rendered.items())
    return rendered


def _dims_fields(dims, data) -> tuple[dict, dict]:
    """The dimensions (e, f, d, h) and the numerical data (a, b) as fields."""
    return ({"e": dims.e, "f": dims.f, "d": dims.d, "h": dims.h},
            {"a": list(data.a), "b": list(data.b)})


def render_report(report: ZetaReport, fmt: str) -> str:
    pair = {"m": report.dims.m, "n": report.dims.n}
    dims, data = _dims_fields(report.dims, report.data)
    # every field after the dimensions and the data, in declaration order
    fields = {key: getattr(report, key) for key in ZetaReport.__slots__ if key not in ("dims", "data")}
    if fmt == "json":
        fields = {**pair, "dims": dims, "data": data, **fields}
    # the text form opens with the pair, its dimensions and its data
    header = [" ".join(f"{key}={value}" for key, value in group.items())
              for group in ({**pair, **dims}, data)] if fmt == "text" else []
    return "\n".join(header + [_show(fields, fmt, y_fields=("reduced",))])


def _check_igusa(m: int, n: int, seed: int) -> bool:
    nd = numerical_data(m, n)
    datasets = [igusa_data(nd.a, nd.b)]
    rng = random.Random(seed)
    for _ in range(5):
        x = tuple((rng.randrange(0, 30), rng.randrange(1, 10)) for _ in range(n))
        datasets.append(IgusaData(-1, x))
    return all(rf_equal(igusa_subset(data), igusa_permutation(data)) for data in datasets)


def _check_commat(m: int, n: int, do_print: bool) -> bool:
    direct = bracket_matrix(m, n)
    recursive = b_matrix_recursive(m, n)
    if do_print:
        print(f"B({m},{n}):")
        print(render_linear_matrix(direct))
        print(f"M({m},{n}):")
        print(render_linear_matrix(full_commutator_matrix(m, n)))
    if direct != recursive:
        return False
    # B(λy) = λ·B(y), so one point per line of F_q^n sees every rank: the
    # (q^n - 1)/(q - 1) points whose last nonzero coordinate is 1
    for q in (2, 3):
        for k in range(n):
            for head in product(range(q), repeat=k):
                y = (*head, 1) + (0,) * (n - 1 - k)
                if rank_mod(specialize(direct, y), q) != direct.cols:
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
    # 5 and 7, since at p = 2 and 3 commat already implies the result: all e
    # divisors of B(y) are units exactly when B(y) mod p has rank e
    for p in (5, 7):
        for trial in range(5):
            if not rep_matrix_check(m, n, p, 2, seed + 10 * trial + p):
                return False
    return True


# Per suite, its charge as a function of (n, e, f), summed and refused before
# any suite runs, and its runner, which looks its check up by name when called
# so that rebinding a module attribute (as tests and the tracer do) reaches it.
_SUITES = {
    "funceq": (lambda n, e, f: 0, lambda args: check_functional_equation(args.m, args.n)),
    "zero": (lambda n, e, f: 0, lambda args: check_zero_behaviour(args.m, args.n) == (True, True)),
    # six data sets, each summed once along the subset chain
    "igusa": (lambda n, e, f: 12 * census_subtractions(n),
              lambda args: _check_igusa(args.m, args.n, args.seed)),
    # rank_mod over at most 2^n + 3^n - 2 specialisations of the f x e matrix B
    "commat": (lambda n, e, f: (2**n + 3**n - 2) * e * f,
               lambda args: _check_commat(args.m, args.n, args.print)),
    # per trial and prime (five trials, two primes), upper bounds on the
    # entries of B's n blocks side by side and stacked, and of one B, each
    # weighed by its 64-bit words: residues modulo p^r, r <= 2(n - 1) and
    # p <= 3, and 3^(2n) has about n / 20 words
    "congruence": (lambda n, e, f: 10 * (e + f) ** 2 * n * ((n + 19) // 20),
                   lambda args: _check_congruence(args.m, args.n, args.seed)),
    "repmat": (lambda n, e, f: 10 * (e + f) ** 2, lambda args: _check_repmat(args.m, args.n, args.seed)),
}
# The suites that build the descent census, so that cli.main applies the
# census rule to check only when one of them runs.
_CENSUS_SUITES = {"funceq", "zero", "igusa"}


def _suite_list(text: str) -> list[str]:
    """The --suite value: the names of known suites, at least one."""
    suites = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [s for s in suites if s not in _SUITES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown suite(s): {', '.join(unknown)}")
    if not suites:
        raise argparse.ArgumentTypeError("no suite given")
    return suites


def _run_check(args) -> int:
    n, e, f = args.n, e_count(args.m, args.n), f_count(args.m, args.n)
    work = sum(_SUITES[suite][0](n, e, f) for suite in args.suite)
    if args.print and "commat" in args.suite:
        work += e * f + (e + f) ** 2  # the cells of B and of M that --print renders
    if work > DEFAULT_CEILING:
        raise CeilingExceededError(work, DEFAULT_CEILING)
    all_ok = True
    for suite in args.suite:
        ok = _SUITES[suite][1](args)
        print(f"{suite}: {'ok' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _run_verify(args) -> int:
    records = verify_dirichlet(args.m, args.n, args.prime, args.upto,
                               graded=args.graded, ceiling=args.ceiling)
    all_match = True
    for rec in records:
        print(_dumps({"k": rec.k, "formula": rec.formula, "oracle": rec.oracle, "match": rec.match}))
        all_match = all_match and rec.match
    return 0 if all_match else 1


def _run_coeffs(args) -> int:
    zeta = graded_ideal_zeta(args.m, args.n) if args.graded else ideal_zeta(args.m, args.n)
    updates, terms = rf_series_work(zeta, args.upto)
    if updates > SERIES_UPDATES_BOUND or terms > SERIES_TERMS_BOUND:
        raise _Refused(f"series of up to {updates} updates and {terms} terms exceeds the bounds "
                       f"{SERIES_UPDATES_BOUND} and {SERIES_TERMS_BOUND}")
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


def _run_reduced(args) -> None:
    fn, mu = reduced_ideal_zeta(args.m, args.n)
    # the function prints without a label
    print(_show({"fn": fn, "mu": mu}, args.format, y_fields=("fn",),
                line=lambda key, value: value if key == "fn" else f"{key}: {value}"))


def _run_invariants(args) -> None:
    dims, data = _dims_fields(lie_dims(args.m, args.n), numerical_data(args.m, args.n))
    alpha, beta = analytic_invariants(args.m, args.n)
    _, mu = reduced_ideal_zeta(args.m, args.n)
    fields = {**dims, **data, "alpha": alpha, "beta": beta, "mu": mu}
    print(_show(fields, args.format, "{}={}".format))


# Per verb, its help text and its runner, which prints and returns the exit
# code (None for 0).  Runners look library functions up by name when called,
# so that rebinding a module attribute (as tests and the tracer do) reaches them.
_VERBS = {
    "ideal": ("local ideal zeta function",
              lambda args: print(_show(ideal_zeta(args.m, args.n), args.format))),
    "graded": ("graded ideal zeta function",
               lambda args: print(_show(graded_ideal_zeta(args.m, args.n), args.format))),
    "rep": ("representation zeta function (local and topological)",
            lambda args: print(_show(dict(zip(("local", "topological"), rep_zeta(args.m, args.n))),
                                     args.format))),
    "topo": ("topological ideal zeta function",
             lambda args: print(_show(topological_ideal_zeta(args.m, args.n), args.format))),
    "reduced": ("reduced ideal zeta function", _run_reduced),
    "invariants": ("numerical data and analytic invariants", _run_invariants),
    "report": ("full dossier for the pair (m, n)",
               lambda args: print(render_report(zeta_report(args.m, args.n), args.format))),
    "coeffs": ("series coefficients of the zeta function", _run_coeffs),
    "verify": ("compare closed form against enumeration", _run_verify),
    "check": ("symbolic and randomized property suites", _run_check),
}
# The least admitted value of each integer input, a usage error below it;
# a verb without the input skips it.  --prime has its own check.
_BOUNDS = {"m": 1, "n": 1, "--upto": 0, "--threads": 1, "--ceiling": 0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilzeta", description="Zeta functions of the class-2 nilpotent Lie rings L(m, n)")
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (helptext, _) in _VERBS.items():
        sp = verbs[verb] = sub.add_parser(verb, help=helptext)
        sp.add_argument("m", type=int)
        sp.add_argument("n", type=int)
        if verb not in ("verify", "check"):
            sp.add_argument("--format", choices=["text", "latex", "json"], default="text")
    for verb, prime in (("coeffs", None), ("verify", 2)):
        verbs[verb].add_argument("--prime", type=int, default=prime)
        verbs[verb].add_argument("--upto", type=int, default=3)
        verbs[verb].add_argument("--graded", action="store_true")
    verify, check = verbs["verify"], verbs["check"]
    verify.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: the oracle runs in one process")
    verify.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    check.add_argument("--suite", type=_suite_list, default="funceq,zero,igusa,commat")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--print", action="store_true")
    return parser


def main(argv=None) -> int:
    # exact results (n! of topo, series values at a large prime) can exceed
    # the default 4,300-digit int-to-str limit; huge inputs are refused by
    # lower bounds before any such number is formed
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, least in _BOUNDS.items():
        if (value := getattr(args, name.lstrip("-"), least)) < least:
            parser.error(f"{name} must be at least {least}, got {value}")
    if getattr(args, "prime", None) is not None:
        try:
            require_prime(args.prime)
        except ValueError as exc:
            parser.error(f"--prime: {exc}")
    try:
        # every verb but rep and topo builds the descent census, check only
        # in its census suites (verify counts it in its own estimate, against
        # its own ceiling); refuse it, and d = e + f above the terms bound,
        # before any work
        if (not _CENSUS_SUITES.isdisjoint(args.suite) if args.verb == "check"
                else args.verb not in ("rep", "topo")):
            refuse_census(args.n, getattr(args, "ceiling", DEFAULT_CEILING))
            if args.verb != "verify" and (work := census_subtractions(args.n)) > DEFAULT_CEILING:
                raise CeilingExceededError(work, DEFAULT_CEILING)
        if dims_exceed(args.m, args.n):
            raise _Refused(f"d = e + f exceeds {DIMS_BOUND}")
        if args.verb == "topo" and (digits := _factorial_digits(args.n)) > FACTORIAL_DIGITS_BOUND:
            raise _Refused(f"n! of about {digits} digits exceeds {FACTORIAL_DIGITS_BOUND} digits")
        return _VERBS[args.verb][1](args) or 0
    except (CeilingExceededError, _Refused) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
