"""CLI: rendering fixtures, exit codes, JSON round trips, byte stability."""

import importlib
import json
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from nilzeta import igusa
from nilzeta.cli import _dumps, main, rational_latex, rational_text, render_rational
from nilzeta.combinat import PRIME_BOUND, is_prime
from nilzeta.laurent import LaurentPoly
from nilzeta.rational import RationalFunction, rational_to_obj
from nilzeta.zetas import ideal_zeta

from references import rational_from_obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ideal_heisenberg_text(capsys):
    code, out, _ = run_cli(capsys, "ideal", "1", "1")
    assert code == 0
    assert out.strip() == "1/((1-t)(1-q t)(1-q^2 t^3))"


def test_rep_local_text(capsys):
    code, out, _ = run_cli(capsys, "rep", "2", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "local: (1-t)/(1-q t)"
    assert lines[1] == "topological: s/(s-1)"


def test_ideal_23_latex_byte_stable(capsys):
    code, first, _ = run_cli(capsys, "ideal", "2", "3", "--format", "latex")
    assert code == 0
    code, second, _ = run_cli(capsys, "ideal", "2", "3", "--format", "latex")
    assert code == 0
    assert first == second
    assert "1+q^{9-7s}+q^{10-7s}+q^{18-10s}+q^{19-10s}+q^{28-17s}" in first
    assert "(1-q^{11-7s})" in first and "(1-q^{27-12s})" in first


def test_ideal_23_latex_subprocess_stable(capsys):
    code, inproc, _ = run_cli(capsys, "ideal", "2", "3", "--format", "latex")
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "nilzeta.cli", "ideal", "2", "3", "--format", "latex"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == inproc


def test_import_loads_no_dataclasses_inspect_or_typing():
    # every CLI op pays for what importing the CLI loads; -S keeps a site
    # hook from loading typing before the package does
    code = ("import sys, nilzeta.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_loads_no_json():
    # the CLI writes JSON, but the package itself neither reads nor writes it
    code = "import sys, nilzeta; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_invariants_json_fixture(capsys):
    code, out, _ = run_cli(capsys, "invariants", "2", "3", "--format", "json")
    assert code == 0
    assert out.strip() == (
        '{"e":3,"f":6,"d":9,"h":12,"a":[27,20,11],"b":[12,10,7],'
        '"alpha":9,"beta":"19/10","mu":"1/140"}'
    )


def test_ideal_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "ideal", "2", "3", "--format", "json")
    assert code == 0
    blob = out.strip()
    assert _dumps(rational_to_obj(rational_from_obj(json.loads(blob)))) == blob
    assert rational_from_obj(json.loads(blob)) == ideal_zeta(2, 3)


def test_verify_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "1", "2", "--prime", "2", "--upto", "4")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5
    assert all(rec["match"] for rec in records)
    assert records[1] == {"k": 1, "formula": 7, "oracle": 7, "match": True}


def test_verify_ceiling_refusal(capsys):
    code, _, err = run_cli(capsys, "verify", "2", "3", "--prime", "2", "--upto", "6", "--ceiling", "1000")
    assert code == 2
    assert "refused" in err


def test_verify_ignores_the_environment(capsys, monkeypatch):
    # the ceiling is set only with --ceiling
    monkeypatch.setenv("NILZETA_ORACLE_CEILING", "abc")
    code, out, err = run_cli(capsys, "verify", "1", "1", "--upto", "2")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("n,upto,estimate", [
    pytest.param("18", "1", 171573267, id="18-1"),
    pytest.param("20", "2", 951321248, id="20-2"),
])
def test_verify_refuses_census(capsys, n, upto, estimate):
    # tiny oracle runs, but the closed form's census would invert over the
    # 2^(n - 1) descent sets
    code, out, err = run_cli(capsys, "verify", "1", n, "--upto", upto)
    assert code == 2
    assert out == ""
    assert f"refused: enumeration size {estimate} exceeds the ceiling 100000000" in err


@pytest.fixture
def no_census(monkeypatch):
    def census(n):
        raise AssertionError(f"census of degree {n} built")

    monkeypatch.setattr(igusa, "_descent_census", census)


@pytest.mark.parametrize("verb", ["ideal", "graded", "reduced", "invariants", "report", "coeffs", "check"])
def test_closed_form_refuses_census(capsys, no_census, verb):
    # refused before the census of the 2^17 descent sets is built
    code, out, err = run_cli(capsys, verb, "1", "18")
    assert code == 2
    assert out == ""
    assert err == "refused: enumeration size 171573248 exceeds the ceiling 100000000\n"


@pytest.mark.parametrize("verb", ["rep", "topo"])
def test_census_free_verbs_take_any_degree(capsys, no_census, verb):
    code, _, _ = run_cli(capsys, verb, "1", "18")
    assert code == 0


def run_subprocess(*argv, timeout):
    return subprocess.run([sys.executable, "-m", "nilzeta.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    pytest.param(("ideal", "1", "15000"), id="ideal-15000"),
    pytest.param(("ideal", "1", "1000000000"), id="ideal-1e9"),
    pytest.param(("verify", "1", "15000", "--upto", "1"), id="verify-15000"),
    pytest.param(("verify", "1", "1000000000", "--upto", "1"), id="verify-1e9"),
    pytest.param(("verify", "1", "1", "--prime", "1000003", "--upto", "400"), id="verify-p1000003"),
    # commat's charge of at least 3^999998, at d = 10^6
    pytest.param(("check", "1", "999998", "--suite", "commat"), id="commat-999998"),
])
def test_huge_inputs_refused_by_lower_bounds(argv):
    # refused before the census count, the dimensions or the exact row
    # count is formed, with one short message
    proc = run_subprocess(*argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("refused: enumeration size at least ")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 120


@pytest.mark.parametrize("argv", [
    # 3^17 rank_mod calls
    pytest.param(("check", "1", "17", "--suite", "commat"), id="commat-1-17"),
    # d = 10,000,200,001 (a MemoryError traceback) and d = 1,002,001
    pytest.param(("ideal", "100000", "3"), id="ideal-100000-3"),
    pytest.param(("ideal", "1000", "3"), id="ideal-1000-3"),
    # lie_dims would sum 10^8 binomials
    pytest.param(("rep", "1", "100000000"), id="rep-1e8"),
    # the closed form of d = 1,002,001 at an empty oracle
    pytest.param(("verify", "1000", "3", "--upto", "0"), id="verify-1000-3"),
    # an n! of 5,565,703 digits, at d = 10^6
    pytest.param(("topo", "1", "999999"), id="topo-999999"),
    # 10·d²·n = 147,232,800 and 10·d² = 101,442,250 specialised entries
    pytest.param(("check", "10", "5", "--suite", "congruence"), id="congruence-10-5"),
    pytest.param(("check", "12", "5", "--suite", "repmat"), id="repmat-12-5"),
])
def test_large_work_refused(argv):
    proc = run_subprocess(*argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("refused: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("m,suite,work", [
    ("10", "funceq,congruence", 147232800),
    ("12", "repmat,funceq", 101442250),
])
def test_congruence_and_repmat_charges_refuse_before_any_suite(capsys, m, suite, work):
    code, out, err = run_cli(capsys, "check", m, "5", "--suite", suite)
    assert (code, out, err) == (2, "", f"refused: enumeration size {work} exceeds the ceiling 100000000\n")


def test_congruence_and_repmat_charges_admit_small_pairs(capsys):
    # charged 10·336²·5 + 10·336² = 6,773,760 entries, under the ceiling
    code, out, err = run_cli(capsys, "check", "6", "5", "--suite", "congruence,repmat")
    assert (code, out, err) == (0, "congruence: ok\nrepmat: ok\n", "")


def test_commat_charge_refuses_before_any_suite(capsys):
    # (2^9 + 3^9 - 2) * e * f = 20193 * 45 * 165 specialised entries
    code, out, err = run_cli(capsys, "check", "3", "9", "--suite", "funceq,commat")
    assert code == 2
    assert out == ""
    assert err == "refused: enumeration size 149933025 exceeds the ceiling 100000000\n"


def test_commat_print_is_charged_for_the_cells_it_renders(capsys, monkeypatch):
    # (2^2 + 3^2 - 2) * e * f = 99,033,000 is admitted; --print adds the
    # e * f cells of B and the d^2 cells of M, 45,015,001 more
    import nilzeta.cli as cli_mod

    def commat(m, n, do_print):
        raise AssertionError("the commat suite ran")

    monkeypatch.setattr(cli_mod, "_check_commat", commat)
    assert run_cli(capsys, "check", "3000", "2", "--suite", "commat", "--print") == (
        2, "", "refused: enumeration size 144048001 exceeds the ceiling 100000000\n")
    monkeypatch.setattr(cli_mod, "_check_commat", lambda m, n, do_print: True)
    assert run_cli(capsys, "check", "3000", "2", "--suite", "commat") == (0, "commat: ok\n", "")


def test_igusa_charge_refuses_before_any_suite(capsys, monkeypatch):
    # 12 census_subtractions(15) = 12 * 12,156,928: six data sets, each
    # summed once along the subset chain
    import nilzeta.cli as cli_mod

    def igusa(m, n, seed):
        raise AssertionError("the igusa suite ran")

    monkeypatch.setattr(cli_mod, "_check_igusa", igusa)
    assert run_cli(capsys, "check", "1", "15", "--suite", "igusa") == (
        2, "", "refused: enumeration size 145883136 exceeds the ceiling 100000000\n")


def test_census_rule_stops_long_congruence_runs(capsys, monkeypatch):
    # congruence builds no census, so its own charge stops long m = 1 runs:
    # 10·d²·n weighed by the (n + 19) // 20 words of its entries, which carry
    # precision up to p^(2n), is 808,020,000 at (1, 200) and 105,415,200 at
    # (1, 120); at (1, 115) it is 92,846,400, under the ceiling
    import nilzeta.cli as cli_mod

    def congruence(m, n, seed):
        raise AssertionError("the congruence suite ran")

    monkeypatch.setattr(cli_mod, "_check_congruence", congruence)
    for n, work in (("200", 808020000), ("120", 105415200)):
        assert run_cli(capsys, "check", "1", n, "--suite", "congruence") == (
            2, "", f"refused: enumeration size {work} exceeds the ceiling 100000000\n")
    monkeypatch.setattr(cli_mod, "_check_congruence", lambda m, n, seed: True)
    assert run_cli(capsys, "check", "1", "115", "--suite", "congruence") == (0, "congruence: ok\n", "")


def test_census_rule_spares_suites_without_census(capsys):
    # congruence and repmat build no census, so n = 18 runs; a census suite
    # beside them brings the census rule back
    assert run_cli(capsys, "check", "1", "18", "--suite", "congruence,repmat") == (
        0, "congruence: ok\nrepmat: ok\n", "")
    assert run_cli(capsys, "check", "1", "18", "--suite", "congruence,zero") == (
        2, "", "refused: enumeration size 171573248 exceeds the ceiling 100000000\n")


def test_igusa_charge_admits_degree_14(capsys, monkeypatch):
    # 12 census_subtractions(14) = 58,785,792, under the ceiling
    import nilzeta.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_check_igusa", lambda m, n, seed: True)
    assert run_cli(capsys, "check", "1", "14", "--suite", "igusa") == (0, "igusa: ok\n", "")


def test_check_igusa_sums_each_data_set_once(capsys, monkeypatch):
    # six data sets, one subset chain each; the permutation form reads the census
    calls = []
    real = igusa._subset_sum

    def counted(data, top):
        calls.append(top)
        return real(data, top)

    monkeypatch.setattr(igusa, "_subset_sum", counted)
    assert run_cli(capsys, "check", "2", "4", "--suite", "igusa") == (0, "igusa: ok\n", "")
    assert calls == [4] * 6


def test_igusa_charge_admits_small_pairs(capsys):
    code, out, err = run_cli(capsys, "check", "2", "7", "--suite", "funceq,zero,igusa")
    assert (code, out, err) == (0, "funceq: ok\nzero: ok\nigusa: ok\n", "")


def test_dims_refusal_bound(capsys):
    # d = 811,801 is taken and d = 1,002,001 refused
    code, out, _ = run_cli(capsys, "rep", "900", "3")
    assert code == 0 and "t^405450" in out
    assert run_cli(capsys, "rep", "1000", "3") == (2, "", "refused: d = e + f exceeds 1000000\n")


def test_topo_reaches_degree_20000():
    # needs numerical_data in O(n), and one reduction of the n! constant
    # rather than one per linear factor
    proc = run_subprocess("topo", "1", "20000", timeout=30)
    assert proc.returncode == 0
    # the d + n = 40,001 linear factors and the denominator's bracket
    assert proc.stdout.count("(") == 40002


def test_verify_reaches_dimension_22801():
    # needs a residue's bracket vectors summed over its own entries, not over
    # all d generators, and hnf_count in k steps rather than d
    proc = run_subprocess("verify", "150", "3", "--upto", "1", timeout=30)
    assert proc.returncode == 0
    # the k = 1 count has 6,864 digits, past json's default int-to-str limit
    lines = proc.stdout.splitlines()
    assert [line[:line.index(",")] for line in lines] == ['{"k":0', '{"k":1']
    assert all(line.endswith('"match":true}') for line in lines)


@pytest.mark.parametrize("argv,digits", [
    pytest.param(("topo", "1", "1600"), 4301, id="topo-1600"),
    pytest.param(("coeffs", "1", "1", "--upto", "1000", "--prime", "1000003", "--format", "json"), 6000,
                 id="coeffs-1000"),
])
def test_integers_past_the_str_digit_limit_print(argv, digits):
    proc = run_subprocess(*argv, timeout=120)
    assert proc.returncode == 0
    assert max(len(run) for run in re.findall(r"[0-9]+", proc.stdout)) >= digits


def test_verify_reaches_degree_10(capsys):
    # refused while the census walked the 10! permutations of S_10
    code, out, _ = run_cli(capsys, "verify", "1", "10", "--prime", "2", "--upto", "1")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["k"] for r in records] == [0, 1]
    assert all(r["match"] for r in records)


@pytest.mark.parametrize("m,n,upto,message", [
    # (1, 1) has factors t, q t, q^2 t^3: row k holds up to k + 1 terms
    ("1", "1", "1413", "series of up to 2994148 updates and 1000405 terms"),
    # (6, 6) has 720 factors, each reading every row
    ("6", "6", "21", "series of up to 106922214 updates and 164725 terms"),
])
def test_coeffs_refuses_series_work(capsys, m, n, upto, message):
    code, out, err = run_cli(capsys, "coeffs", m, n, "--upto", upto)
    assert code == 2
    assert out == ""
    assert err == f"refused: {message} exceeds the bounds 100000000 and 1000000\n"


def test_verify_threads(capsys):
    code, out, _ = run_cli(capsys, "verify", "1", "1", "--prime", "2", "--upto", "4", "--threads", "2")
    assert code == 0
    assert all(json.loads(line)["match"] for line in out.strip().splitlines())


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_check_suites_grid(capsys, m, n):
    code, out, _ = run_cli(capsys, "check", str(m), str(n), "--suite", "funceq,zero,igusa,commat")
    assert code == 0, out
    assert out.count(": ok") == 4


def test_check_random_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "2", "2", "--suite", "congruence,repmat", "--seed", "7")
    assert code == 0
    assert out.count(": ok") == 2


def test_check_repmat_samples_primes_commat_does_not(capsys, monkeypatch):
    # commat's rank tests at p = 2 and 3 already imply repmat's result there
    import nilzeta.cli as cli_mod

    primes = []
    monkeypatch.setattr(cli_mod, "rep_matrix_check",
                        lambda m, n, p, precision, seed: primes.append(p) or True)
    assert run_cli(capsys, "check", "2", "3", "--suite", "repmat") == (0, "repmat: ok\n", "")
    assert primes == [5] * 5 + [7] * 5


@pytest.mark.parametrize("p", [5, 7])
def test_check_repmat_fails_when_a_column_of_b_vanishes_mod_p(capsys, monkeypatch, p):
    # one column's forms times p: every B(y) has rank below e modulo p, so a
    # non-unit divisor
    from nilzeta import oracle
    from nilzeta.liering import LinearFormMatrix, bracket_matrix

    b = bracket_matrix(2, 3)
    forms = {(i, j): tuple((k, c * p if j == 0 else c) for k, c in form) for (i, j), form in b.forms.items()}
    broken = LinearFormMatrix(b.rows, b.cols, b.nvars, forms)
    monkeypatch.setattr(oracle, "bracket_matrix", lambda m, n: broken)
    assert not any(oracle.rep_matrix_check(2, 3, p, 2, seed) for seed in range(10))
    assert run_cli(capsys, "check", "2", "3", "--suite", "repmat") == (1, "repmat: FAIL\n", "")


@pytest.mark.parametrize("n", range(1, 5))
def test_check_commat_tests_one_point_per_line(capsys, monkeypatch, n):
    import nilzeta.cli as cli_mod

    calls = []
    real = cli_mod.rank_mod

    def counted(matrix, p):
        calls.append(p)
        return real(matrix, p)

    monkeypatch.setattr(cli_mod, "rank_mod", counted)
    assert run_cli(capsys, "check", "2", str(n), "--suite", "commat") == (0, "commat: ok\n", "")
    assert sorted(calls) == [2] * (2**n - 1) + [3] * ((3**n - 1) // 2)


def _lines(q, n):
    """Every line of F_q^n, as the set of its nonzero points."""
    lines = set()
    for v in product(range(q), repeat=n):
        if any(v):
            lines.add(frozenset(tuple(lam * x % q for x in v) for lam in range(1, q)))
    return sorted(lines, key=sorted)


def _vanishing_on(line, n):
    """n linear forms that span, over F_q, the forms vanishing on `line`: for
    the point v with last nonzero coordinate k equal to 1, e_i - v_i e_k for
    each i != k, and a zero form in row k."""
    k = max(i for i in range(n) if min(line)[i])
    v = next(point for point in line if point[k] == 1)
    return [[0] * n if i == k else [(i == j) - v[i] * (j == k) for j in range(n)]
            for i in range(n)]


def _crt(mod2, mod3):
    """The residue modulo 6 that is mod2 modulo 2 and mod3 modulo 3."""
    return (3 * mod2 + 4 * mod3) % 6


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_check_commat_sees_every_line(capsys, monkeypatch, q, n):
    # one n x 1 mutant of B(1, n) per line l of F_q^n: modulo q its column
    # vanishes exactly on l, and modulo the other prime it is the column y,
    # which vanishes nowhere; so the check fails only by testing a point of l
    import nilzeta.cli as cli_mod
    from nilzeta.liering import LinearFormMatrix

    for line in _lines(q, n):
        mutant = LinearFormMatrix(n, 1, n, {
            (i, 0): tuple((j, _crt(c, i == j) if q == 2 else _crt(i == j, c)) for j, c in enumerate(row))
            for i, row in enumerate(_vanishing_on(line, n))})
        monkeypatch.setattr(cli_mod, "bracket_matrix", lambda m, n: mutant)
        monkeypatch.setattr(cli_mod, "b_matrix_recursive", lambda m, n: mutant)
        assert run_cli(capsys, "check", "1", str(n), "--suite", "commat") == (1, "commat: FAIL\n", "")


def test_check_builds_the_bracket_matrix_once(capsys, monkeypatch):
    # ten congruence checks, ten repmat checks and commat share one B, and
    # the cache keeps only the last pair's
    from nilzeta import liering

    real, built = liering.b_matrix_direct, []
    monkeypatch.setattr(liering, "b_matrix_direct", lambda struct: built.append(struct.dims) or real(struct))
    liering.bracket_matrix.cache_clear()
    code, out, _ = run_cli(capsys, "check", "2", "4", "--suite", "congruence,repmat,commat")
    assert (code, out) == (0, "congruence: ok\nrepmat: ok\ncommat: ok\n")
    assert [(dims.m, dims.n) for dims in built] == [(2, 4)]
    assert liering.bracket_matrix.cache_info().maxsize == 1
    # --print renders M = [[0, -B^T], [B, 0]] from the same B
    built.clear()
    liering.bracket_matrix.cache_clear()
    code, out, _ = run_cli(capsys, "check", "2", "4", "--suite", "commat", "--print")
    assert (code, out.endswith("commat: ok\n")) == (0, True)
    assert [(dims.m, dims.n) for dims in built] == [(2, 4)]


def test_check_commat_builds_no_commutator_matrix(capsys, monkeypatch):
    # the d x d matrix M is built only to print it under --print
    import nilzeta.cli as cli_mod

    def commutator(m, n):
        raise AssertionError("full_commutator_matrix was built")

    monkeypatch.setattr(cli_mod, "full_commutator_matrix", commutator)
    assert run_cli(capsys, "check", "2", "3", "--suite", "commat") == (0, "commat: ok\n", "")


def test_check_commat_print(capsys):
    code, out, _ = run_cli(capsys, "check", "1", "2", "--suite", "commat", "--print")
    assert code == 0
    assert "B(1,2):" in out and "M(1,2):" in out and "Y1" in out


def _usage_error(capsys, *argv) -> str:
    """Run argv, which must be a usage error; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_check_unknown_suite(capsys):
    assert "unknown suite" in _usage_error(capsys, "check", "1", "1", "--suite", "nope")


def test_check_unknown_suite_is_reported_before_the_census_refusal(capsys):
    err = _usage_error(capsys, "check", "1", "18", "--suite", "nope")
    assert "nope" in err and "refused" not in err


@pytest.mark.parametrize("suite", [",", "", " , "])
def test_check_empty_suite_list(capsys, suite):
    assert "no suite" in _usage_error(capsys, "check", "2", "3", "--suite", suite)


def test_verify_mismatch_exit_one(capsys, monkeypatch):
    import nilzeta.cli as cli_mod
    from nilzeta.oracle import VerifyRecord

    monkeypatch.setattr(
        cli_mod,
        "verify_dirichlet",
        lambda *a, **k: [VerifyRecord(k=0, formula=1, oracle=2)],
    )
    code, out, _ = run_cli(capsys, "verify", "1", "1")
    assert code == 1
    assert json.loads(out.strip())["match"] is False


def test_check_failure_exit_one(capsys, monkeypatch):
    import nilzeta.cli as cli_mod

    monkeypatch.setattr(cli_mod, "check_functional_equation", lambda m, n: False)
    code, out, _ = run_cli(capsys, "check", "1", "1", "--suite", "funceq")
    assert code == 1
    assert "funceq: FAIL" in out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ideal", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ideal", "0", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "1", "1", "--prime", "4"])
    assert exc.value.code == 2


def _console_script():
    """The function the `nilzeta` console script of pyproject.toml names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^nilzeta = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("argv,code", [
    pytest.param(("ideal", "1", "1"), 0, id="ok"),
    pytest.param(("rep", "1000", "3"), 2, id="refused"),
    pytest.param(("check", "1", "2", "--suite", "repmat"), 1, id="fail"),
])
def test_console_script_exit_codes(capsys, monkeypatch, argv, code):
    import nilzeta.cli as cli_mod

    script = _console_script()
    assert script is cli_mod.console_main
    monkeypatch.setattr(cli_mod, "_check_repmat", lambda m, n, seed: False)
    monkeypatch.setattr(sys, "argv", ["nilzeta", *argv])
    with pytest.raises(SystemExit) as exc:
        script()
    assert exc.value.code == code


@pytest.mark.parametrize("argv,name", [
    pytest.param(("ideal", "0", "1"), "m", id="m"),
    pytest.param(("check", "1", "-2"), "n", id="n"),
    pytest.param(("coeffs", "1", "1", "--upto", "-1"), "--upto", id="upto"),
    pytest.param(("verify", "1", "1", "--threads", "0"), "--threads", id="threads"),
    pytest.param(("verify", "1", "1", "--ceiling", "-1"), "--ceiling", id="ceiling"),
])
def test_integer_bounds_are_usage_errors(capsys, argv, name):
    assert f"{name} must be at least" in _usage_error(capsys, *argv)


def test_parser_verbs_are_the_verb_table():
    import argparse

    import nilzeta.cli as cli_mod

    (sub,) = [a for a in cli_mod.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli_mod._VERBS)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_threads_must_be_positive(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "1", "1", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))

    assert [p for p in range(-3, 5000) if is_prime(p)] == [p for p in range(-3, 5000) if trial(p)]


@pytest.mark.parametrize(
    "p, prime",
    [
        (2305843009213693951, True),  # 2^61 - 1
        (10**24 + 7, True),
        (1000000007 * 998244353, False),
        (1000000000039 * 1000000000061, False),
        (561, False),  # Carmichael
        (3215031751, False),  # Carmichael, strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to the first 9 prime bases
    ],
)
def test_is_prime_large(p, prime):
    assert is_prime(p) is prime


def test_coeffs_large_prime(capsys):
    p = 2305843009213693951
    code, out, _ = run_cli(capsys, "coeffs", "1", "1", "--upto", "1", "--prime", str(p))
    assert code == 0
    assert out.splitlines()[1] == f"k=1: 1+q = {1 + p} at q={p}"


@pytest.mark.parametrize("p", [1000000007 * 998244353, 3215031751, PRIME_BOUND, PRIME_BOUND + 2])
def test_prime_option_refuses_composites_and_the_bound(capsys, p):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "1", "1", "--prime", str(p)])
    assert exc.value.code == 2


def test_coeffs_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "1", "1", "--upto", "3", "--prime", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k=0: 1 = 1 at q=2"
    assert lines[3] == "k=3: 1+q+2 q^2+q^3 = 19 at q=2"
    code, out, _ = run_cli(capsys, "coeffs", "1", "1", "--upto", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][1]["terms"] == [{"q": 0, "c": "1"}, {"q": 1, "c": "1"}]


def test_coeffs_graded(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "1", "1", "--upto", "3", "--graded", "--prime", "2")
    assert code == 0
    lines = out.strip().splitlines()
    # graded Heisenberg picks up the extra (1 - t^3) factor at k = 3
    assert lines[3] == "k=3: 2+q+q^2+q^3 = 16 at q=2"


def test_coeffs_latex(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "1", "1", "--upto", "2", "--prime", "2", "--format", "latex")
    assert code == 0
    assert out == "k=0: 1 = 1 at q=2\nk=1: 1+q^{1} = 3 at q=2\nk=2: 1+q^{1}+q^{2} = 7 at q=2\n"


# No golden prints a q-only factor (1 - q^a): for a < 0 its two terms keep
# the polynomial's (et, eq) order, and a repeated one takes a power.
FACTORS = RationalFunction(LaurentPoly.one(), [(-1, 0, 1), (2, 0, 2), (0, 1, 1)])


# (1 + 3 q^2 t) / ((1 - q^2)(1 - q t)): shown in Y, it keeps its q^a as its
# text form (1+3 q^2 Y)/((1-q^2)(1-q Y)) does.
WITH_Q = RationalFunction(LaurentPoly({(0, 0): 1, (2, 1): 3}), [(2, 0, 1), (1, 1, 1)])


@pytest.mark.parametrize(
    "value, render, text",
    [
        (FACTORS, rational_text, "1/((-q^-1+1)(1-q^2)^2(1-t))"),
        (FACTORS, lambda x: render_rational(x, "text", True), "1/((-q^-1+1)(1-q^2)^2(1-Y))"),
        (FACTORS, rational_latex, r"\frac{1}{(-q^{-1}+1)(1-q^{2})^{2}(1-q^{-s})}"),
        (FACTORS, lambda x: rational_latex(x, True), r"\frac{1}{(-q^{-1}+1)(1-q^{2})^{2}(1-Y)}"),
        (WITH_Q, lambda x: rational_latex(x, True), r"\frac{1+3q^{2}Y}{(1-q^{2})(1-q^{1}Y)}"),
    ],
    ids=["text", "text-Y", "latex", "latex-Y", "latex-Y-q"],
)
def test_denominator_factors_literal(value, render, text):
    assert render(value) == text


def test_reduced_output(capsys):
    code, out, _ = run_cli(capsys, "reduced", "2", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(1+2 Y^7+2 Y^10+Y^17)/((1-Y)^9(1-Y^7)(1-Y^10)(1-Y^12))"
    assert lines[1] == "mu: 1/140"


def test_topo_output(capsys):
    code, out, _ = run_cli(capsys, "topo", "2", "3")
    assert code == 0
    assert out.strip() == "1/(5(s)(s-1)(s-2)(s-3)(s-4)(s-5)(s-6)(s-7)(s-8)(4s-9)(s-2)(7s-11))"


def test_report_json_complete(capsys):
    code, out, _ = run_cli(capsys, "report", "2", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dims"] == {"e": 3, "f": 6, "d": 9, "h": 12}
    assert obj["data"] == {"a": [27, 20, 11], "b": [12, 10, 7]}
    assert obj["mu"] == "1/140"
    assert obj["beta"] == "19/10"
    assert obj["alpha"] == 9
    for key in ("ideal", "graded", "rep_local", "reduced"):
        assert _dumps(rational_to_obj(rational_from_obj(obj[key]))) == json.dumps(
            obj[key], separators=(",", ":")
        )


def test_report_text_and_latex(capsys):
    code, out, _ = run_cli(capsys, "report", "1", "1")
    assert code == 0
    assert "ideal: 1/((1-t)(1-q t)(1-q^2 t^3))" in out
    code, out, _ = run_cli(capsys, "report", "1", "1", "--format", "latex")
    assert code == 0
    assert "ideal: \\frac{1}{(1-q^{-s})(1-q^{1-s})(1-q^{2-3s})}" in out


def test_graded_verb(capsys):
    code, out, _ = run_cli(capsys, "graded", "1", "1")
    assert code == 0
    assert out.strip() == "1/((1-t)(1-q t)(1-t^3))"
