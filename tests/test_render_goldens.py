"""Byte-identity goldens for the CLI renderers and LaurentPoly.__repr__.

Each golden is the sha256 of everything `nilzeta.cli.main(argv)` prints to
stdout, plus its exit code.  Regenerate (only at a revision whose output is
known to be right) with

    PYTHONPATH=src python tests/test_render_goldens.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from nilzeta.cli import main
from nilzeta.laurent import LaurentPoly

GOLDENS = pathlib.Path(__file__).with_name("render_goldens.json")
PAIRS = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4)]
VERBS = ("ideal", "graded", "rep", "topo", "reduced", "invariants", "report")


def grid() -> list[list[str]]:
    argvs = []
    for m, n in PAIRS:
        pair = [str(m), str(n)]
        for verb in VERBS:
            for fmt in ("text", "latex", "json"):
                argvs.append([verb, *pair, "--format", fmt])
        for fmt in ("text", "json"):
            argvs.append(["coeffs", *pair, "--upto", "4", "--format", fmt])
            argvs.append(["coeffs", *pair, "--upto", "4", "--format", fmt, "--prime", "3"])
            argvs.append(["coeffs", *pair, "--upto", "3", "--format", fmt, "--graded"])
        argvs.append(["check", *pair, "--suite", "commat", "--print"])
    return argvs


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("argv", grid(), ids=" ".join)
def test_cli_output_matches_golden(goldens, argv):
    assert run(argv) == goldens[" ".join(argv)]


def test_goldens_cover_the_grid(goldens):
    assert sorted(goldens) == sorted(" ".join(argv) for argv in grid())


@pytest.mark.parametrize(
    "terms, text",
    [
        ({}, "LaurentPoly(0)"),
        ({(0, 0): 7}, "LaurentPoly(7)"),
        ({(0, 0): -1}, "LaurentPoly(-1)"),
        ({(2, 1): -3, (0, 0): 2}, "LaurentPoly(2-3 q^2 t)"),
        ({(1, 0): -1, (0, 2): 5}, "LaurentPoly(-q+5 t^2)"),
        ({(0, 0): 1, (1, 0): -1, (1, 1): 1, (-2, 3): -1}, "LaurentPoly(1-q+q t-q^-2 t^3)"),
    ],
)
def test_laurent_repr_literal(terms, text):
    assert repr(LaurentPoly(terms)) == text


if __name__ == "__main__":
    table = {" ".join(argv): run(argv) for argv in grid()}
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} goldens to {GOLDENS}")
