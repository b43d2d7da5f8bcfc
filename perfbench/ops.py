"""Workload pools, seeded op sequences and output checks for the benchmark.

Each workload is a fixed pool of `nilzeta` CLI invocations.  One pass runs
every pool op exactly once, in an order drawn from the workload seed; ops
that take a `--seed` (the randomized suites) get one drawn from the same
stream.  Every pass therefore does the same kind and amount of work, so
per-pass figures are comparable across seeds, while the op order and the
random suite inputs change with the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

# Far above any estimate `verify` computes for the pool below, so that the
# ceiling never decides whether an op runs.
VERIFY_CEILING = str(10**30)

CLOSED_FORM_SUITES = "funceq,zero,igusa"
SMITH_SUITES = "congruence,repmat,commat"

# Three tiny ops that between them enter every traced layer.  Every pool
# ends with them, so that no per-layer time is a structural zero on any
# workload; together they cost about 0.7 s of a 10 to 15 s pass.
PROBES = [
    ("check", "1", "2", "--suite", "funceq,zero,igusa,commat,congruence,repmat"),
    ("coeffs", "1", "2", "--upto", "2", "--prime", "2"),
    ("verify", "1", "1", "--prime", "2", "--upto", "2"),
]

# Why each workload exists is recorded in BENCHMARK.json.  The pools are
# sized so that one pass takes 10 to 15 s on a 2-vCPU Xeon VM with
# Python 3.11, which fits two passes in a 20 s run.
POOLS: dict[str, list[tuple[str, ...]]] = {
    # Closed form only: Igusa assembly, factored rational functions, series,
    # t -> 1 limits, functional equation, rendering.  No enumeration beyond
    # the probe ops.
    "closed_form": [
        ("report", "1", "9", "--format", "json"),
        ("report", "2", "8", "--format", "json"),
        ("report", "1", "8", "--format", "json"),
        ("report", "2", "7", "--format", "json"),
        ("report", "3", "6", "--format", "json"),
        ("report", "4", "4", "--format", "json"),
        ("report", "5", "5", "--format", "json"),
        ("coeffs", "1", "8", "--upto", "8"),
        ("coeffs", "2", "8", "--upto", "6", "--prime", "2"),
        ("coeffs", "2", "7", "--upto", "8"),
        ("coeffs", "3", "6", "--upto", "6"),
        ("coeffs", "4", "4", "--upto", "8", "--prime", "3"),
        ("coeffs", "5", "5", "--upto", "6"),
        ("coeffs", "3", "5", "--upto", "8", "--prime", "2"),
        ("check", "2", "7", "--suite", CLOSED_FORM_SUITES),
        ("check", "2", "6", "--suite", CLOSED_FORM_SUITES),
        ("check", "3", "6", "--suite", CLOSED_FORM_SUITES),
        ("check", "4", "4", "--suite", CLOSED_FORM_SUITES),
        ("check", "5", "5", "--suite", CLOSED_FORM_SUITES),
        *PROBES,
    ],
    # HNF enumeration against a tiny closed form (n <= 3).  The last three
    # ops are `--threads 2` twins of the three heaviest single-thread ops.
    "oracle_verify": [
        ("verify", "2", "2", "--prime", "2", "--upto", "4"),
        ("verify", "2", "2", "--prime", "3", "--upto", "3"),
        ("verify", "1", "3", "--prime", "2", "--upto", "5"),
        ("verify", "1", "4", "--prime", "2", "--upto", "4"),
        ("verify", "3", "2", "--prime", "2", "--upto", "3"),
        ("verify", "1", "2", "--prime", "2", "--upto", "7"),
        ("verify", "1", "2", "--prime", "3", "--upto", "5"),
        ("verify", "1", "1", "--prime", "7", "--upto", "6"),
        ("verify", "2", "2", "--prime", "2", "--upto", "4", "--graded"),
        ("verify", "1", "3", "--prime", "2", "--upto", "5", "--graded"),
        ("verify", "1", "4", "--prime", "2", "--upto", "4", "--threads", "2"),
        ("verify", "1", "3", "--prime", "2", "--upto", "5", "--threads", "2"),
        ("verify", "3", "2", "--prime", "2", "--upto", "3", "--threads", "2"),
        *PROBES,
    ],
    # Smith elimination on dense commutator matrices (congruence, repmat)
    # and the commutator-matrix builders and rank_mod (commat).  The three
    # pairs whose cost depends most on the random lattice types appear twice,
    # each time with its own suite seed.
    "smith": [
        *(("check", m, n, "--suite", SMITH_SUITES)
          for m, n in (
              ("3", "4"), ("4", "4"), ("3", "5"), ("2", "6"), ("2", "7"), ("2", "5"),
              ("1", "8"), ("5", "3"), ("6", "3"), ("1", "7"), ("3", "3"), ("2", "4"),
              ("3", "5"), ("2", "7"), ("2", "6"),
          )),
        *PROBES,
    ],
}

# Every op in every pool exits 0 at this revision.
EXPECTED_RC = 0


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the argv after `nilzeta`, and how to check it."""

    argv: tuple[str, ...]
    expect_rc: int = EXPECTED_RC

    @property
    def verb(self) -> str:
        return self.argv[0]

    @property
    def threads(self) -> int:
        return int(_option(self.argv, "--threads", "1"))

    @property
    def golden_key(self) -> str:
        """Digest key: the argv without options that must not change stdout."""
        out = []
        skip = False
        for arg in self.argv:
            if skip:
                skip = False
                continue
            if arg in ("--threads", "--ceiling"):
                skip = True
                continue
            out.append(arg)
        return " ".join(out)


def _option(argv, name: str, default: str) -> str:
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def pool_ops(workload: str) -> list[Op]:
    """The pool with fixed options applied, before any seed is drawn."""
    ops = []
    for argv in POOLS[workload]:
        if argv[0] == "verify":
            argv = argv + ("--ceiling", VERIFY_CEILING)
        ops.append(Op(argv=argv))
    return ops


def pass_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The ops of one pass: the whole pool, in a seeded order, with seeded
    `--seed` values for the randomized suites."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    ops = []
    for op in pool_ops(workload):
        if op.verb == "check":
            op = Op(argv=op.argv + ("--seed", str(rng.randrange(1, 10**6))), expect_rc=op.expect_rc)
        ops.append(op)
    rng.shuffle(ops)
    return ops


def load_goldens() -> dict[str, str]:
    """Golden stdout digests keyed by `Op.golden_key`."""
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(op: Op, rc: int, stdout: str, goldens: dict[str, str]) -> str | None:
    """None when the op's result is correct, else the reason it failed."""
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    if op.verb == "check":
        suites = _option(op.argv, "--suite", "")
        expected = [f"{s}: ok" for s in suites.split(",")]
        if stdout.splitlines() != expected:
            return "check output is not every requested suite reporting ok"
        return None
    if op.verb == "verify":
        upto = int(_option(op.argv, "--upto", "3"))
        lines = stdout.splitlines()
        if len(lines) != upto + 1:
            return f"{len(lines)} verify records, expected {upto + 1}"
        for k, line in enumerate(lines):
            try:
                rec = json.loads(line)
            except ValueError:
                return f"verify record {k} is not JSON: {line!r}"
            if rec.get("k") != k or rec.get("match") is not True:
                return f"verify record {k} does not match: {line}"
    golden = goldens.get(op.golden_key)
    if golden is None:
        return f"no golden digest for {op.golden_key!r}"
    if stdout_digest(stdout) != golden:
        return "stdout digest differs from the golden"
    return None
