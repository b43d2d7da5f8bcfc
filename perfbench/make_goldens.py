#!/usr/bin/env python3
"""Regenerate goldens.json: the stdout digest of every pool op whose output
is deterministic (`report`, `coeffs` and `verify`).

    python3 perfbench/make_goldens.py

Run it only at a revision whose outputs are known to be right: the digests
are the benchmark's only check that `report` and `coeffs` print the right
numbers.
"""

from __future__ import annotations

import json
import sys

from ops import GOLDENS_PATH, POOLS, pool_ops, stdout_digest
from run import OP_TIMEOUT_S, child_env, git_commit, run_process


def main() -> int:
    env = child_env()
    digests = {}
    for workload in POOLS:
        for op in pool_ops(workload):
            if op.verb == "check" or op.golden_key in digests:
                continue
            res = run_process([sys.executable, "-m", "nilzeta.cli", *op.argv], env, OP_TIMEOUT_S)
            if res["rc"] != op.expect_rc or res["timed_out"]:
                print(f"{op.golden_key}: exit {res['rc']}\n{res['stderr']}", file=sys.stderr)
                return 1
            digests[op.golden_key] = stdout_digest(res["stdout"])
            print(f"{op.golden_key}: {digests[op.golden_key]}")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"source_commit": git_commit(), "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
