#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py [--seed N]

Checks, for one seed:
- the op sequence of a pass is a function of (workload, seed, pass);
- every deterministic pool op has a golden digest;
- the work counts of the traced run (`igusa.perms`, `rational.series_terms`,
  `oracle.u_lattices`, `oracle.pair_tests`, `oracle.snf_calls` and the other
  per-span call counts) repeat exactly when a small set of ops, at least one
  per workload, is replayed twice in fresh interpreters;
- per op, the layer self times plus the unattributed remainder add up to the
  traced wall time (the replay itself refuses to report otherwise).
Prints one line per check and exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import sys

from ops import POOLS, load_goldens, pass_ops, pool_ops
from run import child_env, run_traced_op

# Cheap ops that between them exercise every counter.
REPLAYED = {
    "closed_form": ("report 4 4", "coeffs 4 4", "check 4 4"),
    "oracle_verify": ("verify 1 1", "verify 3 2 --prime 2 --upto 3 --threads"),
    "smith": ("check 3 3",),
}


def fail(message: str) -> int:
    print(f"FAIL {message}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    for workload in POOLS:
        first = pass_ops(workload, args.seed, 0)
        if first != pass_ops(workload, args.seed, 0):
            return fail(f"{workload}: op sequence is not a function of the seed")
        # pass_ops appends the seeded `--seed S` to randomized suites only.
        drawn = sorted(op.argv[:-2] if op.verb == "check" else op.argv for op in first)
        if drawn != sorted(op.argv for op in pool_ops(workload)):
            return fail(f"{workload}: a pass does not run the whole pool")
    print("ok op sequences are seeded and cover the pool")

    goldens = load_goldens()
    missing = [op.golden_key for w in POOLS for op in pool_ops(w)
               if op.verb != "check" and op.golden_key not in goldens]
    if missing:
        return fail(f"no golden digest for {missing}")
    print("ok every report, coeffs and verify op has a golden digest")

    env = child_env()
    for workload, prefixes in REPLAYED.items():
        ops = [op for op in pass_ops(workload, args.seed, 0)
               if any(" ".join(op.argv).startswith(p) for p in prefixes)]
        if not ops:
            return fail(f"{workload}: no op matches {prefixes}")
        for op in ops:
            runs = []
            for _ in range(2):
                rec, error = run_traced_op(op, env, goldens)
                if error is not None:
                    return fail(f"{' '.join(op.argv)}: {error}")
                trace = rec["traced"]["trace"]
                runs.append((trace["counts"], trace["calls"]))
            if runs[0] != runs[1]:
                return fail(f"{' '.join(op.argv)}: counts differ between replays: {runs}")
            print(f"ok counts repeat for {' '.join(op.argv)}: {runs[0][0]}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
