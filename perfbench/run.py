#!/usr/bin/env python3
"""CLI-level benchmark for nilzeta.

    python3 perfbench/run.py --workload closed_form|oracle_verify|smith \
        --seed N --seconds S --trace 0|1

The program is imported from the `src/` beside this directory, whatever the
working directory.  The benchmark is a closed loop with one client: it runs
one `nilzeta` CLI op at a time, each in a fresh interpreter
(`python -m nilzeta.cli`), which is what a CLI user pays for (cold caches
and the import).  It runs whole passes over the workload's op pool (see
ops.py), at least two (one when tracing) and then more until S seconds have
elapsed, and checks every op's exit code and output.

`--trace 0` reports the end-to-end metrics.  `--trace 1` replays each op of
each pass in a fresh interpreter through `nilzeta.cli.main(argv)` twice, once
with layer spans (spans.py) and once without, and reports the per-layer
metrics; the difference between the two wall times is the tracing overhead.

Human-readable tables and a JSON line with the environment and details go to
stdout first; the last line is the result object.  Exits 2 without a result
when the program cannot be found or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

from ops import check_output, load_goldens, pass_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("closed_form", "oracle_verify", "smith")
# set-up samples: a few before the first op, then one after every
# SETUP_EVERY-th op, so that the median spans the whole run.
SETUP_FIRST = 5
SETUP_EVERY = 4
# Every end-to-end run makes at least this many passes; op_p50_s and
# op_tail_s are taken over exactly these, so they always rank the same
# multiset of ops.  A traced run needs one pass: its counts are per pass.
MIN_PASSES = 2
OP_TIMEOUT_S = 30.0
# No op starts after this much measuring, so that a run ends within 180 s.
START_BUDGET_S = 100.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "igusa.permutation_s": "s",
    "igusa.subset_s": "s",
    "igusa.perms": "count",
    "zetas.assemble_s": "s",
    "rational.series_s": "s",
    "rational.series_terms": "count",
    "rational.limit_t1_s": "s",
    "rational.equal_s": "s",
    "rational.invert_s": "s",
    "laurent.eval_s": "s",
    "liering.build_s": "s",
    "liering.rank_mod_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.u_lattices": "count",
    "oracle.pair_tests": "count",
    "oracle.u_lattices_per_s": "1/s",
    "oracle.threads2_speedup": "x",
    "oracle.snf_s": "s",
    "oracle.snf_calls": "count",
    "cli.render_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run cmd to completion; wall time, output and the os.wait4 rusage.

    The child leads its own process group, so that on timeout the whole
    group (including `--threads` workers) is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, start_new_session=True)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": proc.returncode,
        "timed_out": timed_out,
        "stdout": b"".join(chunks[proc.stdout]).decode(errors="replace"),
        "stderr": b"".join(chunks[proc.stderr]).decode(errors="replace"),
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # Linux reports ru_maxrss in KiB.
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def check_program(env: dict[str, str]) -> None:
    """The checkout's own nilzeta is importable; raises SetupError if not."""
    if not os.path.isfile(os.path.join(SRC, "nilzeta", "cli.py")):
        raise SetupError(f"no nilzeta sources under {SRC}")
    probe = run_process([sys.executable, "-c", "import nilzeta, sys; sys.stdout.write(nilzeta.__file__)"],
                        env, OP_TIMEOUT_S)
    if probe["rc"] != 0:
        raise SetupError(f"import nilzeta failed:\n{probe['stderr']}")
    if not os.path.abspath(probe["stdout"]).startswith(os.path.join(SRC, "")):
        raise SetupError(f"nilzeta imported from {probe['stdout']}, not from {SRC}")


def time_setup(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that only imports nilzeta: what every
    op pays before any work."""
    res = run_process([sys.executable, "-c", "import nilzeta"], env, OP_TIMEOUT_S)
    if res["rc"] != 0:
        raise SetupError(f"import nilzeta failed:\n{res['stderr']}")
    return res["wall_s"]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten values beyond it:
    (value, percentile, number beyond).  With ten or fewer values, the
    maximum, with the number beyond reported as 0."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def measure(workload: str, seed: int, seconds: float, env, goldens, run_op,
            min_passes: int, sample_setup: bool) -> tuple[list, list, list]:
    """At least `min_passes` whole passes, then more until `seconds` have
    elapsed.  Returns (passes, failures, setups): a pass holds its (op,
    result) pairs.  With `sample_setup`, set-up samples are taken
    SETUP_FIRST times before the first op and once after every
    SETUP_EVERY-th op, so that their median spans the whole run."""
    passes, failures = [], []
    setups = [time_setup(env) for _ in range(SETUP_FIRST)] if sample_setup else []
    start = time.perf_counter()
    index = count = 0
    while index < min_passes or time.perf_counter() - start < seconds:
        ops = pass_ops(workload, seed, index)
        done = []
        for op in ops:
            if time.perf_counter() - start > START_BUDGET_S:
                break
            result, error = run_op(op, env, goldens)
            if error is not None:
                failures.append({"argv": list(op.argv), "error": error})
            done.append((op, result))
            count += 1
            if sample_setup and count % SETUP_EVERY == 0:
                setups.append(time_setup(env))
        passes.append({"ops": done, "complete": len(done) == len(ops)})
        index += 1
        if not passes[-1]["complete"]:
            break
    return passes, failures, setups


def run_cli_op(op, env, goldens):
    res = run_process([sys.executable, "-m", "nilzeta.cli", *op.argv], env, OP_TIMEOUT_S)
    if res["timed_out"]:
        return res, f"timed out after {OP_TIMEOUT_S} s"
    error = check_output(op, res["rc"], res["stdout"], goldens)
    if error is not None and res["stderr"]:
        error += f"; stderr: {res['stderr'][-500:]}"
    return res, error


def replay(op, env, trace: bool) -> tuple[dict, str | None]:
    cmd = [sys.executable, os.path.join(HERE, "replay.py"), "--trace", "1" if trace else "0", "--", *op.argv]
    res = run_process(cmd, env, OP_TIMEOUT_S)
    if res["timed_out"]:
        return res, f"timed out after {OP_TIMEOUT_S} s"
    if res["rc"] != 0:
        return res, f"replay exited {res['rc']}: {res['stderr'][-500:]}"
    try:
        return json.loads(res["stdout"]), None
    except ValueError:
        return res, f"replay printed no result: {res['stderr'][-500:]}"


def run_traced_op(op, env, goldens):
    traced, error = replay(op, env, trace=True)
    if error is None:
        error = check_output(op, traced["rc"], traced["stdout"], goldens)
    untraced, untraced_error = replay(op, env, trace=False)
    if error is None and untraced_error is None:
        error = check_output(op, untraced["rc"], untraced["stdout"], goldens)
    error = error or untraced_error
    if error is not None:
        return None, error
    return {"traced": traced, "untraced_wall_s": untraced["wall_s"]}, None


def end_to_end_metrics(passes: list, setups: list) -> tuple[dict, dict]:
    complete = [p for p in passes if p["complete"]] or passes
    walls = [res["wall_s"] for p in passes[:MIN_PASSES] for _, res in p["ops"]]
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(res["wall_s"] for _, res in p["ops"]) for p in complete),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "cpu_s": statistics.median(sum(res["cpu_s"] for _, res in p["ops"]) for p in complete),
        "peak_rss_mb": max(res["maxrss_mb"] for p in passes for _, res in p["ops"]),
    }
    details = {"op_tail_percentile": tail_pct, "op_tail_ops_beyond": beyond,
               "op_stat_ops": len(walls), "setup_samples": len(setups)}
    return metrics, details


def pass_layer_metrics(done: list) -> dict:
    """Per-layer figures of one pass: sums over its ops."""
    summaries = [(op, rec["traced"]["trace"], rec) for op, rec in done]

    def inclusive(name):
        return sum(s["inclusive_s"].get(name, 0.0) for _, s, _ in summaries)

    def count(name):
        return sum(s["counts"][name] for _, s, _ in summaries)

    twin_keys = {op.golden_key for op, _, _ in summaries if op.threads > 1}
    single = sum(s["inclusive_s"].get("oracle.enumerate", 0.0) for op, s, _ in summaries
                 if op.threads == 1 and op.golden_key in twin_keys)
    threaded = sum(s["inclusive_s"].get("oracle.enumerate", 0.0) for op, s, _ in summaries
                   if op.threads > 1)
    enumerate_s = inclusive("oracle.enumerate")
    traced_wall = sum(s["wall_s"] for _, s, _ in summaries)
    untraced_wall = sum(rec["untraced_wall_s"] for _, _, rec in summaries)
    return {
        "igusa.permutation_s": inclusive("igusa.permutation"),
        "igusa.subset_s": inclusive("igusa.subset"),
        "igusa.perms": count("igusa.perms"),
        "zetas.assemble_s": sum(s["self_s"]["zetas"] for _, s, _ in summaries),
        "rational.series_s": inclusive("rational.series"),
        "rational.series_terms": count("rational.series_terms"),
        "rational.limit_t1_s": inclusive("rational.limit_t1"),
        "rational.equal_s": inclusive("rational.equal"),
        "rational.invert_s": inclusive("rational.invert"),
        "laurent.eval_s": inclusive("laurent.eval"),
        "liering.build_s": inclusive("liering.build"),
        "liering.rank_mod_s": inclusive("liering.rank_mod"),
        "oracle.enumerate_s": enumerate_s,
        "oracle.u_lattices": count("oracle.u_lattices"),
        "oracle.pair_tests": count("oracle.pair_tests"),
        "oracle.u_lattices_per_s": count("oracle.u_lattices") / enumerate_s if enumerate_s else 0.0,
        # 0 on workloads without `--threads 2` twins.
        "oracle.threads2_speedup": single / threaded if threaded else 0.0,
        "oracle.snf_s": inclusive("oracle.snf"),
        "oracle.snf_calls": sum(s["calls"].get("oracle.snf", 0) for _, s, _ in summaries),
        "cli.render_s": inclusive("cli.render"),
        "cli.stdout_bytes": sum(len(rec["traced"]["stdout"].encode()) for _, _, rec in summaries),
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": sum(s["unattributed_s"] for _, s, _ in summaries),
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def per_layer_metrics(passes: list) -> dict:
    per_pass = [pass_layer_metrics([(op, rec) for op, rec in p["ops"] if rec is not None])
                for p in passes if p["complete"]] or [pass_layer_metrics([])]
    return {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER_UNITS}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the program's sources, naming the code when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nilzeta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(load_start: tuple, load_end: tuple) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": sys.version.split()[0],
        "nproc": nproc,
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "loaded": max(load_start[0], load_end[0]) > nproc,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CLI-level benchmark for nilzeta")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_start = os.getloadavg()
    env = child_env()
    try:
        goldens = load_goldens()
        check_program(env)
        run_op = run_traced_op if args.trace else run_cli_op
        passes, failures, setups = measure(args.workload, args.seed, args.seconds, env, goldens,
                                           run_op, min_passes=1 if args.trace else MIN_PASSES,
                                           sample_setup=not args.trace)
    except (OSError, ValueError, SetupError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(p["ops"]) for p in passes)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": len(passes), "attempted": attempted,
               "fail_ratio": len(failures) / attempted, "failures": failures}
    if args.trace:
        metrics = per_layer_metrics(passes)
        units = PER_LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump([{"argv": list(op.argv), "untraced_wall_s": rec["untraced_wall_s"],
                        **rec["traced"]["trace"]}
                       for p in passes for op, rec in p["ops"] if rec is not None], fh)
        details["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics, tail_details = end_to_end_metrics(passes, setups)
        units = END_TO_END_UNITS
        details.update(tail_details)
    details["env"] = environment(load_start, os.getloadavg())

    print_table(metrics, units)
    print(f"{'fail_ratio':<28} {details['fail_ratio']:>16.6g} ratio")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
