"""Replay one nilzeta CLI op in-process through `nilzeta.cli.main(argv)`.

    python3 perfbench/replay.py --trace 0|1 -- <nilzeta arguments...>

Run in a fresh interpreter per op (with `src` on PYTHONPATH), so caches are
as cold as a CLI user finds them.  The op's stdout is captured; one JSON
object goes to the real stdout: exit code, in-process wall time around
`main`, the captured stdout and, with `--trace 1`, the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace" or argv[1] not in ("0", "1") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace = argv[1] == "1"
    op_argv = argv[3:]

    from nilzeta import cli

    tracer = None
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    captured = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            rc = cli.main(op_argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    wall_s = perf_counter() - t0
    result = {"rc": rc, "wall_s": wall_s, "stdout": captured.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s, t0)
    sys.stdout.write(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
