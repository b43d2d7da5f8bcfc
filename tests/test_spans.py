"""The benchmark tracer's bindings: every function perfbench/spans.py
rebinds, or reads its counts from, exists in the package."""

import importlib
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_bindings_resolve():
    spans: dict = {}
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), spans)
    bindings = [(module, attr) for module, attr, _ in spans["SPANS"]]
    bindings += [(module, f"{cls}.{method}") for module, cls, method, _ in spans["METHOD_SPANS"]]
    bindings.append(("oracle", "hnf_count"))
    missing = []
    for module, path in bindings:
        obj = importlib.import_module(f"nilzeta.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"nilzeta.{module}.{path}")
    assert missing == []
