"""Point subprocesses at the package these tests import, so that the tests
that start `python -m nilzeta.cli` also pass under a plain `pytest` from a
checkout, where pyproject.toml puts src on sys.path but not on PYTHONPATH."""

import os
from pathlib import Path

import nilzeta

_SRC = str(Path(nilzeta.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
