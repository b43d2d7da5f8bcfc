"""Point subprocesses at the package these tests import, so that the tests
that start `python -m nilzeta.cli` also pass under a plain `pytest` from a
checkout, where pyproject.toml puts src on sys.path but not on PYTHONPATH;
and share the `dense` fixture between the test modules."""

import os
from pathlib import Path

import pytest

import nilzeta

_SRC = str(Path(nilzeta.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def dense():
    """`dense(form, n)`: the coefficient vector of a form given as
    (variable, coefficient) pairs, for comparing with published dense data."""

    def dense(form, n):
        coeffs = [0] * n
        for k, c in form:
            coeffs[k] += c
        return tuple(coeffs)

    return dense
