"""Point subprocesses at the package these tests import, so that the tests
that start `python -m nilzeta.cli` also pass under a plain `pytest` from a
checkout, where pyproject.toml puts src on sys.path but not on PYTHONPATH;
and share the `dense` and `permutations_with_stats` fixtures between the
test modules."""

import itertools
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


@pytest.fixture
def permutations_with_stats():
    """`permutations_with_stats(n)`: (w, length, descents) for every w in S_n,
    in lexicographic order, by walking S_n.  The reference for the descent
    census of `nilzeta.igusa`; w is a one-line tuple, its length the
    inversion count, its descents the positions i in [n-1] with
    w(i+1) < w(i), as a sorted tuple."""

    def permutations_with_stats(n):
        for w in itertools.permutations(range(1, n + 1)):
            length = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
            yield w, length, tuple(i + 1 for i in range(n - 1) if w[i + 1] < w[i])

    return permutations_with_stats
