"""Permutation statistics, Gaussian q-binomials, ordered composition sets,
and a deterministic primality test.

Permutations of [n] are one-line tuples; the length statistic is the
inversion count and descents are the positions i in [n-1] with
w(i+1) < w(i).  Univariate polynomials in the Gaussian parameter Y are
plain coefficient tuples, low degree first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator


def permutations_with_stats(n: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Yield (w, length, descents) for every w in S_n, in lexicographic order.

    Descents are reported as a sorted tuple of positions, which keeps the
    iteration order (and every numerator built from it) reproducible.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for w in itertools.permutations(range(1, n + 1)):
        length = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        descents = tuple(i + 1 for i in range(n - 1) if w[i + 1] < w[i])
        yield w, length, descents


def poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, b: int) -> tuple[int, ...]:
    """The Gaussian binomial (a choose b)_Y as a coefficient tuple.

    Built row by row with the q-Pascal rule
    (k choose j) = (k-1 choose j-1) + Y^j (k-1 choose j); there is no
    polynomial division.  Memoised, so the chain products of the subset
    form and of the descent census share their factors.
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    if a < b:
        raise ValueError(f"need a >= b, got ({a}, {b})")
    row = [[1]]
    for k in range(1, a + 1):
        new = [[1]]
        for j in range(1, min(k, b) + 1):
            out = [0] * (j * (k - j) + 1)
            for i, c in enumerate(row[j - 1]):
                out[i] += c
            if j < k:
                for i, c in enumerate(row[j]):
                    out[i + j] += c
            new.append(out)
        row = new
    return tuple(row[b])


def gaussian_multinomial(n: int, subset) -> tuple[int, ...]:
    """The Gaussian multinomial (n choose I)_Y for I a subset of [n].

    Telescopes over the increasing chain of I:
    (n choose i_l)(i_l choose i_{l-1}) ... (i_2 choose i_1).
    """
    chain = sorted(subset)
    if any(i < 1 or i > n for i in chain):
        raise ValueError("subset must lie in [n]")
    if len(set(chain)) != len(chain):
        raise ValueError("subset entries must be distinct")
    out = (1,)
    upper = n
    for i in reversed(chain):
        out = poly_mul(out, gaussian_binomial(upper, i))
        upper = i
    return out


def gaussian_multinomials(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """gaussian_multinomial(n, I) for every subset I of [n-1], keyed by I
    as a sorted tuple.

    The chains share their tops: the product for I is the product for I
    minus its least element i_1, times (i_2 choose i_1), so each subset
    costs one multiplication instead of |I|.
    """
    if n < 1:
        raise ValueError("n must be positive")
    table = {(): (1,)}
    for low in range(n - 1, 0, -1):
        for chain, product in list(table.items()):
            table[(low,) + chain] = poly_mul(product, gaussian_binomial(chain[0] if chain else n, low))
    return table


def compositions_revlex(total: int, n: int) -> list[tuple[int, ...]]:
    """All vectors in N_0^n with coordinate sum `total`, largest-lex first."""
    if n < 1:
        raise ValueError("n must be positive")
    out: list[tuple[int, ...]] = []
    if total < 0:
        return out

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), total, n)
    return out


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_BOUND.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality test for p < PRIME_BOUND."""
    if p < 2:
        return False
    for base in _PRIME_BASES:
        if p % base == 0:
            return p == base
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _PRIME_BASES:
        x = pow(base, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below PRIME_BOUND."""
    if not (p < PRIME_BOUND and is_prime(p)):
        raise ValueError(f"p must be a prime below {PRIME_BOUND}, got {p}")


@dataclass(frozen=True)
class LieDims:
    """Ranks attached to the pair (m, n): e, f count the two generator layers,
    d = e + f is the abelianization rank, h = d + n the total rank."""

    m: int
    n: int
    e: int
    f: int
    d: int
    h: int


def e_count(m: int, n: int) -> int:
    return comb(n + m - 2, n - 1)


def f_count(m: int, n: int) -> int:
    return comb(n + m - 1, n - 1)


def lie_dims(m: int, n: int) -> LieDims:
    """Compute (e, f, d, h) for the pair (m, n) and sanity-check the binomial
    identities relating adjacent parameters."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    e = e_count(m, n)
    f = f_count(m, n)
    d = e + f
    h = d + n
    if n >= 2:
        if sum(e_count(j, n - 1) for j in range(1, m + 1)) != e:
            raise AssertionError("column identity for e failed")
        if e + f_count(m, n - 1) != f:
            raise AssertionError("e + f identity failed")
    if sum(e_count(m, j) for j in range(1, n + 1)) != f:
        raise AssertionError("row identity for f failed")
    return LieDims(m=m, n=n, e=e, f=f, d=d, h=h)
