"""Gaussian q-binomials, ordered composition sets, a deterministic
primality test, the base class `Value` of the package's value types, and
the ranks `LieDims` of the pair (m, n) with the bound on d that every entry
point checks.

Univariate polynomials in the Gaussian parameter Y are plain coefficient
tuples, low degree first.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import attrgetter


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
    """All vectors in N_0^n with coordinate sum `total`, largest-lex first.

    Each vector after the first is the next smaller one: take a unit from
    the last nonzero coordinate before the final one, and put it, with all
    of the final coordinate, into that coordinate's right neighbour.  A loop,
    not a recursion, so n may be as large as a ring's d.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if total < 0:
        return []
    comp = [total] + [0] * (n - 1)
    out = [tuple(comp)]
    while True:
        i = n - 2
        while i >= 0 and not comp[i]:
            i -= 1
        if i < 0:
            return out
        tail = comp[-1]
        comp[-1] = 0
        comp[i] -= 1
        comp[i + 1] = tail + 1
        out.append(tuple(comp))


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


class Value:
    """Base of the package's value types: immutable, with the names in
    `__slots__` as its fields, in order.

    Its constructor alone stores fields, binding positional and then keyword
    arguments; a missing, extra, repeated or unknown field is a TypeError.  A
    pure record has no `__init__`; one that canonicalises ends its own in
    `super().__init__(...)` and stores nothing derivable.  As a frozen
    dataclass would, the base makes assignment and deletion raise
    AttributeError, makes an instance equal only to one of the same type with
    equal fields, hashes the field tuple, reads `Name(field=value, ...)` as
    its repr, and copies and pickles.  A per-class `attrgetter` reads the
    field tuple; for a type of one field it reads the bare value, so such a
    type (`LaurentPoly`) defines its own `__eq__` and `__hash__`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *fields, **named):
        slots = self.__slots__
        values = dict(zip(slots, fields))
        for key, value in named.items():
            if key in values or key not in slots:
                raise TypeError(f"{type(self).__qualname__}() got a repeated or unknown field {key!r}")
            values[key] = value
        if len(fields) > len(slots) or len(values) < len(slots):
            raise TypeError(f"{type(self).__qualname__}() takes exactly the fields {', '.join(slots)}")
        for key, value in values.items():
            object.__setattr__(self, key, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle cannot set the fields, so they call the constructor,
        # which takes the fields in order and leaves canonical ones unchanged
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class LieDims(Value):
    """Ranks attached to the pair (m, n): e, f count the two generator layers,
    d = e + f is the abelianization rank, h = d + n the total rank."""

    __slots__ = ("m", "n", "e", "f", "d", "h")


def e_count(m: int, n: int) -> int:
    return comb(n + m - 2, n - 1)


def f_count(m: int, n: int) -> int:
    return comb(n + m - 1, n - 1)


DIMS_BOUND = 10**6  # closed forms hold O(d) factors; lie_dims sums O(m + n) terms


def dims_exceed(m: int, n: int) -> bool:
    """Whether d = e + f exceeds DIMS_BOUND, without forming f = C(m + n - 1, n - 1)
    when it alone does: its partial products C(m + n - 1 - k + i, i), k = min(n - 1, m),
    at least double at each step, so few are formed whatever the size of m and n."""
    k = min(n - 1, m)
    value = 1
    for i in range(1, k + 1):
        value = value * (m + n - 1 - k + i) // i
        if value > DIMS_BOUND:
            return True
    return e_count(m, n) + f_count(m, n) > DIMS_BOUND


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
