"""Ghost components, Witt coordinates, and the Burnside-ring operations.

The closed-walk counts c_n of a graph and the orbit counts s_n of its
periodic bi-infinite paths are linked by the triangular system
c_n = sum_{d|n} d*s_d, solved for s_n from the s_d of the proper divisors
of n.  Instances are lazy: components are computed and memoized on demand,
so objects with infinite support are usable at any finite depth.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import mul

from .errors import InvalidInput, NotRealizable
from .graphs import Graph
from .spectral import graph_reversed_char_poly, newton_power_sums


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """Divisors of n ascending, by trial division up to sqrt(n); () if n < 1."""
    small = [d for d in range(1, isqrt(max(n, 0)) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def ghost_to_witt(c, n: int) -> int:
    """s_n from the ghost components c_d of the divisors d of n, with
    realizability checks at every divisor.

    `c` is a callable or a mapping; a mapping that lacks a divisor of n
    raises InvalidInput.
    """
    return (AlmostFiniteZSet(c) if callable(c) else from_ghost(c)).witt(n)


def witt_to_ghost(s, n: int) -> int:
    """c_n = sum_{d|n} d * s_d."""
    get = s if callable(s) else lambda d: s.get(d, 0)
    return sum(d * get(d) for d in divisors(n))


class AlmostFiniteZSet:
    """Symbolic Z-set given by its ghost components c_n (n >= 1).

    Ghost and Witt components are memoized per instance.
    """

    def __init__(self, ghost_fn, label: str = ""):
        self._ghost_fn = ghost_fn
        self._ghost: dict[int, int] = {}
        self._witt: dict[int, int] = {}
        self.label = label

    def ghost(self, n: int) -> int:
        if n < 1:
            raise InvalidInput("ghost index must be >= 1")
        if n not in self._ghost:
            self._ghost[n] = int(self._ghost_fn(n))
        return self._ghost[n]

    def witt(self, n: int) -> int:
        """s_n by n*s_n = c_n - sum_{d|n, d<n} d*s_d, which certifies the
        s_d of the proper divisors first."""
        if n in self._witt:
            return self._witt[n]
        if n < 1:
            raise InvalidInput("witt index must be >= 1")
        lower = sum(d * self.witt(d) for d in divisors(n)[:-1])
        total = self.ghost(n) - lower
        s, r = divmod(total, n)
        if r:
            raise NotRealizable(f"divisor sum {total} at n={n} is not divisible by {n}")
        if s < 0:
            raise NotRealizable(f"negative orbit count s_{n} = {s}")
        self._witt[n] = s
        return s

    def ghost_row(self, upto: int) -> list[int]:
        return [self.ghost(n) for n in range(1, upto + 1)]

    def witt_row(self, upto: int) -> list[int]:
        return [self.witt(n) for n in range(1, upto + 1)]

    def __repr__(self):
        return f"AlmostFiniteZSet({self.label or 'anonymous'})"


def from_graph(X: Graph) -> AlmostFiniteZSet:
    """The periodic bi-infinite paths of X: ghost components are tr(A^n).

    They are the Newton power sums of det(xI - A), read from det(I - uA),
    which X computes once, extended to at least twice their depth when a
    deeper one is asked for.
    """
    sums: list[int] = []

    def ghost(n: int) -> int:
        if n > len(sums):
            newton_power_sums(graph_reversed_char_poly(X),
                              max(n, 2 * len(sums)), sums)
        return sums[n - 1]

    return AlmostFiniteZSet(ghost, label="from-graph")


def from_witt(s: dict[int, int]) -> AlmostFiniteZSet:
    """Explicit finite orbit support: s[n] copies of the n-orbit."""
    for n, v in s.items():
        if n < 1 or v < 0:
            raise InvalidInput("orbit support needs n >= 1 and counts >= 0")
    S = AlmostFiniteZSet(lambda n: witt_to_ghost(s, n), label="from-witt")
    for n, v in s.items():
        S._witt[n] = v
    return S


def from_ghost(c: dict[int, int]) -> AlmostFiniteZSet:
    """Explicit ghost values; realizability is checked lazily on witt()."""
    def fn(n: int) -> int:
        if n not in c:
            raise InvalidInput(f"ghost component c_{n} not provided")
        return c[n]
    return AlmostFiniteZSet(fn, label="from-ghost")


ZERO = AlmostFiniteZSet(lambda n: 0, label="zero")


def burnside_add(S: AlmostFiniteZSet, T: AlmostFiniteZSet) -> AlmostFiniteZSet:
    """Disjoint union: ghost components (and Witt coordinates) add."""
    return AlmostFiniteZSet(lambda n: S.ghost(n) + T.ghost(n), label="sum")


def burnside_mul(S: AlmostFiniteZSet, T: AlmostFiniteZSet) -> AlmostFiniteZSet:
    """Product of Z-sets: ghost components multiply.

    On orbits this is Z/m x Z/n = gcd(m,n) copies of Z/lcm(m,n); Witt
    coordinates of the product are recovered by inversion and certified
    integral (NotRealizable here would indicate a bug, not bad input).
    """
    return AlmostFiniteZSet(lambda n: S.ghost(n) * T.ghost(n), label="product")


def zeta_product_form(S: AlmostFiniteZSet, N: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - u^n)^{-s_n} to order N.

    Each factor sum_m binomial(s_n + m - 1, m) u^{nm} multiplies the list in
    place, highest degree first, reading only the multiples of n: O(N^2/n)
    per factor and O(N^2 log N) in all.  Factors with n > N cannot affect
    the truncation.
    """
    if N < 0:
        raise InvalidInput("truncation order must be >= 0")
    coeffs = [1] + [0] * N
    for n in range(1, N + 1):
        s_n = S.witt(n)
        if s_n == 0:
            continue
        binom = [s_n]   # binomial(s_n + m - 1, m) for m = 1 .. N // n
        for m in range(1, N // n):
            binom.append(binom[-1] * (s_n + m) // (m + 1))
        for k in range(N, n - 1, -1):
            coeffs[k] += sum(map(mul, binom, coeffs[k - n::-n]))
    return coeffs
