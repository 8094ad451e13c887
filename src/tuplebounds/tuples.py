"""Integer tuples, admissibility, and coprime sampling windows.

An m-tuple is admissible when, for every prime ``p <= m``, its elements
miss at least one residue class mod p.  Primes above the tuple length
never matter: m distinct values cannot cover p > m classes.

The sampling window pairs a cutoff ``k`` with a half-open interval
``(-x, x]`` where ``x`` is a positive multiple of the primorial of
``k``; the population is every integer in the window coprime to that
primorial, and its size then has the exact closed form
``2 * (x / R) * phi(R)``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection
from dataclasses import dataclass

from .arith import MAX_SIEVE_LIMIT, primes_up_to, primorial, primorial_totient
from .errors import DomainError, RegressionFailure


@dataclass(frozen=True)
class IntTuple:
    """Strictly increasing tuple of integers."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise DomainError("tuple must be nonempty")
        for a, b in zip(self.elements, self.elements[1:]):
            if a >= b:
                raise DomainError(f"elements must be strictly increasing, got {a} before {b}")

    @classmethod
    def from_iterable(cls, values) -> "IntTuple":
        ordered = sorted(int(v) for v in values)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise DomainError(f"duplicate element {a}")
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def residue_count(h: IntTuple, p: int) -> int:
    """Number of distinct residues of ``h`` modulo ``p``."""
    if p < 2:
        raise DomainError(f"modulus must be >= 2, got {p}")
    return len({e % p for e in h})


def residue_profile(h: IntTuple, bound: int) -> dict[int, int]:
    """``{p: residue_count(h, p)}`` for every prime ``p <= bound``."""
    return {p: residue_count(h, p) for p in primes_up_to(bound)}


def is_admissible(h: IntTuple | Collection[int]) -> bool:
    """True when ``h`` misses a residue class mod every prime ``p <= len(h)``.

    ``h`` is any collection of distinct ints: an :class:`IntTuple`, a
    list or a set alike; order does not matter.  Residues are counted
    inline, so a Monte Carlo loop can pass each drawn collection straight
    in, and the first prime whose classes are all hit returns False.
    """
    for p in primes_up_to(len(h)):
        if len({e % p for e in h}) >= p:
            return False
    return True


def coprime_window(x: int, k: int) -> tuple[int, int]:
    """``(R, size)`` for the integers in ``(-x, x]`` coprime to ``R``, the
    primorial of ``k``: each block of R consecutive integers holds phi(R)
    of them, and (-x, x] is exactly 2x/R such blocks."""
    if k < 1:
        raise DomainError(f"cutoff k must be >= 1, got {k}")
    R = primorial(k)
    if x <= 0 or x % R != 0:
        raise DomainError(f"x={x} must be a positive multiple of R={R}")
    return R, 2 * (x // R) * primorial_totient(k)


def first_k_admissible(k: int) -> IntTuple:
    """The k smallest positive integers coprime to the primorial of k:
    1 and the first k-1 primes above k, from a sieve doubled up to its cap.

    The check k < h[1] and h[-1] < h[1]^2 is exact given the sieve: below
    h[1]^2 the integers coprime to primorial(k) are 1 and the primes above
    k, so h holds the k smallest, and with class 0 free mod every prime
    up to k, h is admissible.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    n = 2 * k
    primes = primes_up_to(n)
    start = bisect_right(primes, k)
    while len(primes) - start < k - 1:
        # Doubles up to the cap, then asks past it so that the sieve refuses.
        n = min(2 * n, MAX_SIEVE_LIMIT) if n < MAX_SIEVE_LIMIT else n + 1
        primes = primes_up_to(n)
    h = IntTuple((1,) + primes[start : start + k - 1])
    if k > 1 and not (k < h[1] and h[-1] < h[1] ** 2):
        raise RegressionFailure(f"first_k_admissible({k}) gave an inadmissible tuple")
    return h
