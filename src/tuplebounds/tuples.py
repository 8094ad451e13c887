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

from .arith import MAX_SIEVE_LIMIT, primes_up_to, primorial, primorial_totient
from .errors import DomainError, RegressionFailure, ResourceLimitError

# Elements times primes in one residue_profile: the largest `admissible` run
# it admits takes about 1 s (2-vCPU Xeon, Python 3.11).  translation_class_count
# stays under it, as 2x * len(h) <= 2e7 there and 2x >= 4 pi(k).
RESIDUE_PROFILE_BUDGET = 5_000_000


class IntTuple(tuple):
    """A sorted tuple of distinct integers; build it with :meth:`from_iterable`."""

    @classmethod
    def from_iterable(cls, values) -> "IntTuple":
        """The one parser: ints or digit strings, sorted; empty or repeated
        input is refused."""
        ordered = sorted(int(v) for v in values)
        if not ordered:
            raise DomainError("empty tuple")
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise DomainError(f"duplicate element {a}")
        return cls(ordered)


def residue_profile(h: Collection[int], bound: int) -> dict[int, int]:
    """``{p: n_p}`` for every prime ``p <= bound``, n_p the number of
    distinct residues of ``h`` mod p.

    Refuses with ResourceLimitError when len(h) times the number of
    those primes passes RESIDUE_PROFILE_BUDGET.
    """
    primes = primes_up_to(bound)
    if len(h) * len(primes) > RESIDUE_PROFILE_BUDGET:
        raise ResourceLimitError(
            f"profile of {len(h)} elements times {len(primes)} primes"
            f" exceeds budget {RESIDUE_PROFILE_BUDGET}"
        )
    return {p: len({e % p for e in h}) for p in primes}


def is_admissible(h: Collection[int]) -> bool:
    """True when ``h`` misses a residue class mod every prime ``p <= len(h)``.

    ``h`` is any collection of distinct ints: an :class:`IntTuple`, a
    list or a set alike; order does not matter.  Residues are counted
    inline rather than through :func:`residue_profile`, so a Monte Carlo
    loop can pass each drawn collection straight in, and the first prime
    whose classes are all hit returns False.
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
