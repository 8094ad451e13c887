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

from collections.abc import Collection
from dataclasses import dataclass, field
from math import gcd

from .arith import primes_up_to, primorial, primorial_totient
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


@dataclass(frozen=True)
class SampleSpace:
    """Integers in ``(-x, x]`` coprime to ``R``, the primorial of ``k``."""

    x: int
    k: int
    R: int = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"cutoff k must be >= 1, got {self.k}")
        object.__setattr__(self, "R", primorial(self.k))
        if self.x <= 0 or self.x % self.R != 0:
            raise DomainError(f"x={self.x} must be a positive multiple of R={self.R}")

    @property
    def totient_R(self) -> int:
        return primorial_totient(self.k)

    @property
    def size(self) -> int:
        # Each block of R consecutive integers holds phi(R) units, and
        # (-x, x] is exactly 2x/R such blocks.
        return 2 * (self.x // self.R) * self.totient_R


def first_k_admissible(k: int) -> IntTuple:
    """The k smallest positive integers coprime to the primorial of k.

    Such a tuple is admissible by construction: no element is divisible
    by any prime up to k, so the zero class mod each of those primes is
    free.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    R = primorial(k)
    out: list[int] = []
    n = 1
    while len(out) < k:
        if gcd(n, R) == 1:
            out.append(n)
        n += 1
    h = IntTuple(tuple(out))
    if not is_admissible(h):
        raise RegressionFailure(f"first_k_admissible({k}) gave an inadmissible tuple")
    return h
