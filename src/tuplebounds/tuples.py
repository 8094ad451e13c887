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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import primes_up_to, primorial, primorial_totient
from .errors import (
    DomainError,
    InsufficientPopulationError,
    RegressionFailure,
    WindowTooLargeError,
)

DEFAULT_MAX_ELEMENTS = 1_000_000


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

    @property
    def span(self) -> int:
        return self.elements[-1] - self.elements[0]

    def shifted(self, t: int) -> "IntTuple":
        return IntTuple(tuple(e + t for e in self.elements))

    def to_json(self) -> list[int]:
        return list(self.elements)


def residue_count(h: IntTuple, p: int) -> int:
    """Number of distinct residues of ``h`` modulo ``p``."""
    if p < 2:
        raise DomainError(f"modulus must be >= 2, got {p}")
    return len({e % p for e in h})


def residue_profile(h: IntTuple, bound: int) -> dict[int, int]:
    """``{p: residue_count(h, p)}`` for every prime ``p <= bound``."""
    return {p: residue_count(h, p) for p in primes_up_to(bound)}


def is_admissible(h: IntTuple) -> bool:
    """True when ``h`` misses a residue class mod every prime ``p <= len(h)``."""
    return all(residue_count(h, p) < p for p in primes_up_to(len(h)))


@dataclass(frozen=True)
class SampleSpace:
    """Integers in ``(-x, x]`` coprime to the primorial of ``k``."""

    x: int
    k: int
    R: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"cutoff k must be >= 1, got {self.k}")
        if self.R != primorial(self.k):
            raise DomainError(f"R={self.R} is not the primorial of {self.k}")
        if self.x <= 0 or self.x % self.R != 0:
            raise DomainError(f"x={self.x} must be a positive multiple of R={self.R}")

    @classmethod
    def for_cutoff(cls, k: int, multiple: int = 1) -> "SampleSpace":
        if multiple < 1:
            raise DomainError(f"multiple must be >= 1, got {multiple}")
        R = primorial(k)
        return cls(x=multiple * R, k=k, R=R)

    @property
    def totient_R(self) -> int:
        return primorial_totient(self.k)

    @property
    def size(self) -> int:
        # Each block of R consecutive integers holds phi(R) units, and
        # (-x, x] is exactly 2x/R such blocks.
        return 2 * (self.x // self.R) * self.totient_R

    @property
    def unit_density(self) -> Fraction:
        return Fraction(self.totient_R, self.R)


def enumerate_sample_space(
    space: SampleSpace, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[int]:
    """All members of the window in ascending order."""
    if space.size > max_elements:
        raise WindowTooLargeError(
            f"window holds {space.size} elements, budget is {max_elements}"
        )
    return [n for n in range(-space.x + 1, space.x + 1) if gcd(n, space.R) == 1]


def first_k_admissible(k: int, x: int | None = None) -> IntTuple:
    """The k smallest positive integers coprime to the primorial of k.

    Such a tuple is admissible by construction: no element is divisible
    by any prime up to k, so the zero class mod each of those primes is
    free.  With ``x`` set, the scan stops at ``x`` and raises if fewer
    than k qualifying integers exist below it.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    R = primorial(k)
    out: list[int] = []
    n = 1
    while len(out) < k:
        if x is not None and n > x:
            raise InsufficientPopulationError(
                f"only {len(out)} coprime integers in [1, {x}], needed {k}"
            )
        if gcd(n, R) == 1:
            out.append(n)
        n += 1
    h = IntTuple(tuple(out))
    if not is_admissible(h):
        raise RegressionFailure(f"first_k_admissible({k}) gave an inadmissible tuple")
    return h
