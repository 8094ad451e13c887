"""Oracles shared by the test modules."""

from fractions import Fraction
from math import gcd

from tuplebounds.arith import primes_up_to, primorial
from tuplebounds.errors import ResourceLimitError
from tuplebounds.tuples import coprime_window

MAX_ELEMENTS = 1_000_000


def enumerate_sample_space(x: int, k: int, budget: int = MAX_ELEMENTS) -> list[int]:
    """The window oracle: every integer in ``(-x, x]`` coprime to the
    primorial of ``k``, in ascending order."""
    R, size = coprime_window(x, k)
    if size > budget:
        raise ResourceLimitError(f"window holds {size} elements, budget is {budget}")
    return [n for n in range(-x + 1, x + 1) if gcd(n, R) == 1]


def mertens_by_fraction_loop(n: int) -> list[Fraction]:
    """``prod_{p <= i} (1 - 1/p)`` for every i in [0, n], one Fraction step per prime."""
    primes = set(primes_up_to(n))
    out, product = [], Fraction(1)
    for i in range(n + 1):
        if i in primes:
            product *= Fraction(i - 1, i)
        out.append(product)
    return out


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    # x = r1 (mod m1), x = r2 (mod m2) for coprime moduli.
    t = ((r2 - r1) * pow(m1, -1, m2)) % m2
    return r1 + m1 * t


def construction_by_pairwise_crt(ell: int, y: int, h: int, q: int) -> tuple[tuple, tuple]:
    """(B1, B2) of the covering construction, one CRT step per modulus.

    B1 element i is i*h mod q and 1 mod M = primorial(ell).  B2 slot s
    is folded prime by prime over p <= ell: class s+2 mod p for primes
    p <= y with s <= p-3, class 1 otherwise; a representative already
    taken is bumped by M.
    """
    M = primorial(ell)
    B1 = tuple(_crt_pair(1, M, (i * h) % q, q) for i in range(ell - y + 1))
    used = set(B1)
    B2 = []
    for s in range(y - 1):
        rep, mod = 0, 1
        for p in primes_up_to(ell):
            cls = (s + 2 if s <= p - 3 else 1) if p <= y else 1
            rep = _crt_pair(rep, mod, cls % p, p)
            mod *= p
        while rep in used:
            rep += M
        used.add(rep)
        B2.append(rep)
    return B1, tuple(B2)


def first_k_by_gcd_scan(k: int) -> tuple[int, ...]:
    """The k smallest positive integers coprime to primorial(k), by scanning."""
    R = primorial(k)
    out: list[int] = []
    n = 1
    while len(out) < k:
        if gcd(n, R) == 1:
            out.append(n)
        n += 1
    return tuple(out)
