"""Exact integer and rational arithmetic primitives.

Everything downstream leans on four things provided here:

* a cached prime sieve,
* primorials, their totients and the partial Euler products
  ``prod_{p <= n} (1 - 1/p)``,
* Euler's totient, one value by trial-division factorisation or a whole
  range by a numpy sieve,
* exact decimal rendering of rationals at a requested number of
  significant digits (round to nearest, ties away from zero).

No floats enter any of the exact paths.  ``Fraction`` keeps values in
lowest terms with a positive denominator, which callers rely on when
serialising numerator/denominator pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import floor, isqrt

import numpy as np

from .errors import DomainError, ResourceLimitError

# Euler-Mascheroni constant, float64.  Used only in reporting ratios that
# compare exact values against asymptotic predictions.
GAMMA = 0.5772156649015329

# Largest sieve bound honoured before refusing with ResourceLimitError.
MAX_SIEVE_LIMIT = 10_000_000

_cached_limit = 0
_cached_primes: tuple[int, ...] = ()


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i in range(limit + 1) if flags[i]]


def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes in the interval ``[2, n]``, ascending.

    The underlying sieve is cached module-wide and grown geometrically,
    so repeated calls with increasing bounds stay cheap.
    """
    global _cached_limit, _cached_primes
    if n < 0:
        raise DomainError(f"sieve bound must be nonnegative, got {n}")
    if n > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve bound {n} exceeds cap {MAX_SIEVE_LIMIT}")
    if n > _cached_limit:
        target = min(max(n, 2 * _cached_limit, 1024), MAX_SIEVE_LIMIT)
        _cached_primes = tuple(_sieve(target))
        _cached_limit = target
    return _cached_primes[: bisect_right(_cached_primes, n)]


def primorial(n: int) -> int:
    """Product of all primes ``<= n`` (empty product is 1)."""
    out = 1
    for p in primes_up_to(n):
        out *= p
    return out


def primorial_totient(n: int) -> int:
    """``phi(primorial(n)) = prod_{p <= n} (p - 1)`` (empty product is 1)."""
    out = 1
    for p in primes_up_to(n):
        out *= p - 1
    return out


def mertens_product(n: int) -> Fraction:
    """Exact ``prod_{p <= n} (1 - 1/p)``; equals 1 for ``n < 2``."""
    out = Fraction(1)
    for p in primes_up_to(n):
        out *= Fraction(p - 1, p)
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of ``n >= 1`` as ``(prime, exponent)`` pairs."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    rest = n
    for p in primes_up_to(isqrt(n)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    if rest > 1:
        out.append((rest, 1))
    return out


def totient(n: int) -> int:
    """Euler's totient of ``n >= 1``."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def totients_up_to(n: int) -> np.ndarray:
    """``phi(i)`` for every ``i`` in ``[0, n]`` as an ``int32`` array (``phi(0) = 0``).

    Sieves over the primes of :func:`primes_up_to`, so ``n`` is capped by
    ``MAX_SIEVE_LIMIT``; ``phi(i) <= i`` keeps every value in ``int32``.
    Each prime ``p`` takes ``phi(i) // p`` off every multiple ``i``; the
    quotient is exact whichever order the primes of ``i`` come in.
    """
    primes = primes_up_to(n)
    phi = np.arange(n + 1, dtype=np.int32)
    for p in primes:
        multiples = phi[p::p]
        multiples -= multiples // p
    return phi


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division against sieved primes.

    Raises ResourceLimitError when ``isqrt(n)`` exceeds the sieve cap
    ``MAX_SIEVE_LIMIT``, so a huge ``n`` is refused at once.
    """
    if n < 2:
        return False
    for p in primes_up_to(isqrt(n)):
        if n % p == 0:
            return n == p
    return True


def to_decimal(x: Fraction, sig_digits: int) -> str:
    """Render ``x`` to exactly ``sig_digits`` significant digits.

    Rounding is to nearest with ties away from zero, done entirely in
    integer arithmetic.  Values whose leading digit falls at a decimal
    exponent in ``[-9, 20]`` are rendered positionally; anything outside
    that window uses ``d.ddde+E`` scientific form.
    """
    if sig_digits < 1:
        raise DomainError(f"sig_digits must be >= 1, got {sig_digits}")
    x = Fraction(x)
    if x == 0:
        return "0"
    neg = x < 0
    a, b = abs(x.numerator), x.denominator

    # Locate e with 10^e <= a/b < 10^(e+1); the length guess is off by
    # at most one either way.
    e = len(str(a)) - len(str(b))
    while _cmp_pow10(a, b, e) < 0:
        e -= 1
    while _cmp_pow10(a, b, e + 1) >= 0:
        e += 1

    shift = sig_digits - 1 - e
    if shift >= 0:
        num, den = a * 10**shift, b
    else:
        num, den = a, b * 10**-shift
    q, r = divmod(num, den)
    if 2 * r >= den:
        q += 1
    if q == 10**sig_digits:
        q //= 10
        e += 1
    digits = str(q)

    if -9 <= e <= 20:
        if e >= sig_digits - 1:
            body = digits + "0" * (e - sig_digits + 1)
        elif e >= 0:
            body = digits[: e + 1] + "." + digits[e + 1 :]
        else:
            body = "0." + "0" * (-e - 1) + digits
    else:
        mant = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
        body = f"{mant}e{'+' if e >= 0 else '-'}{abs(e)}"
    return "-" + body if neg else body


def _cmp_pow10(a: int, b: int, e: int) -> int:
    """Sign of ``a/b - 10^e`` for positive ``a``, ``b``."""
    if e >= 0:
        rhs = b * 10**e
        lhs = a
    else:
        lhs = a * 10**-e
        rhs = b
    return (lhs > rhs) - (lhs < rhs)


def exp_to_decimal(t: float, sig_digits: int = 6) -> str:
    """Render ``exp(t)`` as ``m.mmme+E`` without overflow or underflow.

    Float precision only; intended for reporting magnitudes like
    ``exp(-c * m**2)`` that fall far outside float range.
    """
    if sig_digits < 1:
        raise DomainError(f"sig_digits must be >= 1, got {sig_digits}")
    e10 = t / 2.302585092994046
    k = floor(e10)
    mant = 10.0 ** (e10 - k)
    if round(mant, sig_digits - 1) >= 10.0:
        mant /= 10.0
        k += 1
    return f"{mant:.{sig_digits - 1}f}e{'+' if k >= 0 else '-'}{abs(k)}"


def rational_to_json(x: Fraction, sig_digits: int = 12) -> dict:
    """JSON-friendly exact form: numerator, denominator, decimal preview."""
    x = Fraction(x)
    return {
        "num": str(x.numerator),
        "den": str(x.denominator),
        "decimal": to_decimal(x, sig_digits),
    }
