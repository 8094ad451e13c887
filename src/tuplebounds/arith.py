"""Exact integer and rational arithmetic primitives.

Everything downstream leans on four things provided here:

* a cached prime sieve,
* primorials, their totients and the partial Euler products
  ``prod_{p <= n} (1 - 1/p)``,
* Euler's totient by trial-division factorisation,
* exact decimal rendering of rationals at a requested number of
  significant digits (round to nearest, ties away from zero).

No floats enter any of the exact paths.  ``Fraction`` keeps values in
lowest terms with a positive denominator, which callers rely on when
serialising numerator/denominator pairs.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from math import floor, isqrt

from .errors import DomainError, ResourceLimitError

# Euler-Mascheroni constant, float64.  Used only in reporting ratios that
# compare exact values against asymptotic predictions.
GAMMA = 0.5772156649015329

# Largest sieve bound honoured before refusing with ResourceLimitError.
MAX_SIEVE_LIMIT = 10_000_000

# Python's int->str digit limit, read per call (0: none; Pythons before
# 3.10.7 have neither the limit nor this getter).
max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

_cached_limit = 0
_cached_primes: tuple[int, ...] = ()


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), flags))


def _sieve_through(n: int) -> tuple[int, ...]:
    """The whole cached sieve, grown first to cover ``[2, n]``."""
    global _cached_limit, _cached_primes
    if n < 0:
        raise DomainError(f"sieve bound must be nonnegative, got {n}")
    if n > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve bound {n} exceeds cap {MAX_SIEVE_LIMIT}")
    if n > _cached_limit:
        target = min(max(n, 2 * _cached_limit, 1024), MAX_SIEVE_LIMIT)
        _cached_primes = _sieve(target)
        _cached_limit = target
    return _cached_primes


def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes in the interval ``[2, n]``, ascending.

    The underlying sieve is cached module-wide and grown geometrically,
    so repeated calls with increasing bounds stay cheap.
    """
    primes = _sieve_through(n)
    return primes[: bisect_right(primes, n)]


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
    return Fraction(primorial_totient(n), primorial(n))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of ``n >= 1`` as ``(prime, exponent)`` pairs."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    rest = n
    # rest <= n, so this break also ends the walk past isqrt(n).
    for p in _sieve_through(isqrt(n)):
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


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division against sieved primes.

    Raises ResourceLimitError when ``isqrt(n)`` exceeds the sieve cap
    ``MAX_SIEVE_LIMIT``, so a huge ``n`` is refused at once.
    """
    if n < 2:
        return False
    r = isqrt(n)
    for p in _sieve_through(r):
        if p > r:
            break
        if n % p == 0:
            return n == p
    return True


def check_str_digits(n: int) -> int:
    """``n`` itself, refused with ResourceLimitError where Python's int->str
    digit limit would make ``str(n)`` (or ``json.dumps``) raise ValueError.

    ``n`` has more than ``limit`` digits exactly when ``|n| >= 10**limit``;
    below ``3 * limit`` bits (``8**limit < 10**limit``) it cannot.
    """
    limit = max_str_digits()
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        raise ResourceLimitError(
            f"a {n.bit_length()}-bit integer exceeds the {limit}-digit int->str limit"
        )
    return n


def check_power_digits(base: int, exp: int) -> None:
    """Refuse ``base**exp`` (``base >= 1``) with ResourceLimitError, before
    computing it, where :func:`check_str_digits` would surely refuse it.

    ``base**exp >= 2**(exp * (base.bit_length() - 1))``, which is at least
    ``10**limit`` once that exponent passes ``4 * limit`` (4 > log2 10).
    A no-op when there is no limit.
    """
    limit = max_str_digits()
    bits = exp * (base.bit_length() - 1)
    if limit and bits > 4 * limit:
        raise ResourceLimitError(
            f"a power of over {bits} bits exceeds the {limit}-digit int->str limit"
        )


def int_to_str(n: int) -> str:
    """``str(n)`` after :func:`check_str_digits`."""
    return str(check_str_digits(n))


def to_decimal(x: Fraction, sig_digits: int) -> str:
    """Render ``x`` to exactly ``sig_digits`` significant digits.

    Rounding is to nearest with ties away from zero, done entirely in
    integer arithmetic.  Values whose leading digit falls at a decimal
    exponent in ``[-9, 20]`` are rendered positionally; anything outside
    that window uses ``d.ddde+E`` scientific form.  Integers past the
    int->str digit limit raise ResourceLimitError (see :func:`int_to_str`).
    """
    if sig_digits < 1:
        raise DomainError(f"sig_digits must be >= 1, got {sig_digits}")
    if 0 < (limit := max_str_digits()) < sig_digits:
        # The digit string would be refused anyway; refuse before computing it.
        raise ResourceLimitError(f"{sig_digits} digits exceed the {limit}-digit int->str limit")
    x = Fraction(x)
    if x == 0:
        return "0"
    neg = x < 0
    a, b = abs(x.numerator), x.denominator

    # Locate e with 10^e <= a/b < 10^(e+1).  With la and lb digits,
    # 10^(la-1) <= a < 10^la and 10^(lb-1) <= b < 10^lb, so a/b lies in
    # (10^(la-lb-1), 10^(la-lb+1)): e is la - lb, or one less if a/b < 10^(la-lb).
    e = len(int_to_str(a)) - len(int_to_str(b))
    if (a * 10**-e < b) if e < 0 else (a < b * 10**e):
        e -= 1

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


def exp_to_decimal(t: float) -> str:
    """Render ``exp(t)`` as ``m.mmmmme+E`` (6 significant digits) without
    overflow or underflow.

    Float precision only; intended for reporting magnitudes like
    ``exp(-c * m**2)`` that fall far outside float range.
    """
    e10 = t / 2.302585092994046
    k = floor(e10)
    mant = 10.0 ** (e10 - k)
    if round(mant, 5) >= 10.0:
        mant /= 10.0
        k += 1
    return f"{mant:.5f}e{'+' if k >= 0 else '-'}{abs(k)}"


def rational_to_json(x: Fraction, sig_digits: int = 12) -> dict:
    """JSON-friendly exact form: numerator, denominator, decimal preview.

    Raises ResourceLimitError past the int->str digit limit.
    """
    x = Fraction(x)
    return {
        "num": int_to_str(x.numerator),
        "den": int_to_str(x.denominator),
        "decimal": to_decimal(x, sig_digits),
    }
