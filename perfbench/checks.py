"""Independent arithmetic and output checks used by the benchmark.

Nothing here imports ``tuplebounds``: every reference value is computed
from scratch (own sieve, own totient, Stirling numbers instead of the
alternating sum), so a check cannot pass merely because it shares a
bug with the code under test.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, erfc, exp, factorial, fsum, gcd, isqrt, lgamma, log, log1p, sqrt

# Monte Carlo counts must lie within z = 5 of their exact reference, in the
# sense of exact binomial tails: a correct program fails one request in
# about 1.7 million, so a failure means a real defect.
MC_Z = 5.0


class CheckFailure(Exception):
    """An output broke one of the benchmark's invariants."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _reject_constant(name: str):
    raise CheckFailure(f"non-strict JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse one strict-JSON object (no NaN or Infinity, nothing after it)."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not one JSON object: {exc}") from None
    require(isinstance(obj, dict), "output is not a JSON object")
    return obj


def frac(obj: dict) -> Fraction:
    """Exact value of a ``{"num": ..., "den": ...}`` rendering."""
    return Fraction(int(obj["num"]), int(obj["den"]))


def result_named(env: dict, name: str) -> dict:
    for r in env["results"]:
        if r.get("name") == name:
            return r
    raise CheckFailure(f"no result named {name!r}")


def primes(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def phi(n: int) -> int:
    """Euler's totient by trial division."""
    out, rest, d = n, n, 2
    while d * d <= rest:
        if rest % d == 0:
            out -= out // d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        out -= out // rest
    return out


def primorial(n: int) -> int:
    out = 1
    for p in primes(n):
        out *= p
    return out


def mertens(n: int) -> Fraction:
    out = Fraction(1)
    for p in primes(n):
        out *= Fraction(p - 1, p)
    return out


def admissible(values: list[int]) -> bool:
    return all(len({v % p for v in values}) < p for p in primes(len(values)))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the standard recurrence."""
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def rho_mod_p(m: int, p: int) -> Fraction:
    """Share of (Z/p)^m that misses a class: 1 - p! S(m, p) / p^m."""
    return Fraction(p**m - factorial(p) * stirling2(m, p), p**m)


def rho_adm(m: int) -> Fraction:
    out = Fraction(1)
    for p in primes(m):
        out *= rho_mod_p(m, p)
    return out


def birthday(m: int, p: int) -> Fraction:
    out = Fraction(1)
    for i in range(1, m):
        out *= Fraction(max(p - 1 - i, 0), p - 1)
    return out


def survival_probability(m: int, k: int, x: int, q: int) -> Fraction:
    """P(k iid uniform draws from the coprime window are distinct and no
    class mod q receives m of them).

    The window is every integer in (-x, x] coprime to primorial(k).  With
    n_j members in class j, the number of ordered distinct draws giving
    class counts c_j is k! * prod_j C(n_j, c_j), so the count of good
    draws is k! times the t^k coefficient of prod_j sum_{c<m} C(n_j, c) t^c.
    """
    R = primorial(k)
    sizes = [0] * q
    for n in range(-x + 1, x + 1):
        if gcd(n, R) == 1:
            sizes[n % q] += 1
    poly = [1]
    for n_j in sizes:
        factor = [comb(n_j, c) for c in range(min(m - 1, n_j) + 1)]
        out = [0] * min(len(poly) + len(factor) - 1, k + 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                if i + j <= k:
                    out[i + j] += a * b
        poly = out
    good = factorial(k) * poly[k] if len(poly) > k else 0
    return Fraction(good, sum(sizes) ** k)


def within_z(hits: int, n: int, p: float, label: str, z: float = MC_Z) -> None:
    """A binomial count of ``hits`` in ``n`` trials is consistent with ``p``.

    Uses the exact binomial tails rather than the normal approximation,
    which is far too narrow when n * p is a handful: the count fails when
    either tail is less likely than a normal deviate beyond ``z``.
    """
    if p <= 0.0 or p >= 1.0:
        require(hits == round(n * p), f"{label}: {hits}/{n} with p={p}")
        return
    alpha = 0.5 * erfc(z / sqrt(2.0))
    log_pmf = [
        lgamma(n + 1) - lgamma(i + 1) - lgamma(n - i + 1) + i * log(p) + (n - i) * log1p(-p)
        for i in range(n + 1)
    ]
    lower = fsum(exp(v) for v in log_pmf[: hits + 1])
    upper = fsum(exp(v) for v in log_pmf[hits:])
    require(
        min(lower, upper) >= alpha,
        f"{label}: {hits}/{n} is beyond z={z} of p={p:.6g} (tails {lower:.3g}, {upper:.3g})",
    )
