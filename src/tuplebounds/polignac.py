"""Difference-density bounds for maximal admissible sets.

The quantity eta(ell) measures the least density of gap values realized
by maximal families; it is bracketed by two explicit rationals:

    (1/ell) * prod_{p <= ell+1} (1 - 1/p)   from below,
    (1/(ell-y)) * prod_{p <= y} (1 - 1/p)   from above, for any y < ell.

Only these bounds are computable; eta itself is an infimum over infinite
families and is never claimed here.  The module also materializes the
covering construction behind the upper bound - a finite set B together
with a congruence set A of known density - and verifies it exhaustively
over one full period, plus the interval constant derived from a maximal
set's diameter.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from . import arith
from .errors import DomainError, RegressionFailure, ResourceLimitError

H_SEARCH_CAP = 10**6
PERIOD_BUDGET = 10**7


def eta_lower(ell: int) -> Fraction:
    """Exact (1/ell) * prod_{p <= ell+1} (1 - 1/p)."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    return arith.mertens_product(ell + 1) / ell


def eta_upper(ell: int, y: int) -> Fraction:
    """Exact (1/(ell-y)) * prod_{p <= y} (1 - 1/p)."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    if not 1 <= y <= ell - 1:
        raise DomainError(f"need 1 <= y <= ell-1, got y={y}, ell={ell}")
    return arith.mertens_product(y) / (ell - y)


def eta_bounds(ell: int) -> SimpleNamespace:
    """Lower bound plus the upper bound at every valid y, best marked:
    fields ``lower``, ``upper_by_y`` and ``best_upper``, a (y, value) pair.

    Keeps a running Mertens product over y, on to ell+1 for the lower
    bound, so the scan costs one Fraction division per y.  A best upper
    bound below the lower bound raises RegressionFailure.
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    prime_set = set(arith.primes_up_to(ell + 1))
    prod = Fraction(1)
    upper_by_y: dict[int, Fraction] = {}
    for y in range(1, ell + 2):
        if y in prime_set:
            prod *= Fraction(y - 1, y)
        if y < ell:
            upper_by_y[y] = prod / (ell - y)
    lower = prod / ell
    best = min(upper_by_y.items(), key=lambda item: item[1]) if upper_by_y else None
    if best is not None and lower > best[1]:
        raise RegressionFailure(
            f"eta_lower({ell}) exceeds the upper bound at y = {best[0]}"
        )
    return SimpleNamespace(lower=lower, upper_by_y=upper_by_y, best_upper=best)


def delta2_lower(k: int) -> Fraction:
    """min over ell in [1, k-1] of eta_lower(ell).

    eta_lower(ell) = M(ell+1)/ell with M(x) = prod_{p <= x} (1 - 1/p)
    strictly decreases in ell (M does not increase and 1/ell strictly
    decreases), so the minimum is eta_lower(k-1), attained at k-1 only.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return eta_lower(k - 1)


def build_construction(ell: int, y: int) -> SimpleNamespace:
    """Materialize the covering construction for (ell, y): fields ``ell``,
    ``y``, ``v``, ``r``, ``M``, ``h``, ``q``, ``B1``, ``B2``, ``elements``
    (B sorted) and ``A_density``, of congruence set A and finite set B.

    A = { a : a mod q in [0, h) and gcd(a+1, r) = 1 } has density
    h*phi(r)/(q*r); B = B1 union B2 holds ell distinct values, where B1
    realizes i*h mod q for i = 0..v with all elements 1 mod M, and B2
    fills the residue classes 2..p-1 mod each prime p <= y.

    Takes the smallest h making q = h*v + 1 a prime above ell; minimal h
    keeps the verification period q*r small.
    """
    if ell < 2 or not 1 <= y <= ell - 1:
        raise DomainError(f"need ell >= 2 and 1 <= y <= ell-1, got ell={ell}, y={y}")
    v = ell - y
    r = arith.primorial(y)
    M = arith.primorial(ell)
    # Refused before the build if v*M could not print: B1's v + 1 elements
    # are distinct, 1 mod M and in [0, q*M), so the largest exceeds v*M.
    arith.check_str_digits(v * M)

    q = 0
    h = 0
    for cand in range(1, H_SEARCH_CAP + 1):
        maybe_q = cand * v + 1
        if maybe_q > ell and arith.is_prime(maybe_q):
            h, q = cand, maybe_q
            break
    else:
        raise ResourceLimitError(f"no h <= {H_SEARCH_CAP} with h*{v}+1 prime and > {ell}")

    # B1: i*h mod q, 1 mod M, for i = 0..v; reps taken in [0, q*M).
    inv_M = pow(M, -1, q)
    B1 = tuple(1 + M * ((i * h - 1) * inv_M % q) for i in range(v + 1))

    # B2: one slot per s in 0..y-2, in class s+2 mod each prime p in
    # [s+3, y] and in class 1 mod every other prime <= ell.  The
    # idempotents e_p (1 mod p, 0 mod M/p) sum to 1 mod M, so that is
    # 1 + (s+1) E_s mod M, E_s the sum of e_p over p in [s+3, y].
    # Duplicates are bumped by M, which preserves all residues.
    idem = {p: M // p * pow(M // p, -1, p) for p in arith.primes_up_to(y)}
    E = sum(idem.values())
    used = set(B1)
    b2: list[int] = []
    for s in range(y - 1):
        E -= idem.get(s + 2, 0)
        rep = (1 + (s + 1) * E) % M
        while rep in used:
            rep += M
        used.add(rep)
        b2.append(rep)
    B2 = tuple(b2)

    bundle = SimpleNamespace(ell=ell, y=y, v=v, r=r, M=M, h=h, q=q, B1=B1, B2=B2,
                             elements=tuple(sorted(B1 + B2)),
                             A_density=Fraction(h * arith.primorial_totient(y), q * r))
    if len(set(bundle.elements)) != ell:
        raise RegressionFailure(f"construction at ell={ell}, y={y} repeats an element")
    # Exact: ell elements need only miss a class mod each prime <= ell,
    # and one coprime to M = primorial(ell) is in class 0 mod none.
    if any(gcd(e, M) != 1 for e in bundle.elements):
        raise RegressionFailure(f"construction at ell={ell}, y={y} is not admissible")
    return bundle


def verify_construction(bundle: SimpleNamespace) -> SimpleNamespace:
    """Exhaustive check of the covering property over one period.

    For every t in [0, q*r) coprime to r, some b in B1 must satisfy
    t - b in A.  Also recounts |A| over the period against h*phi(r).
    Fields: ``ok``, ``period``, ``checked``, ``counterexample`` (the first
    uncovered t), ``density_count`` and ``density_expected``.
    """
    q, r, h = bundle.q, bundle.r, bundle.h
    period = q * r
    if period > PERIOD_BUDGET:
        raise ResourceLimitError(f"period {period} exceeds budget {PERIOD_BUDGET}")

    def in_a(a: int) -> bool:
        return a % q < h and gcd(a % r + 1, r) == 1

    b1_mod = [b % period for b in bundle.B1]
    checked = 0
    counterexample: int | None = None
    for t in range(period):
        if gcd(t, r) != 1:
            continue
        checked += 1
        if not any(in_a((t - b) % period) for b in b1_mod):
            counterexample = t
            break

    density_count = sum(1 for a in range(period) if in_a(a))
    expected = h * arith.primorial_totient(bundle.y)
    return SimpleNamespace(ok=counterexample is None and density_count == expected,
                           period=period, checked=checked, counterexample=counterexample,
                           density_count=density_count, density_expected=expected)


def pintz_interval_constant(bundle: SimpleNamespace, k2: int) -> int:
    """primorial(k2) plus the diameter of B.

    Every interval of this length contains a difference realized by the
    underlying maximal-set argument; the value is astronomically large
    and exact.  Each prime p is at least 2^(p.bit_length() - 1), so the
    sum of those exponents over p <= k2 bounds log2 primorial(k2) below:
    refusing by it before the product is never premature.
    """
    if k2 < 1:
        raise DomainError(f"k2 must be >= 1, got {k2}")
    arith.check_power_digits(2, sum(p.bit_length() - 1 for p in arith.primes_up_to(k2)))
    elems = bundle.elements
    return arith.primorial(k2) + elems[-1] - elems[0]
