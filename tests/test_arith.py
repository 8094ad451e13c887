"""Prime utilities and exact decimal rendering."""

import random
import sys
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from math import exp, gcd, isqrt, log

import numpy as np
import pytest
from oracles import mertens_by_fraction_loop

from tuplebounds import arith
from tuplebounds.errors import DomainError, ResourceLimitError


def _trial_division_primes(n):
    out = []
    for c in range(2, n + 1):
        if all(c % p for p in out):
            out.append(c)
    return out


def test_primes_up_to_matches_trial_division():
    assert tuple(arith.primes_up_to(10_000)) == tuple(_trial_division_primes(10_000))


def test_primes_up_to_small_edges():
    assert tuple(arith.primes_up_to(0)) == ()
    assert tuple(arith.primes_up_to(1)) == ()
    assert tuple(arith.primes_up_to(2)) == (2,)
    assert tuple(arith.primes_up_to(3)) == (2, 3)


def test_prime_cache_grows_consistently():
    small = tuple(arith.primes_up_to(10))
    large = tuple(arith.primes_up_to(1_000))
    assert large[: len(small)] == small


def test_is_prime_agrees_with_sieve():
    primes = set(arith.primes_up_to(2_000))
    for n in range(-3, 2_001):
        assert arith.is_prime(n) == (n in primes)


def test_primorial_values():
    assert arith.primorial(1) == 1
    assert arith.primorial(2) == 2
    assert arith.primorial(5) == 30
    assert arith.primorial(10) == 210
    assert arith.primorial(50) == 614889782588491410


def test_mertens_product_values():
    assert arith.mertens_product(1) == 1
    assert arith.mertens_product(2) == Fraction(1, 2)
    assert arith.mertens_product(5) == Fraction(4, 15)
    # phi(primorial)/primorial telescopes to the same product
    for n in range(1, 31):
        r = arith.primorial(n)
        assert arith.mertens_product(n) == Fraction(arith.totient(r), r)


def test_mertens_product_matches_fraction_loop():
    expected = mertens_by_fraction_loop(10_007)
    for n in [*range(3001), 9973, 10_007]:
        assert arith.mertens_product(n) == expected[n], n


def test_factorize():
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert arith.factorize(1) == []
    assert arith.factorize(97) == [(97, 1)]
    with pytest.raises(DomainError):
        arith.factorize(0)


# P = 9999991 is the largest prime below the sieve cap 10**7, so P**2 is the
# largest prime square the trial division can decide; its only prime factor
# is isqrt(P**2) itself.
_P = 9999991
_BOUNDARY_FACTORIZATIONS = {
    _P**2 - 1: [(2, 4), (3, 3), (5, 1), (7, 1), (11, 1), (13, 1), (37, 1), (1249999, 1)],
    _P**2: [(_P, 2)],
    _P**2 + 1: [(2, 1), (17, 1), (41, 1), (16253, 1), (4413701, 1)],
    10**13 + 2: [(2, 1), (3, 1), (2221, 1), (2287, 1), (328121, 1)],
}


@pytest.mark.parametrize("n", list(_BOUNDARY_FACTORIZATIONS))
def test_trial_division_at_the_sieve_boundary(n):
    # Both walks stop at isqrt(n) in the cached sieve; stopping one prime
    # early misses the factor of P**2.
    assert arith.is_prime(_P)
    assert not arith.is_prime(n)
    assert arith.factorize(n) == _BOUNDARY_FACTORIZATIONS[n]


def test_totient_against_gcd_count():
    for q in range(1, 201):
        direct = sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)
        assert arith.totient(q) == direct


def test_totient_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, 1_000)
        b = rng.randrange(1, 1_000)
        if gcd(a, b) == 1:
            assert arith.totient(a * b) == arith.totient(a) * arith.totient(b)


def totients_up_to(n: int) -> np.ndarray:
    """``phi(i)`` for every ``i`` in ``[0, n]`` as an ``int32`` array (``phi(0) = 0``).

    The numpy sieve behind the former q-search, kept as an oracle for
    ``plausible.max_q_for`` (see ``test_plausible``).  Sieves over the
    primes of ``arith.primes_up_to``, so ``n`` is capped by
    ``MAX_SIEVE_LIMIT``; ``phi(i) <= i`` keeps every value in ``int32``.
    Each prime ``p`` takes ``phi(i) // p`` off every multiple ``i``; the
    quotient is exact whichever order the primes of ``i`` come in.

    Primes up to ``isqrt(n)`` update their multiples one slice each.  The
    larger primes go in batches by cofactor: for each ``j``, every such
    ``p <= n // j`` updates index ``j * p`` at once.  No index has two
    prime factors above ``isqrt(n)``, so no update repeats an index.
    """
    primes = arith.primes_up_to(n)
    phi = np.arange(n + 1, dtype=np.int32)
    split = bisect_right(primes, isqrt(n))
    for p in primes[:split]:
        multiples = phi[p::p]
        multiples -= multiples // p
    large = np.array(primes[split:], dtype=np.int64)
    j_max = n // primes[split] if len(large) else 0
    for j in range(1, j_max + 1):
        ps = large[: np.searchsorted(large, n // j, side="right")]
        idx = j * ps
        phi[idx] -= phi[idx] // ps
    return phi


def test_totients_up_to_matches_trial_division():
    phi = totients_up_to(5_000)
    assert phi.dtype == np.int32
    assert phi.tolist() == [0] + [arith.totient(n) for n in range(1, 5_001)]
    assert totients_up_to(0).tolist() == [0]
    assert totients_up_to(1).tolist() == [0, 1]
    assert totients_up_to(2).tolist() == [0, 1, 1]


def _totients_per_prime(n):
    # The sieve before the larger primes were batched: one slice per prime.
    phi = np.arange(n + 1, dtype=np.int32)
    for p in arith.primes_up_to(n):
        multiples = phi[p::p]
        multiples -= multiples // p
    return phi


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 1_000, 97**2, 10**5])
def test_totients_up_to_matches_per_prime_sieve(n):
    phi = totients_up_to(n)
    assert phi.dtype == np.int32
    assert np.array_equal(phi, _totients_per_prime(n))


def test_totients_up_to_domain_and_cap():
    with pytest.raises(DomainError):
        totients_up_to(-1)
    with pytest.raises(ResourceLimitError):
        totients_up_to(arith.MAX_SIEVE_LIMIT + 1)


# Frozen renderings, checked against integer long division by hand.
TO_DECIMAL_CASES = [
    (Fraction(0), 5, "0"),
    (Fraction(1, 2), 3, "0.500"),
    (Fraction(1, 3), 4, "0.3333"),
    (Fraction(2, 3), 4, "0.6667"),
    (Fraction(16, 3003), 10, "0.005328005328"),
    (Fraction(16, 3003), 7, "0.005328005"),
    (Fraction(229323571200, 81013146586099), 10, "0.002830695768"),
    (Fraction(229323571200, 81013146586099), 12, "0.00283069576808"),
    (Fraction(1, 210), 12, "0.00476190476190"),
    (Fraction(1, 8), 2, "0.13"),       # tie rounds away from zero
    (Fraction(-1, 8), 2, "-0.13"),
    (Fraction(1, 4), 1, "0.3"),
    (Fraction(3, 20), 1, "0.2"),
    (Fraction(-3, 20), 1, "-0.2"),
    (Fraction(999, 1000), 2, "1.0"),   # carry into a new leading digit
    (Fraction(120000), 2, "120000"),
    (Fraction(10) ** 21, 3, "1.00e+21"),
    (Fraction(1, 10**15), 3, "1.00e-15"),
]


@pytest.mark.parametrize("x, sig, expected", TO_DECIMAL_CASES)
def test_to_decimal_frozen(x, sig, expected):
    assert arith.to_decimal(x, sig) == expected


def test_to_decimal_rejects_bad_sig_digits():
    with pytest.raises(DomainError):
        arith.to_decimal(Fraction(1, 2), 0)


def test_to_decimal_round_trip_error_bound():
    """Parsed rendering sits within half an ulp of the exact value."""
    rng = random.Random(123)
    for _ in range(500):
        num = rng.randrange(-(10**9), 10**9)
        den = rng.randrange(1, 10**9)
        sig = rng.randrange(1, 21)
        x = Fraction(num, den)
        s = arith.to_decimal(x, sig)
        parsed = Decimal(s)
        if x == 0:
            assert parsed == 0
            continue
        err = abs(Fraction(parsed) - x)
        ulp = Fraction(10) ** (parsed.adjusted() - sig + 1)
        assert 2 * err <= ulp


def _exponent(a, b):
    # floor(log10(a/b)) for positive a, b, from integer quotients alone.
    if a >= b:
        return len(str(a // b)) - 1
    return -len(str((b - 1) // a))  # smallest k with a * 10**k >= b


def test_to_decimal_exponent_at_powers_of_ten():
    """Exactly sig significant digits, leading digit nonzero, within half an ulp,
    at 10^e and on either side of it, for operands of 1 to 400 digits."""
    rng = random.Random(13)
    guess_right = guess_high = 0
    for _ in range(600):
        d = rng.randrange(0, 200)
        lb = rng.randrange(0, 200)
        b = rng.choice([10**lb, rng.randrange(1, 10 ** (lb + 1))])
        near = [Fraction(b * 10**d + t, b) for t in (-1, 0, 1) if b * 10**d + t > 0]
        for x in near + [1 / v for v in near]:
            a, den = x.numerator, x.denominator
            e = _exponent(a, den)
            assert len(str(a)) <= 400 and len(str(den)) <= 400
            if len(str(a)) - len(str(den)) == e:
                guess_right += 1
            else:
                assert len(str(a)) - len(str(den)) == e + 1
                guess_high += 1
            sig = rng.randrange(1, 30)
            rendered = Decimal(arith.to_decimal(x, sig))
            digits = rendered.as_tuple().digits
            assert digits[0] != 0
            if len(digits) > sig:  # a positional integer, padded with zeros
                assert rendered.as_tuple().exponent == 0 and not any(digits[sig:])
            else:
                assert len(digits) == sig, (x, sig, rendered)
            assert 2 * abs(Fraction(rendered) - x) <= Fraction(10) ** (e - sig + 1), (x, sig)
    assert guess_right and guess_high


def test_to_decimal_sign_symmetry():
    rng = random.Random(5)
    for _ in range(200):
        x = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        sig = rng.randrange(1, 15)
        assert arith.to_decimal(-x, sig) == "-" + arith.to_decimal(x, sig)


def test_exp_to_decimal_matches_float_exp_in_range():
    for t in [-20.0, -1.5, 0.0, 0.25, 3.0, 40.0]:
        rendered = arith.exp_to_decimal(t)
        assert abs(float(rendered) / exp(t) - 1.0) < 1e-5


def test_exp_to_decimal_far_outside_float_range():
    assert arith.exp_to_decimal(0.0) == "1.00000e+0"
    assert arith.exp_to_decimal(log(10.0) * 21) == "1.00000e+21"
    tiny = arith.exp_to_decimal(-3.82 * 200 * 200)
    mant, exp_part = tiny.split("e")
    assert 1.0 <= float(mant) < 10.0
    assert int(exp_part) < -60_000


def test_exp_to_decimal_carries_a_rounded_up_mantissa():
    # 9.9999996 rounds to a mantissa of 10, which carries into the exponent.
    assert arith.exp_to_decimal(log(9.9999996)) == "1.00000e+1"


def test_rational_to_json_shape():
    out = arith.rational_to_json(Fraction(1, 210))
    assert out == {"num": "1", "den": "210", "decimal": "0.00476190476190"}


def test_int_to_str_refuses_exactly_past_the_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int->str digit limit")
    for n in (10**limit - 1, -(10**limit - 1)):
        assert arith.int_to_str(n) == str(n)
    for n in (10**limit, -(10**limit)):
        with pytest.raises(ResourceLimitError):
            arith.int_to_str(n)
    with pytest.raises(ResourceLimitError):
        arith.to_decimal(Fraction(1, 3), limit + 1)
