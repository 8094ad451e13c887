"""Prime utilities and exact decimal rendering."""

import random
from decimal import Decimal
from fractions import Fraction
from math import exp, gcd, log

import numpy as np
import pytest

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


def test_factorize():
    assert arith.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert arith.factorize(1) == []
    assert arith.factorize(97) == [(97, 1)]
    with pytest.raises(DomainError):
        arith.factorize(0)


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


def test_totients_up_to_matches_trial_division():
    phi = arith.totients_up_to(5_000)
    assert phi.dtype == np.int32
    assert phi.tolist() == [0] + [arith.totient(n) for n in range(1, 5_001)]
    assert arith.totients_up_to(0).tolist() == [0]
    assert arith.totients_up_to(1).tolist() == [0, 1]
    assert arith.totients_up_to(2).tolist() == [0, 1, 1]


def test_totients_up_to_domain_and_cap():
    with pytest.raises(DomainError):
        arith.totients_up_to(-1)
    with pytest.raises(ResourceLimitError):
        arith.totients_up_to(arith.MAX_SIEVE_LIMIT + 1)


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


def test_rational_to_json_shape():
    out = arith.rational_to_json(Fraction(1, 210))
    assert out == {"num": "1", "den": "210", "decimal": "0.00476190476190"}
