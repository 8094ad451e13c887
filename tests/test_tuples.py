"""Tuple validation, admissibility, and the coprime sampling window."""

import random
from math import gcd

import pytest
from oracles import enumerate_sample_space, first_k_by_gcd_scan

from tuplebounds import tuples
from tuplebounds.arith import MAX_SIEVE_LIMIT, primes_up_to, primorial
from tuplebounds.errors import DomainError, ResourceLimitError
from tuplebounds.tuples import (
    IntTuple,
    coprime_window,
    first_k_admissible,
    is_admissible,
    residue_profile,
)


def test_int_tuple_requires_strict_increase():
    # from_iterable is the one validating parser; IntTuple(...) itself is a
    # plain tuple constructor and checks nothing.
    assert IntTuple.from_iterable([3, 1]) == (1, 3)
    with pytest.raises(DomainError, match="duplicate element 2"):
        IntTuple.from_iterable([0, 2, 2])
    with pytest.raises(DomainError, match="empty tuple"):
        IntTuple.from_iterable([])


def test_from_iterable_sorts_and_rejects_duplicates():
    assert IntTuple.from_iterable([6, 0, 2]) == (0, 2, 6)
    with pytest.raises(DomainError):
        IntTuple.from_iterable([1, 1])


def test_from_iterable_is_a_sorted_plain_tuple():
    rng = random.Random(5)
    for _ in range(100):
        values = rng.sample(range(-40, 41), rng.randrange(1, 12))
        h = IntTuple.from_iterable(values)
        assert isinstance(h, IntTuple) and isinstance(h, tuple)
        assert h == tuple(sorted(values))
    assert IntTuple.from_iterable(["6", " -1", "2 "]) == (-1, 2, 6)


def test_tuple_accessors():
    h = IntTuple.from_iterable([5, -3, 0])
    assert len(h) == 3
    assert list(h) == [-3, 0, 5]
    assert h[1] == 0


def test_residue_count_basics():
    h = IntTuple.from_iterable([0, 2])
    assert residue_profile(h, 3) == {2: 1, 3: 2}
    assert residue_profile(h, 1) == {}


def test_residue_profile():
    assert residue_profile(IntTuple((0, 2, 6)), 5) == {2: 1, 3: 2, 5: 3}


def test_residue_profile_budget_counts_elements_times_primes(monkeypatch):
    # 3 elements mod the 3 primes up to 5 take 9 residue steps.
    monkeypatch.setattr(tuples, "RESIDUE_PROFILE_BUDGET", 9)
    assert residue_profile(IntTuple((0, 2, 6)), 5) == {2: 1, 3: 2, 5: 3}
    monkeypatch.setattr(tuples, "RESIDUE_PROFILE_BUDGET", 8)
    with pytest.raises(ResourceLimitError, match="3 elements times 3 primes exceeds budget 8"):
        residue_profile(IntTuple((0, 2, 6)), 5)


def test_admissibility_known_examples():
    assert is_admissible(IntTuple((0, 2)))
    assert is_admissible(IntTuple((0, 2, 6)))
    assert is_admissible(IntTuple((0, 4, 6)))
    # 0, 2, 4 covers all of Z/3
    assert not is_admissible(IntTuple((0, 2, 4)))
    assert not is_admissible(IntTuple((0, 1)))


def _admissible_oracle(h):
    # independent re-derivation straight from the definition
    k = len(h)
    for p in primes_up_to(k):
        if len({e % p for e in h}) == p:
            return False
    return True


def test_admissibility_against_oracle_random():
    rng = random.Random(42)
    for _ in range(500):
        m = rng.randrange(1, 9)
        vals = rng.sample(range(-30, 31), m)
        h = IntTuple.from_iterable(vals)
        assert is_admissible(h) == _admissible_oracle(h)


def test_admissibility_translation_invariant():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randrange(2, 8)
        h = IntTuple.from_iterable(rng.sample(range(-50, 51), m))
        t = rng.randrange(-1000, 1000)
        assert is_admissible(h) == is_admissible([e + t for e in h])


def test_sample_space_validation():
    assert coprime_window(6, 3)[0] == 6
    with pytest.raises(DomainError, match="multiple of R=6"):
        coprime_window(5, 3)  # x not a multiple of R = 6
    with pytest.raises(DomainError, match="cutoff k must be >= 1"):
        coprime_window(1, 0)


def test_sample_space_size_and_density():
    # R = 6 and phi(R) = 2, over 2x/R = 2 blocks.
    assert coprime_window(6, 3) == (6, 4)
    x = 7 * primorial(5)
    R, size = coprime_window(x, 5)
    # closed form vs direct count
    assert size == sum(1 for n in range(-x + 1, x + 1) if gcd(n, R) == 1)


def test_enumerate_sample_space_small():
    assert enumerate_sample_space(6, 3) == [-5, -1, 1, 5]


def test_enumerated_space_closed_under_negation():
    for k in (2, 3, 5):
        x = 2 * primorial(k)
        members = enumerate_sample_space(x, k)
        assert len(members) == coprime_window(x, k)[1]
        assert sorted(-n for n in members) == members


def test_enumerate_respects_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_sample_space(100 * primorial(5), 5, budget=10)


def test_first_k_admissible_values():
    assert first_k_admissible(1) == (1,)
    assert first_k_admissible(3) == (1, 5, 7)
    assert first_k_admissible(5) == (1, 7, 11, 13, 17)
    for k in range(1, 26):
        assert is_admissible(first_k_admissible(k))


def test_first_k_admissible_matches_gcd_scan():
    for k in [*range(1, 501), 2000, 5000]:
        assert first_k_admissible(k) == first_k_by_gcd_scan(k), k


def test_first_k_admissible_is_strictly_increasing():
    for k in range(1, 301):
        h = first_k_admissible(k)
        assert isinstance(h, tuple) and len(h) == k
        assert all(a < b for a, b in zip(h, h[1:])), k


# The largest k whose tuple, 1 and the first k-1 primes above k, ends
# under the sieve cap; pi(10^7) = 664579 and pi(614395) = 50185.
LAST_K_UNDER_CAP = 614_395


def test_first_k_admissible_answers_up_to_the_sieve_cap():
    h = first_k_admissible(LAST_K_UNDER_CAP)
    assert len(h) == LAST_K_UNDER_CAP and h[-1] <= MAX_SIEVE_LIMIT
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        first_k_admissible(LAST_K_UNDER_CAP + 1)

