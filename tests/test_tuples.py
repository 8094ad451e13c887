"""Tuple validation, admissibility, and the coprime sampling window."""

import random
from fractions import Fraction
from math import gcd

import pytest

from tuplebounds.arith import primes_up_to
from tuplebounds.errors import (
    DomainError,
    InsufficientPopulationError,
    WindowTooLargeError,
)
from tuplebounds.tuples import (
    IntTuple,
    SampleSpace,
    enumerate_sample_space,
    first_k_admissible,
    is_admissible,
    residue_count,
    residue_profile,
)


def test_int_tuple_requires_strict_increase():
    IntTuple((0, 2, 6))
    with pytest.raises(DomainError):
        IntTuple((0, 2, 2))
    with pytest.raises(DomainError):
        IntTuple((3, 1))
    with pytest.raises(DomainError):
        IntTuple(())


def test_from_iterable_sorts_and_rejects_duplicates():
    assert IntTuple.from_iterable([6, 0, 2]).elements == (0, 2, 6)
    with pytest.raises(DomainError):
        IntTuple.from_iterable([1, 1])


def test_tuple_accessors():
    h = IntTuple((-3, 0, 5))
    assert len(h) == 3
    assert list(h) == [-3, 0, 5]
    assert h[1] == 0
    assert h.span == 8
    assert h.shifted(10).elements == (7, 10, 15)
    assert h.to_json() == [-3, 0, 5]


def test_residue_count_basics():
    h = IntTuple((0, 2))
    assert residue_count(h, 2) == 1
    assert residue_count(h, 3) == 2
    with pytest.raises(DomainError):
        residue_count(h, 1)


def test_residue_profile():
    assert residue_profile(IntTuple((0, 2, 6)), 5) == {2: 1, 3: 2, 5: 3}


def test_admissibility_known_examples():
    assert is_admissible(IntTuple((0, 2)))
    assert is_admissible(IntTuple((0, 2, 6)))
    assert is_admissible(IntTuple((0, 4, 6)))
    # 0, 2, 4 covers all of Z/3
    assert not is_admissible(IntTuple((0, 2, 4)))
    assert not is_admissible(IntTuple((0, 1)))


def _admissible_oracle(h):
    # independent re-derivation straight from the definition
    k = len(h.elements)
    for p in primes_up_to(k):
        if len({e % p for e in h.elements}) == p:
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
        assert is_admissible(h) == is_admissible(h.shifted(t))


def test_sample_space_validation():
    s = SampleSpace.for_cutoff(3)
    assert (s.x, s.k, s.R) == (6, 3, 6)
    assert SampleSpace.for_cutoff(3, multiple=4).x == 24
    with pytest.raises(DomainError):
        SampleSpace(x=5, k=3, R=6)  # x not a multiple of R
    with pytest.raises(DomainError):
        SampleSpace(x=6, k=3, R=5)  # wrong primorial
    with pytest.raises(DomainError):
        SampleSpace.for_cutoff(0)


def test_sample_space_size_and_density():
    s = SampleSpace.for_cutoff(3)
    assert s.totient_R == 2
    assert s.size == 4
    assert s.unit_density == Fraction(1, 3)
    big = SampleSpace.for_cutoff(5, multiple=7)
    # closed form vs direct count
    assert big.size == sum(1 for n in range(-big.x + 1, big.x + 1) if gcd(n, big.R) == 1)


def test_enumerate_sample_space_small():
    s = SampleSpace.for_cutoff(3)
    assert enumerate_sample_space(s) == [-5, -1, 1, 5]


def test_enumerated_space_closed_under_negation():
    for k in (2, 3, 5):
        s = SampleSpace.for_cutoff(k, multiple=2)
        members = enumerate_sample_space(s)
        assert sorted(-n for n in members) == members


def test_enumerate_respects_budget():
    s = SampleSpace.for_cutoff(5, multiple=100)
    with pytest.raises(WindowTooLargeError):
        enumerate_sample_space(s, max_elements=10)


def test_first_k_admissible_values():
    assert first_k_admissible(1).elements == (1,)
    assert first_k_admissible(3).elements == (1, 5, 7)
    assert first_k_admissible(5).elements == (1, 7, 11, 13, 17)
    for k in range(1, 26):
        assert is_admissible(first_k_admissible(k))


def test_first_k_admissible_respects_scan_cap():
    with pytest.raises(InsufficientPopulationError):
        first_k_admissible(5, x=10)
