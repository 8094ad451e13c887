"""Admissible density: exact product, brute-force oracle, Monte Carlo."""

import tracemalloc
from fractions import Fraction
from math import exp, log

import pytest

from tuplebounds import density
from tuplebounds.arith import GAMMA, primes_up_to
from tuplebounds.errors import DomainError, ResourceLimitError


def test_per_prime_exact_known_values():
    assert density.rho_adm_mod_p_exact(2, 2) == Fraction(1, 2)
    assert density.rho_adm_mod_p_exact(3, 3) == Fraction(7, 9)
    assert density.rho_adm_mod_p_exact(4, 2) == Fraction(1, 8)
    assert density.rho_adm_mod_p_exact(4, 3) == Fraction(5, 9)
    # primes above m never constrain
    assert density.rho_adm_mod_p_exact(2, 5) == Fraction(1)


def test_per_prime_bruteforce_known_values():
    assert density.rho_adm_mod_p_bruteforce(3, 2) == Fraction(1, 4)
    assert density.rho_adm_mod_p_bruteforce(1, 2) == Fraction(1)
    assert density.rho_adm_mod_p_bruteforce(3, 3) == Fraction(7, 9)


def test_per_prime_formula_equals_bruteforce_small_grid():
    for p in (2, 3, 5, 7, 11, 13):
        m = 1
        while p**m <= 100_000:
            assert density.rho_adm_mod_p_exact(m, p) == density.rho_adm_mod_p_bruteforce(m, p)
            m += 1


@pytest.mark.parametrize(
    "m, p",
    [
        # every digit in the low block (7**7 = 823543 <= 2**20)
        (20, 2), (12, 3), (7, 7),
        # high-digit prefixes on top of a full low block
        (21, 2), (13, 3), (9, 5), (8, 7),
        # p > m: no vector covers every class
        (3, 5),
    ],
)
def test_bruteforce_at_the_low_block_split(m, p):
    assert density.rho_adm_mod_p_bruteforce(m, p) == density.rho_adm_mod_p_exact(m, p)


def test_bruteforce_memory_stays_within_the_low_block():
    # The low block holds at most LOW_BLOCK_LIMIT int64 masks; OR-ing in a
    # prefix makes one more such array and a boolean one, 17 bytes per mask.
    # One digit too many in the low block takes p times that.
    for m, p in ((21, 2), (13, 3), (9, 5), (8, 7)):
        tracemalloc.start()
        try:
            density.rho_adm_mod_p_bruteforce(m, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * density.LOW_BLOCK_LIMIT, (m, p, peak)


def test_bruteforce_budget_and_prime_checks():
    with pytest.raises(ResourceLimitError):
        density.rho_adm_mod_p_bruteforce(30, 2)
    with pytest.raises(DomainError):
        density.rho_adm_mod_p_bruteforce(2, 4)
    with pytest.raises(DomainError):
        density.rho_adm_mod_p_exact(2, 6)
    with pytest.raises(DomainError):
        density.rho_adm_mod_p_exact(0, 2)


def test_total_density_known_values():
    assert density.rho_adm_exact(1).total == Fraction(1)
    assert density.rho_adm_exact(2).total == Fraction(1, 2)
    assert density.rho_adm_exact(3).total == Fraction(7, 36)
    assert density.rho_adm_exact(4).total == Fraction(5, 72)
    assert density.rho_adm_exact(5).total == Fraction(18631, 810000)


def test_total_is_product_of_per_prime():
    rep = density.rho_adm_exact(7)
    assert set(rep.per_prime) == set(primes_up_to(7))
    prod = Fraction(1)
    for v in rep.per_prime.values():
        prod *= v
    assert rep.total == prod


def test_density_strictly_decreasing_in_m():
    totals = [density.rho_adm_exact(m).total for m in range(1, 13)]
    for a, b in zip(totals, totals[1:]):
        assert a > b


def test_asymptotic_fields():
    assert density.rho_adm_exact(1).asymptotic is None
    assert density.rho_adm_exact(1).asymptotic_ratio is None
    rep = density.rho_adm_exact(5)
    pred = (exp(GAMMA) * log(5)) ** -5
    assert abs(float(rep.asymptotic) / pred - 1.0) < 1e-4
    assert rep.asymptotic_ratio == pytest.approx(float(rep.total) / pred, rel=1e-9)
    assert rep.asymptotic_ratio > 0


def test_mc_m1_is_exactly_one():
    est = density.rho_adm_mc(1, range_bound=1_000, samples=200, seed=0)
    assert est.estimate == 1.0
    assert est.successes == est.samples == 200


def test_mc_within_3_sigma_of_exact():
    exact = float(density.rho_adm_exact(3).total)
    est = density.rho_adm_mc(3, range_bound=100_000, samples=2_000, seed=1)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_mc_deterministic_and_shard_reproducible():
    a = density.rho_adm_mc(3, range_bound=50_000, samples=400, seed=5, shards=4)
    b = density.rho_adm_mc(3, range_bound=50_000, samples=400, seed=5, shards=4)
    assert (a.successes, a.estimate) == (b.successes, b.estimate)
    # seeds 5 and 21 share no XOR-derived shard seeds at 4 shards; seeds
    # 5 and 6 would, since XOR with 0..3 permutes the same set
    c = density.rho_adm_mc(3, range_bound=50_000, samples=400, seed=21, shards=4)
    assert a.successes != c.successes or a.estimate != c.estimate


def test_mc_input_validation():
    with pytest.raises(DomainError):
        density.rho_adm_mc(3, range_bound=100, samples=50)  # too few samples
    with pytest.raises(DomainError):
        density.rho_adm_mc(5, range_bound=1, samples=200)  # window too small
    with pytest.raises(DomainError):
        density.rho_adm_mc(3, range_bound=100, samples=200, shards=300)


def test_summand_ratios_first_step_power():
    rep = density.summand_ratio_check(20, 3)
    assert rep.ratios == {1: Fraction(2**20)}
    assert rep.threshold == pytest.approx(2 * log(20))
    assert rep.all_above


def test_summand_ratios_larger_prime():
    rep = density.summand_ratio_check(100, 7)
    assert len(rep.ratios) == 5
    assert rep.all_above
    # explicit first ratio: C(7,1) 6^100 / (C(7,2) 5^100)
    assert rep.ratios[1] == Fraction(7 * 6**100, 21 * 5**100)


def test_summand_ratios_vacuous_at_p2():
    rep = density.summand_ratio_check(10, 2)
    assert rep.ratios == {}
    assert rep.all_above


def test_summand_ratio_domain():
    with pytest.raises(DomainError):
        density.summand_ratio_check(2, 2)  # m too small
    with pytest.raises(DomainError):
        density.summand_ratio_check(8, 5)  # p above m / log m
    with pytest.raises(DomainError):
        density.summand_ratio_check(20, 4)  # p not prime
