"""The Monte Carlo loops against their straightforward forms as oracles.

Each oracle below is the plain form of a loop that the package runs in a
faster shape: ``rng.sample`` over ``range(-B, B + 1)`` with an
``IntTuple`` and a residue count per prime, taken inline, for every
``rho_adm_mc`` sample, a ``Fraction`` product for every f value, and a
sampler draw that calls ``rng.randrange`` per prime and for the block
index.  The fast forms call ``rng.getrandbits`` themselves, exactly as
``Random._randbelow`` does inside ``sample`` and ``randrange`` (keeping
``rng.sample`` only for ranges small enough that ``sample`` may walk a
pool), and test the offsets in [0, 2B] in place of the values.  Both
forms consume the same ``random.Random`` stream call for call, so the
records must be equal, not merely close.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from tuplebounds import density, stochastic
from tuplebounds.arith import primes_up_to, primorial
from tuplebounds.tuples import IntTuple, is_admissible


def _admissible_oracle(h: IntTuple) -> bool:
    return all(len({e % p for e in h}) < p for p in primes_up_to(len(h)))


def _rho_adm_mc_successes(m, range_bound, samples, seed, shards):
    successes = 0
    for rng, n_i in stochastic.shard_streams(seed, samples, shards):
        for _ in range(n_i):
            picks = rng.sample(range(-range_bound, range_bound + 1), m)
            if _admissible_oracle(IntTuple.from_iterable(picks)):
                successes += 1
    return successes


def _draw(sampler, k):
    R, x = sampler.R, sampler.N * sampler.R
    if R == 1:
        return sampler.rng.randrange(-x + 1, x + 1)
    u = 0
    for p in primes_up_to(k):
        e_p = R // p * pow(R // p, -1, p)
        u += sampler.rng.randrange(1, p) * e_p
    u %= R
    return u + sampler.rng.randrange(-sampler.N, sampler.N) * R


def _draw_distinct(sampler, k, m):
    while True:
        batch = [_draw(sampler, k) for _ in range(m)]
        if len(set(batch)) == m:
            return tuple(sorted(batch))


def _f_statistics(m, k, x, samples, seed, shards):
    primes_mid = [p for p in primes_up_to(k) if p > m * m]
    f_vals, x_vals = [], []
    zero_counts = Counter({p: 0 for p in primes_mid})
    for rng, n in stochastic.shard_streams(seed, samples, shards):
        sampler = stochastic.CoprimeWindowSampler(k, x, rng)
        for _ in range(n):
            batch = _draw_distinct(sampler, k, m)
            f = Fraction(1)
            x_stat = 0.0
            for p in primes_mid:
                n_p = len({b % p for b in batch})
                f *= Fraction((p - n_p) * p ** (m - 1), (p - 1) ** m)
                if n_p < m:
                    x_stat += 1.0 / p
                else:
                    zero_counts[p] += 1
            f_vals.append(float(f))
            x_vals.append(x_stat)
    return f_vals, x_vals, dict(zero_counts)


def _survivors(m, k, x, trials, seed, q, shards):
    survivors = 0
    for rng, n in stochastic.shard_streams(seed, trials, shards):
        sampler = stochastic.CoprimeWindowSampler(k, x, rng)
        for _ in range(n):
            batch = [_draw(sampler, k) for _ in range(k)]
            if len(set(batch)) != k:
                continue
            if q is not None and max(Counter(b % q for b in batch).values()) >= m:
                continue
            survivors += 1
    return survivors


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("range_bound", [1, 10, 40, 1_000_000])
def test_rho_adm_mc_matches_intuple_oracle(range_bound, shards):
    # Small bounds take random.sample's pool branch, the large one its set branch.
    for m in range(1, 10):
        if 2 * range_bound + 1 < m:
            continue
        seed = 100 * m + range_bound
        est = density.rho_adm_mc(m, range_bound, 150, seed, shards)
        assert est.successes == _rho_adm_mc_successes(m, range_bound, 150, seed, shards)


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_f_statistics_match_fraction_oracle(m, shards):
    x = 2 * primorial(30)
    stats = stochastic.sample_f_statistics(m, 30, x, 60, 9 + m, shards=shards)
    f_vals, x_vals, zeros = _f_statistics(m, 30, x, 60, 9 + m, shards)
    assert stats.f_values == f_vals
    assert stats.X_values == x_vals
    assert stats.zero_counts == zeros


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_draw_matches_oracle_stream(k):
    # k = 1 gives R = 1: the sampler's one formula must reproduce the
    # oracle's whole-window randrange(-x + 1, x + 1).
    x = 3 * primorial(k)
    fast = stochastic.CoprimeWindowSampler(k, x, random.Random(k))
    slow = stochastic.CoprimeWindowSampler(k, x, random.Random(k))
    assert [fast.draw() for _ in range(300)] == [_draw(slow, k) for _ in range(300)]
    m = min(3, fast.size)
    assert [fast.draw_distinct(m) for _ in range(30)] == [
        _draw_distinct(slow, k, m) for _ in range(30)
    ]


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("q", [None, 5])
def test_lll_survival_matches_oracle(q, shards):
    for k in (2, 6, 12):
        x = 4 * primorial(k)
        est = stochastic.lll_survival_experiment(2, k, x, 120, k, q, shards)
        assert est.survivors == _survivors(2, k, x, 120, k, q, shards)


def test_is_admissible_same_on_tuple_and_list():
    rng = random.Random(3)
    for _ in range(500):
        m = rng.randrange(1, 10)
        picks = rng.sample(range(-30, 31), m)
        h = IntTuple.from_iterable(picks)
        assert is_admissible(picks) == is_admissible(h) == _admissible_oracle(h)


@pytest.mark.parametrize("m", range(1, 10))
def test_rho_adm_mc_matches_oracle_around_the_sample_branch_bound(m):
    # n = 2B + 1 runs from m to 21 + 12m + 4: rho_adm_mc calls rng.sample
    # up to 21 + 12m and draws getrandbits itself above it.
    for range_bound in range(m // 2, 13 + 6 * m):
        seed = 1000 * m + range_bound
        est = density.rho_adm_mc(m, range_bound, 100, seed)
        assert est.successes == _rho_adm_mc_successes(m, range_bound, 100, seed, 1)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_rho_adm_mc_matches_oracle_at_the_largest_sample_range(m):
    # len(range(-B, B + 1)) is 2**63 - 1 here, the most random.sample accepts.
    range_bound = 2**62 - 1
    est = density.rho_adm_mc(m, range_bound, 150, m, 2)
    assert est.successes == _rho_adm_mc_successes(m, range_bound, 150, m, 2)


@pytest.mark.parametrize("N", [1, 2**31 + 1, 2**63 + 1])
def test_draw_matches_oracle_at_block_index_edges(N):
    # 2N = 2, 2N > 2**32 and 2N > 2**64: in the last two, each
    # getrandbits call consumes two and three 32-bit generator outputs.
    k = 5
    x = N * primorial(k)
    fast = stochastic.CoprimeWindowSampler(k, x, random.Random(N))
    slow = stochastic.CoprimeWindowSampler(k, x, random.Random(N))
    assert fast.N == N
    assert [fast.draw() for _ in range(300)] == [_draw(slow, k) for _ in range(300)]
    assert fast.rng.getstate() == slow.rng.getstate()
