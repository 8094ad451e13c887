"""Birthday products, window sampling, tail statistics, survival runs."""

import random
from fractions import Fraction
from math import exp, gcd

import pytest
from oracles import enumerate_sample_space

from tuplebounds import stochastic
from tuplebounds.arith import primorial
from tuplebounds.errors import DomainError, ResourceLimitError
from tuplebounds.tuples import IntTuple, SampleSpace


def test_birthday_prob_known_values():
    assert stochastic.birthday_prob_exact(2, 3) == Fraction(1, 2)
    assert stochastic.birthday_prob_exact(3, 7) == Fraction(5, 9)
    assert stochastic.birthday_prob_exact(1, 5) == Fraction(1)
    assert stochastic.birthday_prob_exact(5, 5) == Fraction(0)
    assert stochastic.birthday_prob_exact(9, 7) == Fraction(0)


def test_birthday_prob_domain():
    with pytest.raises(DomainError):
        stochastic.birthday_prob_exact(2, 2)
    with pytest.raises(DomainError):
        stochastic.birthday_prob_exact(2, 9)
    with pytest.raises(DomainError):
        stochastic.birthday_prob_exact(0, 5)


def test_sampler_draws_only_space_members():
    space = SampleSpace(x=2 * primorial(5), k=5)
    pool = set(enumerate_sample_space(space))
    samp = stochastic.CoprimeWindowSampler(5, space.x, random.Random(1))
    for _ in range(2_000):
        assert samp.draw() in pool


def test_sampler_uniform_over_window_3_sigma():
    space = SampleSpace(x=2 * primorial(5), k=5)
    pool = enumerate_sample_space(space)
    samp = stochastic.CoprimeWindowSampler(5, space.x, random.Random(77))
    n = 6_400
    counts = {v: 0 for v in pool}
    for _ in range(n):
        counts[samp.draw()] += 1
    expected = n / len(pool)
    sigma = (n * (1 / len(pool)) * (1 - 1 / len(pool))) ** 0.5
    for v, c in counts.items():
        assert abs(c - expected) <= 3 * sigma, (v, c)


def test_sampler_trivial_modulus_branch():
    # k=1 gives R=1; the window is every integer in (-x, x]
    samp = stochastic.CoprimeWindowSampler(1, 5, random.Random(0))
    seen = {samp.draw() for _ in range(500)}
    assert seen <= set(range(-4, 6))
    assert len(seen) == 10


def test_sampler_determinism():
    a = stochastic.CoprimeWindowSampler(5, 60, random.Random(5))
    b = stochastic.CoprimeWindowSampler(5, 60, random.Random(5))
    assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]


def test_draw_distinct():
    samp = stochastic.CoprimeWindowSampler(3, 6, random.Random(2))
    batch = samp.draw_distinct(3)
    assert len(set(batch)) == 3
    for m in (5, 0, -1):  # space only holds 4 values; m < 1 never fills a batch
        with pytest.raises(DomainError):
            samp.draw_distinct(m)


@pytest.mark.parametrize(
    "m, k, c, error",
    [(0, 30, 2.0, DomainError), (-1, 30, 2.0, DomainError), (1, 2, 2.0, DomainError),
     (2, 30, 1000.0, ResourceLimitError), (2, 30, 1e308, ResourceLimitError)],
)
def test_f_statistics_refuses_before_sampling(monkeypatch, m, k, c, error):
    monkeypatch.setattr(stochastic.CoprimeWindowSampler, "draw", None)
    with pytest.raises(error):
        stochastic.sample_f_statistics(m, k, primorial(k), 10, seed=0, c=c)


def test_f_statistics_m1_degenerate():
    stats = stochastic.sample_f_statistics(1, 10, primorial(10), 50, seed=0)
    assert all(v == 1.0 for v in stats.f_values)
    assert all(v == 0.0 for v in stats.X_values)
    assert all(z == 50 for z in stats.zero_counts.values())


def test_f_statistics_deterministic_and_sharded():
    a = stochastic.sample_f_statistics(2, 20, primorial(20), 300, seed=4, shards=3)
    b = stochastic.sample_f_statistics(2, 20, primorial(20), 300, seed=4, shards=3)
    assert a.f_values == b.f_values
    assert a.X_values == b.X_values
    assert a.zero_counts == b.zero_counts
    assert len(a.f_values) == 300


def test_f_statistics_zero_counts_match_birthday_3_sigma():
    n = 3_000
    stats = stochastic.sample_f_statistics(2, 30, primorial(30), n, seed=8)
    for p, zeros in stats.zero_counts.items():
        p0 = float(stochastic.birthday_prob_exact(2, p))
        sigma = (n * p0 * (1 - p0)) ** 0.5
        assert abs(zeros - n * p0) <= 3 * sigma, (p, zeros)


def test_f_statistics_tail_reports():
    stats = stochastic.sample_f_statistics(2, 30, primorial(30), 400, seed=2)
    assert set(stats.tail_estimates) == {"f", "X"}
    for t in stats.tail_estimates.values():
        assert t.samples == 400
        assert 0.0 <= t.estimate <= 1.0
        assert t.std_error > 0.0  # Wilson half-width says nonzero even at 0 hits


def test_f_statistics_domain():
    with pytest.raises(DomainError):
        stochastic.sample_f_statistics(5, 20, primorial(20), 100, seed=0)  # m*m >= k
    with pytest.raises(DomainError):
        stochastic.sample_f_statistics(2, 30, primorial(30), 10, seed=0, shards=20)


def test_wilson_halfwidth():
    assert stochastic.wilson_halfwidth(0, 100) > 0
    assert stochastic.wilson_halfwidth(30, 100) == pytest.approx(
        stochastic.wilson_halfwidth(70, 100)
    )
    with pytest.raises(DomainError):
        stochastic.wilson_halfwidth(5, 3)


def test_chernoff_at_r_zero_is_exactly_one():
    bound = stochastic.chernoff_tail_bound(2, 30, 0.0, 0.7)
    assert bound.moment_product == 1.0
    assert bound.tail_bound == 1.0


def test_chernoff_frozen_value():
    bound = stochastic.chernoff_tail_bound(2, 30, 6.8, 0.2)
    assert bound.tail_bound == pytest.approx(0.6998615652061906, rel=1e-12)


def test_chernoff_decreasing_in_s():
    vals = [stochastic.chernoff_tail_bound(2, 30, 6.8, s).tail_bound for s in (0.1, 0.3, 0.6)]
    assert vals[0] > vals[1] > vals[2]


def test_chernoff_domain():
    with pytest.raises(DomainError):
        stochastic.chernoff_tail_bound(2, 30, -1.0, 0.2)
    with pytest.raises(DomainError):
        stochastic.chernoff_tail_bound(5, 20, 1.0, 0.2)


def test_chernoff_dominates_mc_tails():
    stats = stochastic.sample_f_statistics(2, 30, primorial(30), 4_000, seed=21)
    n = len(stats.X_values)
    for s in (0.2, 0.3, 0.5):
        mc = sum(1 for v in stats.X_values if v > s) / n
        for r in (4.0, 6.8, 12.0):
            bound = stochastic.chernoff_tail_bound(2, 30, r, s).tail_bound
            assert mc <= bound, (s, r, mc, bound)


def test_translation_count_frozen_example():
    rep = stochastic.translation_class_count(IntTuple((0, 2)), 6, 3)
    assert rep.exact_count == 2
    assert rep.crt_predicted == 2
    assert rep.density_bound == Fraction(3)


def test_translation_count_singleton_is_whole_window():
    space = SampleSpace(x=6, k=3)
    rep = stochastic.translation_class_count(IntTuple((0,)), space.x, 3)
    assert rep.exact_count == space.size == 4


def test_translation_count_inadmissible_pattern_is_empty():
    rep = stochastic.translation_class_count(IntTuple((0, 1)), 2, 2)
    assert rep.exact_count == rep.crt_predicted == 0


def test_translation_count_exact_equals_crt_on_whole_periods():
    rng = random.Random(31)
    for k in (2, 3, 4, 5):
        R = primorial(k)
        for mult in (1, 3):
            m = rng.randrange(1, 5)
            h = IntTuple.from_iterable(rng.sample(range(0, R), m))
            rep = stochastic.translation_class_count(h, mult * R, k)
            assert rep.exact_count == rep.crt_predicted, (k, mult, h)
            assert rep.exact_count <= rep.density_bound


def test_translation_count_scan_budget():
    with pytest.raises(ResourceLimitError):
        stochastic.translation_class_count(IntTuple((0, 2)), 12_000_000, 2)


def test_survival_distinctness_only_matches_exact():
    # no congruence filter: survival is the exact distinctness product
    est = stochastic.lll_survival_experiment(2, 5, 120, 2_000, seed=13)
    space_size = 64
    exact = 1.0
    for i in range(1, 5):
        exact *= 1 - i / space_size
    assert abs(est.estimate - exact) <= 3 * est.std_error
    assert est.reference == pytest.approx(exp(-5 / 8))


def test_survival_with_congruence_filter():
    est = stochastic.lll_survival_experiment(2, 6, 4 * primorial(6), 1_500, seed=3, q=7)
    again = stochastic.lll_survival_experiment(2, 6, 4 * primorial(6), 1_500, seed=3, q=7)
    assert est.survivors == again.survivors
    assert 0.0 < est.estimate < 0.1
    assert est.reference == pytest.approx(exp(-6 / 8))


def test_survival_impossible_when_classes_overflow():
    # 6 values in 5 classes always collide at m=2
    est = stochastic.lll_survival_experiment(2, 6, 4 * primorial(6), 400, seed=1, q=5)
    assert est.survivors == 0
    assert est.std_error > 0


def test_survival_domain_errors():
    with pytest.raises(DomainError):
        stochastic.lll_survival_experiment(2, 13, 4 * primorial(13), 100, seed=0)
    with pytest.raises(DomainError):
        stochastic.lll_survival_experiment(7, 6, 4 * primorial(6), 100, seed=0)
    with pytest.raises(DomainError):
        stochastic.lll_survival_experiment(2, 2, 2, 100, seed=0)
