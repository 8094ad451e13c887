"""Congruence-family upper bounds and local-lemma parameter arithmetic."""

from fractions import Fraction
from math import ceil, exp, log

import numpy as np
import pytest

from test_arith import totients_up_to
from tuplebounds import plausible
from tuplebounds.arith import GAMMA, primes_up_to, to_decimal, totient
from tuplebounds.errors import DomainError, RegressionFailure, ResourceLimitError
from tuplebounds.tuples import first_k_admissible

# The q-search this package ran before its branch-and-bound search: a
# totient sieve scanned up to a Rosser-Schoenfeld cutoff.  Kept here,
# with its certificate tests, as the oracle for plausible.max_q_for.

# Constant in the Rosser-Schoenfeld bound n/phi(n) < f(n) used by _q_cutoff;
# 2.51 exceeds the 2.50637 that their exceptional n = 223092870 needs.
_RS_CONSTANT = 2.51
# Slack on the float comparison in _q_cutoff, in log units; the float64
# error of these logs stays near 1e-12 even for 1000-digit n.
_RS_SLACK = 1e-9


def _rs_log_ratio(n: int) -> float:
    """log(n / f(n)) with f(n) = e^gamma log log n + 2.51/log log n, for n >= 3.

    Taken in logs so that integers beyond float range are handled.
    """
    L = log(log(n))
    return log(n) - log(exp(GAMMA) * L + _RS_CONSTANT / L)


def _q_cutoff(m: int, k: int) -> int:
    """Search range [1, N] certain to hold every q with (m-1)*phi(q) < k.

    Rosser & Schoenfeld, Illinois J. Math. 6 (1962), Theorem 15: for
    n >= 3, n/phi(n) < e^gamma log log n + 5/(2 log log n), except for
    n = 2*3*5*7*11*13*17*19*23 = 223092870, where 5/2 must be replaced
    by 2.50637; with 2.50637 the bound holds for every n >= 3.  So with
    f(n) = e^gamma log log n + 2.51/log log n, phi(n) > n/f(n) for every
    n >= 3.

    (m-1)*phi(q) < k means phi(q) <= B = (k-1)//(m-1).  n/f(n) increases
    for n >= 3 (f >= 2*sqrt(2.51 e^gamma) > 4 while n*f'(n) < e^gamma /
    log n < 2), so once N/f(N) > B every q >= N has phi(q) > B.  N is
    the smallest such N >= 3 found by bisection, up to a float slack,
    capped by the elementary cutoff from phi(q) >= sqrt(q/2), which
    forces q < 2*(k/(m-1))^2.  This is a search range, not a stated
    bound: the oracle still scans all of [1, N] exactly.
    """
    hi = 2 * k * k // ((m - 1) ** 2) + 1
    target = log((k - 1) // (m - 1)) + _RS_SLACK
    if _rs_log_ratio(hi) <= target:
        return hi
    lo = 3  # 3/f(3) < 1 <= B
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rs_log_ratio(mid) > target:
            hi = mid
        else:
            lo = mid
    return hi


def _max_q_sieve(m: int, k: int, phi: np.ndarray | None = None) -> int:
    """The sieve search: the last q <= _q_cutoff(m, k) with phi(q) <= (k-1)//(m-1).

    ``phi`` may be a longer precomputed table; only its first cutoff + 1
    entries are read.
    """
    cutoff = _q_cutoff(m, k)
    if phi is None:
        phi = totients_up_to(cutoff)
    assert cutoff < len(phi)
    phi = phi[: cutoff + 1]
    # phi[q] = phi(q), and phi(1) = 1 <= (k-1)//(m-1), so the last hit is a q >= 1.
    return int(np.flatnonzero(phi <= (k - 1) // (m - 1))[-1])


def test_max_q_known_values():
    assert plausible.max_q_for(2, 50) == 210
    assert plausible.max_q_for(2, 5) == 12
    assert plausible.max_q_for(3, 3) == 2
    assert plausible.max_q_for(3, 100) == 210


def test_max_q_certified_by_direct_scan():
    """No q above the answer satisfies the constraint, up to the cutoff."""
    best = plausible.max_q_for(2, 50)
    cutoff = 2 * 50 * 50 + 1
    for q in range(best + 1, cutoff + 1):
        assert totient(q) >= 50


ORACLE_K_MAX = 250


@pytest.fixture(scope="module")
def trial_division_phi():
    """phi(0..2*ORACLE_K_MAX^2 + 1) from the trial-division ``totient``."""
    n = 2 * ORACLE_K_MAX**2 + 1
    return np.array([0] + [totient(q) for q in range(1, n + 1)])


def _max_q_old_search(m, k, phi):
    """The former q-search: every q up to 2k^2/(m-1)^2 + 1.

    phi(q) >= sqrt(q/2) certifies that range on its own, without the
    Rosser-Schoenfeld bound.
    """
    cutoff = 2 * k * k // ((m - 1) ** 2) + 1
    return int(np.flatnonzero((m - 1) * phi[1 : cutoff + 1] < k)[-1]) + 1


def test_max_q_matches_old_search(trial_division_phi):
    for m in range(2, 6):
        for k in range(m, ORACLE_K_MAX + 1):
            assert _q_cutoff(m, k) <= 2 * k * k // ((m - 1) ** 2) + 1
            got = plausible.max_q_for(m, k)
            assert got == _max_q_old_search(m, k, trial_division_phi), (m, k)


def test_max_q_matches_sieve_oracle():
    phi = totients_up_to(_q_cutoff(2, 1500))
    for m in range(2, 6):
        for k in range(m, 1501):
            assert plausible.max_q_for(m, k) == _max_q_sieve(m, k, phi), (m, k)


@pytest.mark.parametrize("m,k", [(2, 10**6), (3, 94846), (4, 4325335)])
def test_max_q_matches_sieve_oracle_large(m, k):
    assert plausible.max_q_for(m, k) == _max_q_sieve(m, k)


@pytest.mark.parametrize("m,k", [(2, 50), (2, 1_000), (2, 5_000), (3, 2_000), (5, 4_000)])
def test_max_q_boundary_up_to_cutoff(m, k):
    best = plausible.max_q_for(m, k)
    assert (m - 1) * totient(best) < k
    for q in range(best + 1, _q_cutoff(m, k) + 1):
        assert (m - 1) * totient(q) >= k


def test_rosser_schoenfeld_bound_and_its_exception():
    # n/phi(n) < f(n), the certificate behind _q_cutoff, at every small n.
    phi = totients_up_to(100_000)
    assert all(_rs_log_ratio(n) < log(phi[n]) for n in range(3, 100_001))
    # Primorials maximise n/phi(n) among integers up to their size.  The
    # constant each needs in place of 5/2 exceeds 5/2 only at 23#.
    needed = {}
    n, ratio = 1, 1.0
    for p in primes_up_to(71):
        n, ratio = n * p, ratio * p / (p - 1)
        if n >= 3:
            L = log(log(n))
            needed[n] = (ratio - exp(GAMMA) * L) * L
    assert [n for n, c in needed.items() if c > 2.5] == [223092870]
    assert needed[223092870] < 2.50637 < _RS_CONSTANT


def test_max_q_domain_and_budget():
    with pytest.raises(DomainError):
        plausible.max_q_for(1, 10)
    with pytest.raises(DomainError):
        plausible.max_q_for(3, 2)
    # The search's only bound is the sieve cap on isqrt(B) + 1.
    assert plausible.max_q_for(2, 2_000_000) == 10840830
    with pytest.raises(ResourceLimitError):
        plausible.max_q_for(2, 10**15)


def test_congruence_upper_bound_values():
    assert plausible.delta_upper_congruence(2, 50).density == Fraction(1, 210)
    assert plausible.delta_upper_congruence(2, 5).density == Fraction(1, 12)
    r = plausible.delta_upper_congruence(3, 100)
    assert (r.q, r.density) == (210, Fraction(1, 44100))


def test_pigeonhole_witness_on_dense_tuple():
    tup = first_k_admissible(50)
    w = plausible.verify_pigeonhole(2, 50, 210, tup)
    assert w.phi_q == 48
    assert w.classes_occupied <= 48
    assert len(w.members) == 2
    a, b = w.members
    assert a % 210 == b % 210 == w.residue
    assert set(w.members) <= set(tup)


def test_pigeonhole_rejects_bad_inputs():
    tup = first_k_admissible(50)
    with pytest.raises(DomainError):
        plausible.verify_pigeonhole(2, 49, 210, tup)  # wrong k
    with pytest.raises(DomainError):
        plausible.verify_pigeonhole(2, 50, 211, tup)  # phi too large
    bad = tuple(range(50))  # 0..49 covers Z/2
    with pytest.raises(DomainError):
        plausible.verify_pigeonhole(2, 50, 210, bad)


def test_pigeonhole_class_bound_fault_raises(monkeypatch):
    # A wrong phi(q) breaks the class bound; the check must survive python -O.
    monkeypatch.setattr(plausible.arith, "totient", lambda n: 1)
    with pytest.raises(RegressionFailure):
        plausible.verify_pigeonhole(2, 50, 210, first_k_admissible(50))


def test_counting_power_bound_values():
    assert plausible.counting_power_bound(1, 1) == Fraction(1)
    assert plausible.counting_power_bound(2, 5) == Fraction(16, 5625)
    assert to_decimal(plausible.counting_power_bound(2, 50), 5) == "0.0000076955"
    with pytest.raises(DomainError):
        plausible.counting_power_bound(3, 2)


def test_lll_parameters_2_4():
    par = plausible.lll_parameters(2, 4)
    assert par.n_events == 12
    assert par.dependency_degree == 12
    assert par.event_prob_bound == Fraction(1, 48)
    assert par.survival_exponent == Fraction(1, 2)
    assert par.exponent_within_target


def test_lll_parameters_3_10():
    par = plausible.lll_parameters(3, 10)
    assert par.n_events == 165
    assert par.dependency_degree == 216
    assert par.event_prob_bound == Fraction(1, 864)
    assert par.survival_exponent == Fraction(55, 144)
    assert par.exponent_within_target


def test_lll_identity_and_target_across_grid():
    for m in range(2, 7):
        for k in range(m + 2, 31):
            par = plausible.lll_parameters(m, k)
            assert par.dependency_degree * 4 * par.event_prob_bound == 1
            target = Fraction(k, 2 * m * m)
            assert par.survival_exponent <= target
            # equality exactly when the two event families coincide
            is_eq = par.survival_exponent == target
            assert is_eq == (m == 2 or k == m + 2)


def test_lll_domain():
    with pytest.raises(DomainError):
        plausible.lll_parameters(1, 5)
    with pytest.raises(DomainError):
        plausible.lll_parameters(3, 2)


def test_asymptotic_template_frozen_at_2_50():
    tv = plausible.asymptotic_template(2, 50)
    assert tv.general_shape == pytest.approx(0.052556136156956985, rel=1e-12)
    assert tv.congruence_shape == pytest.approx(0.008232214018847179, rel=1e-12)
    # display value lands on the same scale as the exact 1/210 bound
    assert 0.2 < tv.congruence_shape * 210 < 5


def test_asymptotic_template_constant_scaling():
    base = plausible.asymptotic_template(3, 30, c_lower=1.0)
    scaled = plausible.asymptotic_template(3, 30, c_lower=2.0)
    assert scaled.congruence_shape == pytest.approx(
        base.congruence_shape * 2.0 ** 2, rel=1e-12
    )
    default_general = plausible.asymptotic_template(2, 50).general_shape
    assert plausible.asymptotic_template(2, 50, c_upper=2.0).general_shape > default_general


def test_asymptotic_template_domain():
    with pytest.raises(DomainError):
        plausible.asymptotic_template(2, 5)  # k below 3m
    with pytest.raises(DomainError):
        plausible.asymptotic_template(1, 50)


def test_delta_chain_m2_feasible():
    rep = plausible.delta_m_chain(2)
    assert rep.k_m == 50
    assert rep.feasible
    assert rep.reason is None
    assert rep.congruence is not None and rep.congruence.q == 210
    assert rep.ordering_ok is True
    assert rep.lower_reference_decimal == "2.31196e-7"


def test_delta_chain_m3_feasible():
    rep = plausible.delta_m_chain(3)
    assert rep.k_m == ceil(exp(3.82 * 3))
    assert rep.feasible
    assert rep.reason is None
    assert rep.congruence is not None and rep.congruence.q == 240240
    assert rep.congruence.density == Fraction(1, 240240**2)
    assert rep.ordering_ok is True


@pytest.mark.parametrize(
    "m,q", [(5, 281801520), (6, 11125544430), (7, 437485118070), (8, 17545584946890)]
)
def test_delta_chain_certified_through_m8(m, q):
    rep = plausible.delta_m_chain(m)
    assert rep.k_m == ceil(exp(3.82 * m))
    assert rep.feasible and rep.reason is None
    assert rep.congruence is not None and rep.congruence.q == q
    assert rep.ordering_ok is True


def test_delta_chain_huge_m_reports_scale_only():
    rep = plausible.delta_m_chain(200)
    assert rep.k_m is None
    assert not rep.feasible
    assert "overflows" in rep.reason
    mant, exp_part = rep.lower_reference_decimal.split("e")
    assert 1.0 <= float(mant) < 10.0
    assert int(exp_part) < -60_000


def test_delta_chain_domain():
    with pytest.raises(DomainError):
        plausible.delta_m_chain(1)
