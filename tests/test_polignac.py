"""Pair-density bounds and the covering construction."""

from dataclasses import replace
from fractions import Fraction
from math import exp, gcd, log

import pytest
from oracles import construction_by_pairwise_crt

from tuplebounds import polignac
from tuplebounds.arith import GAMMA, mertens_product, primes_up_to, primorial, to_decimal
from tuplebounds.errors import DomainError, RegressionFailure, ResourceLimitError
from tuplebounds.tuples import is_admissible

ETA49 = Fraction(229323571200, 81013146586099)


def test_eta_lower_small_values():
    assert polignac.eta_lower(1) == Fraction(1, 2)
    assert polignac.eta_lower(4) == Fraction(1, 15)


def test_eta_lower_49_exact_and_rendering():
    v = polignac.eta_lower(49)
    assert v == ETA49
    assert to_decimal(v, 10) == "0.002830695768"
    assert to_decimal(v, 12) == "0.00283069576808"
    assert v > Fraction(1, 354)


def test_eta_upper_values():
    assert polignac.eta_upper(2, 1) == Fraction(1)
    assert polignac.eta_upper(10, 3) == Fraction(1, 21)
    assert polignac.eta_upper(49, 13) == Fraction(16, 3003)
    assert polignac.eta_upper(49, 13) < Fraction(1, 187)


def test_eta_domain_errors():
    with pytest.raises(DomainError):
        polignac.eta_lower(0)
    with pytest.raises(DomainError):
        polignac.eta_upper(2, 5)
    with pytest.raises(DomainError):
        polignac.eta_upper(2, 0)


def test_eta_bounds_49():
    b = polignac.eta_bounds(49)
    assert b.lower == ETA49
    assert len(b.upper_by_y) == 48
    assert b.best_upper == (13, Fraction(16, 3003))
    for v in b.upper_by_y.values():
        assert b.lower <= v


def test_eta_bounds_match_per_y_upper():
    for ell in (1, 2, 3, 50, 211):
        b = polignac.eta_bounds(ell)
        assert b.upper_by_y == {y: polignac.eta_upper(ell, y) for y in range(1, ell)}


def test_eta_lower_strictly_decreasing_to_200():
    prev = polignac.eta_lower(1)
    for ell in range(2, 201):
        cur = polignac.eta_lower(ell)
        assert cur < prev
        prev = cur


def test_delta2_lower_values():
    assert polignac.delta2_lower(2) == Fraction(1, 2)
    assert polignac.delta2_lower(5) == Fraction(1, 15)
    assert polignac.delta2_lower(50) == ETA49


def test_delta2_lower_is_min_over_ell():
    for k in (3, 7, 20):
        assert polignac.delta2_lower(k) == min(polignac.eta_lower(ell) for ell in range(1, k))


def _delta2_running_scan(k):
    """The former delta2_lower: running prime product, minimum over every ell."""
    prime_set = set(primes_up_to(k))
    prod = Fraction(1)
    best_val, best_ell = None, 0
    for ell in range(1, k):
        if ell + 1 in prime_set:
            prod *= Fraction(ell, ell + 1)
        val = prod / ell
        if best_val is None or val < best_val:
            best_val, best_ell = val, ell
    return best_val, best_ell


def test_delta2_lower_matches_running_scan():
    for k in [*range(2, 401), 1_000, 2_500, 4_000]:
        assert (polignac.delta2_lower(k), k - 1) == _delta2_running_scan(k), k


def test_mertens_product_tracks_asymptotic_scale():
    # prod (1 - 1/p) * e^gamma * log x drifts toward 1 from below
    for x, lo in ((100, 0.97), (1_000, 0.99), (10_000, 0.995)):
        ratio = float(mertens_product(x)) * exp(GAMMA) * log(x)
        assert lo < ratio < 1.0


def test_construction_3_1_frozen():
    b = polignac.build_construction(3, 1)
    assert (b.v, b.r, b.M, b.h, b.q) == (2, 1, 6, 2, 5)
    assert b.B1 == (25, 7, 19)
    assert b.B2 == ()
    assert b.elements == (7, 19, 25)
    assert b.A_density == Fraction(2, 5)


def test_construction_5_2_frozen():
    b = polignac.build_construction(5, 2)
    assert (b.v, b.r, b.M, b.h, b.q) == (3, 2, 30, 2, 7)
    assert b.B1 == (91, 121, 151, 181)
    assert b.B2 == (1,)
    assert b.A_density == Fraction(1, 7)


def test_construction_residues_hit_targets():
    b = polignac.build_construction(7, 3)
    for i, rep in enumerate(b.B1):
        assert rep % b.q == (i * b.h) % b.q
        assert rep % b.M == 1
    # B2 covers classes 2..p-1 for primes p <= y across its slots
    for p in (2, 3):
        got = {rep % p for rep in b.B2}
        want = {(s + 2) % p if s <= p - 3 else 1 for s in range(b.y - 1)}
        assert got == want


SMALL_CONSTRUCTIONS = [(ell, y) for ell in range(2, 41) for y in range(1, ell)]


def test_construction_is_admissible_tuple():
    # The self-check's coprimality certificate and is_admissible agree.
    for ell, y in SMALL_CONSTRUCTIONS:
        b = polignac.build_construction(ell, y)
        assert len(b.elements) == ell
        assert all(gcd(e, b.M) == 1 for e in b.elements)
        assert is_admissible(b.elements)


def test_construction_closed_forms_match_pairwise_crt():
    for ell, y in [*SMALL_CONSTRUCTIONS, (300, 150)]:
        b = polignac.build_construction(ell, y)
        assert (b.B1, b.B2) == construction_by_pairwise_crt(ell, y, b.h, b.q), (ell, y)


@pytest.mark.parametrize("ell, y", [(4, 2), (7, 3), (12, 5), (40, 20)])
def test_construction_self_check_rejects_a_slot_in_class_0_mod_2(monkeypatch, ell, y):
    # Adding M/2 (odd, 0 mod every odd prime <= ell) moves the first B2
    # slot from class 1 to class 0 mod 2 and keeps its other residues.
    # Every other element is odd, so both classes mod 2 are then hit.
    bundle = polignac.ConstructionBundle

    def mutant(**fields):
        B2 = (fields["B2"][0] + fields["M"] // 2,) + fields["B2"][1:]
        return bundle(**{**fields, "B2": B2})

    b = mutant(**vars(polignac.build_construction(ell, y)))
    assert not is_admissible(b.elements)
    assert any(gcd(e, b.M) != 1 for e in b.elements)
    monkeypatch.setattr(polignac, "ConstructionBundle", mutant)
    with pytest.raises(RegressionFailure, match="not admissible"):
        polignac.build_construction(ell, y)


def test_construction_domain_and_search_cap(monkeypatch):
    with pytest.raises(DomainError):
        polignac.build_construction(1, 1)
    with pytest.raises(DomainError):
        polignac.build_construction(5, 5)
    monkeypatch.setattr(polignac, "H_SEARCH_CAP", 1)
    with pytest.raises(ResourceLimitError):
        polignac.build_construction(3, 1)


def test_verify_construction_full_grid():
    for ell in range(2, 9):
        for y in range(1, ell):
            b = polignac.build_construction(ell, y)
            chk = polignac.verify_construction(b)
            assert chk.ok, (ell, y, chk)
            assert chk.counterexample is None
            assert chk.density_count == chk.density_expected
            assert chk.density_expected == int(b.A_density * b.q * b.r)


@pytest.mark.parametrize(("ell", "y", "counterexample", "checked"), [(5, 2, 13, 7), (8, 4, 25, 9)])
def test_verify_construction_finds_an_uncovered_element(ell, y, counterexample, checked):
    # Without its last B1 element the construction leaves a gap in the period.
    b = polignac.build_construction(ell, y)
    chk = polignac.verify_construction(replace(b, B1=b.B1[:-1]))
    assert (chk.ok, chk.counterexample, chk.checked) == (False, counterexample, checked)


def test_verify_density_matches_closed_form():
    b = polignac.build_construction(6, 3)
    chk = polignac.verify_construction(b)
    assert Fraction(chk.density_count, chk.period) == b.A_density


def test_verify_respects_period_budget(monkeypatch):
    b = polignac.build_construction(8, 7)
    monkeypatch.setattr(polignac, "PERIOD_BUDGET", 10)
    with pytest.raises(ResourceLimitError):
        polignac.verify_construction(b)


def test_a_density_below_eta_upper():
    # h/q < 1/(ell-y) forces the congruence density under the bound
    for ell in range(2, 9):
        for y in range(1, ell):
            b = polignac.build_construction(ell, y)
            assert b.A_density < polignac.eta_upper(ell, y)


def test_pintz_interval_constant():
    b31 = polignac.build_construction(3, 1)
    assert polignac.pintz_interval_constant(b31, 2) == 20
    assert polignac.pintz_interval_constant(b31, 3) == 24
    b52 = polignac.build_construction(5, 2)
    assert polignac.pintz_interval_constant(b52, 50) == 614889782588491590
    assert polignac.pintz_interval_constant(b52, 50) > primorial(50)
