"""Acceptance gate: one labeled pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they print.  Criterion 1 is split: the quoted 10-digit reference
constant for the k = 50 pair-density lower bound carries a misrounded
final digit, so the literal-string check is an expected failure and
the corrected rendering is pinned by the main test instead.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from tuplebounds import cli, density, plausible, polignac, stochastic
from tuplebounds.arith import primes_up_to, primorial, to_decimal
from tuplebounds.tuples import IntTuple, is_admissible


def _finish(n, label, failures, elapsed, limit):
    status = "PASS" if not failures else f"FAIL {failures[:4]}"
    print(f"ACCEPTANCE {n} {label}: {status} ({elapsed:.2f}s)")
    assert not failures, failures[:10]
    assert elapsed < limit, f"runtime {elapsed:.2f}s over {limit}s budget"


def test_criterion_1_pinned_constants():
    t0 = time.perf_counter()
    failures = []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check-constants"])
    env = json.loads(out.getvalue())
    for chk in env["checks"]:
        if not chk["ok"]:
            failures.append(chk["name"])
    if not env["passed"]:
        failures.append("aggregate")
    eta49 = polignac.eta_lower(49)
    if not eta49 > Fraction(1, 354):
        failures.append("eta49-vs-1/354")
    if polignac.eta_upper(49, 13) != Fraction(16, 3003):
        failures.append("eta-upper-value")
    if plausible.max_q_for(2, 50) != 210:
        failures.append("max-q")
    if not plausible.delta_upper_congruence(2, 50).density < Fraction(48, 10_000):
        failures.append("upper-vs-0.0048")
    _finish(1, "pinned-constants", failures, time.perf_counter() - t0, 1.0)


@pytest.mark.xfail(
    reason="quoted reference constant has a misrounded final digit; the exact "
    "value renders 0.002830695768 at 10 significant digits and "
    "0.00283069576808 at 12, never 0.002830695767",
    strict=True,
)
def test_criterion_1_quoted_reference_rendering():
    print("ACCEPTANCE 1b quoted-rendering: FAIL (expected, misrounded reference)")
    assert to_decimal(polignac.eta_lower(49), 12) == "0.002830695767"


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    covered = set()
    for p in primes_up_to(31):
        m = 1
        while p**m <= 10_000_000:
            if density.rho_adm_mod_p_exact(m, p) != density.rho_adm_mod_p_bruteforce(m, p):
                failures.append((m, p))
            covered.add((m, p))
            m += 1
    for p in (2, 3, 5, 7):
        for m in range(1, 9):
            if (m, p) not in covered:
                failures.append(("missing", m, p))
    for p in (11, 13):
        for m in range(1, 7):
            if (m, p) not in covered:
                failures.append(("missing", m, p))
    _finish(2, "oracle-equivalence", failures, time.perf_counter() - t0, 300.0)


def test_criterion_3_density_spot_and_mc():
    t0 = time.perf_counter()
    failures = []
    if density.rho_adm_exact(2).total != Fraction(1, 2):
        failures.append("rho(2)")
    if density.rho_adm_exact(3).total != Fraction(7, 36):
        failures.append("rho(3)")
    for m in range(2, 9):
        exact = float(density.rho_adm_exact(m).total)
        est = density.rho_adm_mc(m, 1_000_000, 100_000, seed=1)
        if abs(est.estimate - exact) > 3 * est.std_error:
            failures.append((m, est.estimate, exact))
    _finish(3, "density-mc-3sigma", failures, time.perf_counter() - t0, 60.0)


def test_criterion_4_construction_verifier():
    t0 = time.perf_counter()
    failures = []
    for ell in range(2, 13):
        for y in range(1, ell):
            chk = polignac.verify_construction(polignac.build_construction(ell, y))
            if not chk.ok or chk.counterexample is not None:
                failures.append((ell, y))
            if chk.density_count != chk.density_expected:
                failures.append(("density", ell, y))
    hand = polignac.build_construction(3, 1)
    if hand.q != 5 or set(hand.B1) != {7, 19, 25} or hand.A_density != Fraction(2, 5):
        failures.append("hand-bundle")
    _finish(4, "construction-verifier", failures, time.perf_counter() - t0, 60.0)


def test_criterion_5_monotonicity_sweeps():
    t0 = time.perf_counter()
    failures = []
    vals = [polignac.eta_lower(ell) for ell in range(1, 201)]
    if not all(a > b for a, b in zip(vals, vals[1:])):
        failures.append("eta-lower-not-strictly-decreasing")
    for ell in range(2, 61):
        lo = polignac.eta_lower(ell)
        for y in range(1, ell):
            if lo > polignac.eta_upper(ell, y):
                failures.append(("cross", ell, y))
    for k in range(3, 61):
        # equality holds at k = 3, so the comparison is non-strict
        if polignac.delta2_lower(k) > plausible.delta_upper_congruence(2, k).density:
            failures.append(("order", k))
    ratio = polignac.eta_bounds(49).best_upper[1] / polignac.delta2_lower(50)
    if not Fraction(3, 2) < ratio < 2:
        failures.append(("ratio", float(ratio)))
    _finish(5, "monotonicity-sweeps", failures, time.perf_counter() - t0, 10.0)


def test_criterion_6_local_lemma_grid():
    t0 = time.perf_counter()
    failures = []
    for m in range(2, 7):
        for k in range(m + 2, 41):
            par = plausible.lll_parameters(m, k)
            if par.dependency_degree * 4 * par.event_prob_bound != 1:
                failures.append(("identity", m, k))
            target = Fraction(k, 2 * m * m)
            expo = 2 * par.event_prob_bound * par.n_events
            if expo != par.survival_exponent:
                failures.append(("exponent-mismatch", m, k))
            if expo > target or not par.exponent_within_target:
                failures.append(("exponent", m, k))
            if m == 2 and expo != Fraction(k, 8):
                failures.append(("m2-equality", k))
    _finish(6, "local-lemma-grid", failures, time.perf_counter() - t0, 1.0)


def test_criterion_7_pigeonhole_witnesses():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(4242)
    sampler = stochastic.CoprimeWindowSampler(50, primorial(50), rng)
    for i in range(1_000):
        tup = IntTuple.from_iterable(sampler.draw_distinct(50))
        if not is_admissible(tup):
            failures.append(("inadmissible", i))
            continue
        w = plausible.verify_pigeonhole(2, 50, 210, tup)
        if len(w.members) < 2 or any(v % 210 != w.residue for v in w.members):
            failures.append(("witness", i))
        if w.classes_occupied > 48:
            failures.append(("classes", i, w.classes_occupied))
    _finish(7, "pigeonhole-witnesses", failures, time.perf_counter() - t0, 60.0)


def test_criterion_8_stochastic_model():
    t0 = time.perf_counter()
    failures = []
    x30 = primorial(30)
    for m in (2, 3):
        stats = stochastic.sample_f_statistics(m, 30, x30, 10_000, seed=2)
        n = len(stats.X_values)
        for p, zeros in stats.zero_counts.items():
            p0 = float(stochastic.birthday_prob_exact(m, p))
            sigma = (n * p0 * (1 - p0)) ** 0.5
            if sigma and abs(zeros - n * p0) > 3 * sigma:
                failures.append(("zeros", m, p))
        thresholds = [0.2, 0.3, 0.5, stats.tail_estimates["X"].threshold]
        for s in thresholds:
            mc = sum(1 for v in stats.X_values if v > s) / n
            bound = min(
                stochastic.chernoff_tail_bound(m, 30, r, s).tail_bound
                for r in (4.0, 6.8, 12.0)
            )
            if mc > bound:
                failures.append(("tail", m, s))
    rng = random.Random(7)
    for k in (3, 4, 5):
        R = primorial(k)
        h = IntTuple.from_iterable(rng.sample(range(R), rng.randrange(1, 4)))
        rep = stochastic.translation_class_count(h, R, k)
        if rep.exact_count != rep.crt_predicted:
            failures.append(("translation", k))
    _finish(8, "stochastic-model", failures, time.perf_counter() - t0, 300.0)


def test_criterion_9_non_normative_notes():
    t0 = time.perf_counter()
    failures = []
    import io
    import json
    import sys

    def envelope_for(argv):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            cli.main(argv)
        finally:
            sys.stdout = old
        return json.loads(buf.getvalue())

    env = envelope_for(["asymptotic-template", "--m", "2", "--k", "50"])
    if not any("not reproducible at desk scale" in n for n in env.get("notes", [])):
        failures.append("templates-note")
    env = envelope_for(["delta-chain", "--m", "2"])
    if not any("black box" in n for n in env.get("notes", [])):
        failures.append("existence-note")
    env = envelope_for(["check-constants"])
    notes = env.get("notes", [])
    if not any("continuous" in n and "not reproducible at desk scale" in n for n in notes):
        failures.append("continuous-note")
    env = envelope_for(["lll-survival", "--m", "2", "--k", "5", "--trials", "100"])
    if not any(n.startswith("non-normative") for n in env.get("notes", [])):
        failures.append("model-note")
    _finish(9, "non-normative-notes", failures, time.perf_counter() - t0, 30.0)
