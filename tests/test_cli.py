"""End-to-end CLI checks: JSON envelopes, exit codes, determinism."""

import argparse
import bisect
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from tuplebounds import arith, cli, density, plausible, polignac, stochastic, tuples
from tuplebounds.errors import ResourceLimitError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def result_named(env, name):
    for r in env["results"]:
        if r["name"] == name:
            return r
    raise AssertionError(f"no result named {name!r} in {env['results']}")


def test_check_constants_passes(capsys):
    code, env = run(capsys, "check-constants")
    assert code == 0
    assert env["passed"] is True
    assert "mismatches" not in env
    names = [c["name"] for c in env["checks"]]
    assert names == [
        "eta_lower_49",
        "eta_upper_49_13",
        "max_q_2_50",
        "congruence_upper_2_50",
    ]
    eta49 = env["checks"][0]
    assert eta49["rendered_10sf"] == "0.002830695768"
    assert eta49["matches_reference"] is False
    assert any("misrounded" in n for n in env["notes"])


def test_check_constants_detects_injected_fault(capsys, monkeypatch):
    # A leaf primality check that misses the prime 7: q = 210 = 30 * 7 is
    # reached only as the leaf of n = 30, so the q-search returns less.
    orig = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: n != 7 and orig(n))
    code, env = run(capsys, "check-constants")
    assert code == 2
    assert env["passed"] is False
    assert "max_q_2_50" in env["mismatches"]


def test_delta2_report(capsys):
    code, env = run(capsys, "delta2-report", "--k", "50")
    assert code == 0
    assert env["lower_le_congruence_upper"] is True
    lower = result_named(env, "delta2_lower")
    assert lower["num"] == "229323571200"
    assert lower["den"] == "81013146586099"
    cong = result_named(env, "congruence_upper")
    assert (cong["num"], cong["den"]) == ("1", "210")
    best = result_named(env, "best_eta_upper")
    assert best["detail"]["y"] == 13


def test_delta2_report_degenerate_k2(capsys):
    code, env = run(capsys, "delta2-report", "--k", "2")
    assert code == 0
    names = [r["name"] for r in env["results"]]
    assert "best_eta_upper" not in names  # ell = 1 admits no upper split


def test_rho_adm_exact(capsys):
    code, env = run(capsys, "rho-adm", "--m", "3", "--exact")
    assert code == 0
    r = result_named(env, "rho_adm")
    assert (r["num"], r["den"]) == ("7", "36")
    assert set(r["per_prime"]) == {"2", "3"}
    assert "asymptotic" in r


def test_rho_adm_mc_deterministic(capsys):
    argv = ["rho-adm", "--m", "2", "--mc", "--samples", "500", "--seed", "9"]
    code_a = cli.main(argv)
    out_a = capsys.readouterr().out
    code_b = cli.main(argv)
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b
    env = json.loads(out_a)
    r = result_named(env, "rho_adm_mc")
    assert abs(r["estimate"] - r["exact_reference"]) < 0.1
    assert env["seed"] == 9


@pytest.mark.parametrize("argv", [
    ["lll-survival", "--shards", "2", "--trials", "20", "--k", "6", "--m", "2"],
    ["mc-f-stats", "--cprime", "3", "--c", "1.5", "--samples", "20", "--k", "6", "--m", "2"],
])
def test_parameters_follow_flag_order_not_argv_order(capsys, argv):
    # The echo is the parsed namespace, which argparse fills in flag order.
    code, env = run(capsys, *argv)
    assert code == 0
    spec = [name for name, _ in cli.COMMANDS[argv[0]].flags]
    dests = [n[2:].replace("-", "_") for n in spec if n[2:] not in ("seed", "shards", "csv")]
    assert list(env["parameters"]) == dests


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("range_bound", [2**62, 10**19])
def test_rho_adm_mc_accepts_ranges_past_ssize_t(capsys, range_bound):
    # range(-B, B + 1) has no len() past 2**63 - 1, so random.sample over it
    # raised OverflowError; the draws never build that range.
    argv = ["rho-adm", "--m", "4", "--mc", "--range", str(range_bound), "--samples", "100"]
    code = cli.main(argv)
    env = _strict_json(capsys.readouterr().out)
    assert code == 0
    r = result_named(env, "rho_adm_mc")
    assert 0 <= r["successes"] <= r["samples"] == 100


@pytest.mark.parametrize(
    "argv",
    [
        ["rho-adm", "--m", "4", "--mc", "--samples", "1000"],
        ["lll-survival", "--m", "2", "--k", "5", "--trials", "300"],
    ],
)
def test_negative_seed_is_domain_error(capsys, argv):
    # random.Random seeds with |seed|: --seed -5 would repeat --seed 5.
    code, env = run(capsys, *argv, "--seed", "-5")
    assert code == 3
    assert env["error"]["kind"] == "domain-error"
    assert "--seed" in env["error"]["message"]


def test_negative_seed_is_refused_before_the_csv_opens(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, env = run(
        capsys, "mc-f-stats", "--m", "2", "--k", "20", "--samples", "200", "--seed", "-3",
        "--csv", str(path),
    )
    assert code == 3
    assert env["error"]["kind"] == "domain-error"
    assert not path.exists()


def test_summand_ratio(capsys):
    code, env = run(capsys, "summand-ratio", "--m", "100", "--p", "7")
    assert code == 0
    r = result_named(env, "summand_ratios")
    assert r["all_above"] is True
    assert r["threshold"] == pytest.approx(2 * math.log(100))


def test_eta_full_table(capsys):
    code, env = run(capsys, "eta", "--ell", "49")
    assert code == 0
    lower = result_named(env, "eta_lower")
    assert lower["decimal"].startswith("0.0028306957680")
    best = result_named(env, "best_eta_upper")
    assert best["detail"]["y"] == 13
    assert len(env["upper_by_y"]) == 48


def test_eta_domain_error(capsys):
    code, env = run(capsys, "eta", "--ell", "2", "--y", "5")
    assert code == 3
    assert env["error"]["kind"] == "domain-error"
    assert env["error"]["type"] == "DomainError"


def test_eta_computes_the_mertens_product_once(capsys, monkeypatch):
    # The lower bound rendered first is the only Mertens product; the scan
    # carries its own running product on to ell+1.
    calls = []
    orig = arith.mertens_product
    monkeypatch.setattr(arith, "mertens_product", lambda n: calls.append(n) or orig(n))
    code, env = run(capsys, "eta", "--ell", "49")
    assert code == 0
    assert calls == [50]


def test_delta2_lower_command(capsys):
    code, env = run(capsys, "delta2-lower", "--k", "50", "--sig-digits", "10")
    assert code == 0
    r = result_named(env, "delta2_lower")
    assert r["decimal"] == "0.002830695768"
    assert r["detail"]["argmin_ell"] == 49


def test_delta2_lower_report_shape(capsys):
    _, env = run(capsys, "delta2-lower", "--k", "50", "--sig-digits", "10")
    out = result_named(env, "delta2_lower")
    assert out["name"] == "delta2_lower"
    assert out["num"] == "229323571200"
    assert out["den"] == "81013146586099"
    assert out["decimal"] == "0.002830695768"
    assert out["sig_digits"] == 10
    assert out["detail"]["k"] == 50


def test_construct_with_verification(capsys):
    code, env = run(capsys, "construct", "--ell", "3", "--y", "1", "--verify")
    assert code == 0
    r = result_named(env, "construction")
    assert (r["q"], r["B1"], r["elements"]) == (5, [25, 7, 19], [7, 19, 25])
    assert env["verification"]["ok"] is True
    assert env["verification"]["counterexample"] is None


def test_construct_exit_2_on_failed_verification(capsys, monkeypatch):
    from tuplebounds import polignac

    orig = polignac.verify_construction

    def broken(bundle, budget=None):
        chk = orig(bundle)
        return type(chk)(False, chk.period, chk.checked, 3, chk.density_count, 0)

    monkeypatch.setattr(cli.polignac, "verify_construction", broken)
    code, env = run(capsys, "construct", "--ell", "3", "--y", "1", "--verify")
    assert code == 2
    assert env["verification"]["ok"] is False


def test_pintz_command(capsys):
    code, env = run(capsys, "pintz", "--ell", "3", "--y", "1", "--k2", "2")
    assert code == 0
    assert result_named(env, "pintz_interval_constant")["int"] == "20"


def test_plausible_upper(capsys):
    code, env = run(capsys, "plausible-upper", "--m", "2", "--k", "50")
    assert code == 0
    r = result_named(env, "congruence_upper")
    assert (r["num"], r["den"]) == ("1", "210")


def test_plausible_upper_resource_limit(capsys):
    # B = 10^15 - 1 needs primes up to isqrt(B) + 1, past the sieve cap.
    code, env = run(capsys, "plausible-upper", "--m", "2", "--k", str(10**15))
    assert code == 4
    assert env["error"]["kind"] == "resource-limit"
    assert "exceeds cap" in env["error"]["message"]


def test_lll_check(capsys):
    code, env = run(capsys, "lll-check", "--m", "2", "--k", "4")
    assert code == 0
    r = result_named(env, "lll_parameters")
    assert r["n_events"] == 12
    assert r["dependency_degree"] == 12
    assert (r["event_prob_bound"]["num"], r["event_prob_bound"]["den"]) == ("1", "48")
    assert r["exponent_within_target"] is True


def test_counting_bound_command(capsys):
    code, env = run(capsys, "counting-bound", "--m", "2", "--k", "5")
    assert code == 0
    r = result_named(env, "counting_power_bound")
    assert (r["num"], r["den"]) == ("16", "5625")


def test_delta_chain_feasible_and_not(capsys):
    code, env = run(capsys, "delta-chain", "--m", "2")
    assert code == 0
    r = result_named(env, "delta_m_chain")
    assert r["k_m"] == 50 and r["feasible"] is True and r["q"] == 210
    assert any("non-normative" in n for n in env["notes"])

    code, env = run(capsys, "delta-chain", "--m", "3")
    assert code == 0
    r = result_named(env, "delta_m_chain")
    assert r["feasible"] is True and r["q"] == 240240 and r["ordering_ok"] is True
    assert (r["congruence_upper"]["num"], r["congruence_upper"]["den"]) == ("1", str(240240**2))

    code, env = run(capsys, "delta-chain", "--m", "5")
    assert code == 0
    r = result_named(env, "delta_m_chain")
    assert r["feasible"] is True and r["q"] == 281801520 and r["ordering_ok"] is True

    code, env = run(capsys, "delta-chain", "--m", "9")
    assert code == 0
    r = result_named(env, "delta_m_chain")
    assert r["feasible"] is False
    assert "exceeds cap" in r["reason"]


# The two ordering checks must survive python -O, so they raise
# RegressionFailure instead of asserting; each fault below breaks one.
def test_eta_ordering_fault_exits_2(capsys, monkeypatch):
    # Each Mertens factor (p-1)/p of the scan inverted to p/(p-1): the running
    # product then grows, and its lower bound passes the upper bound at y = 1.
    monkeypatch.setattr(polignac, "Fraction", lambda num, den=1: Fraction(den, num))
    code, env = run(capsys, "eta", "--ell", "10")
    assert code == 2
    assert env["error"]["kind"] == "regression-failure"


def test_delta_chain_ordering_fault_exits_2(capsys, monkeypatch):
    orig = plausible.delta_upper_congruence
    monkeypatch.setattr(
        plausible,
        "delta_upper_congruence",
        lambda m, k: replace(orig(m, k), density=Fraction(1, 10**9)),
    )
    code, env = run(capsys, "delta-chain", "--m", "2")
    assert code == 2
    assert env["error"]["kind"] == "regression-failure"


def test_delta_chain_user_c_reports_broken_ordering(capsys):
    # Off the default c the ordering depends on the caller's c, not on the code.
    code, env = run(capsys, "delta-chain", "--m", "2", "--c", "0.1")
    assert code == 0
    r = result_named(env, "delta_m_chain")
    assert (r["c"], r["q"], r["ordering_ok"]) == (0.1, 210, False)


def test_delta_chain_c_too_small_for_m_is_domain_error(capsys):
    code, env = run(capsys, "delta-chain", "--m", "3", "--c", "0.1")
    assert code == 3
    assert "below m = 3" in env["error"]["message"]


def test_first_k_admissibility_fault_exits_2(capsys, monkeypatch):
    # A sieve slice starting at or below k puts a prime <= k into the tuple.
    monkeypatch.setattr(tuples, "bisect_right", lambda a, x: bisect.bisect_right(a, x) - 1)
    code, env = run(capsys, "first-k", "--k", "5")
    assert code == 2
    assert env["error"]["kind"] == "regression-failure"


def test_construct_admissibility_fault_exits_2(capsys, monkeypatch):
    # Every element then shares a factor with primorial(ell).
    monkeypatch.setattr(polignac, "gcd", lambda a, b: 2)
    code, env = run(capsys, "construct", "--ell", "3", "--y", "1")
    assert code == 2
    assert env["error"]["kind"] == "regression-failure"


@pytest.mark.parametrize(
    "argv",
    [
        ["chernoff", "--m", "2", "--k", "30", "--r", "{}", "--s", "0.2"],
        ["chernoff", "--m", "2", "--k", "30", "--r", "1", "--s", "{}"],
        ["delta-chain", "--m", "2", "--c", "{}"],
        ["asymptotic-template", "--m", "2", "--k", "50", "--c-upper", "{}"],
        ["asymptotic-template", "--m", "2", "--k", "50", "--c-lower", "{}"],
        ["mc-f-stats", "--m", "2", "--k", "20", "--samples", "10", "--c", "{}"],
        ["mc-f-stats", "--m", "2", "--k", "20", "--samples", "10", "--cprime", "{}"],
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_float_flags_reject_non_finite(capsys, argv, value):
    code, env = run(capsys, *[a.format(value) for a in argv])
    assert code == 3
    assert env["error"]["kind"] == "domain-error"
    assert "must be a finite number" in env["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["summand-ratio", "--m", "5", "--p", str(10**399 + 1)],
        ["summand-ratio", "--m", "100", "--p", "1000000000000000003"],
    ],
)
def test_huge_prime_flag_hits_resource_limit_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, env = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 4
    assert env["error"]["kind"] == "resource-limit"


@pytest.mark.parametrize(
    "argv, message",
    [
        # 614395 is the last k whose tuple ends under the sieve cap.
        (["first-k", "--k", "614396"], "exceeds cap"),
        (["first-k", "--k", str(10**6)], "exceeds cap"),
        (["chernoff", "--m", "300", "--k", str(10**6), "--r", "1", "--s", "1"], "primes times m^2"),
        (["chernoff", "--m", "1000", "--k", str(10**7), "--r", "1", "--s", "1"], "primes times m^2"),
    ],
)
def test_work_past_the_sieve_cap_or_chernoff_budget_is_refused(capsys, argv, message):
    t0 = time.perf_counter()
    code, env = run(capsys, *argv)
    assert time.perf_counter() - t0 < 3.0
    assert code == 4
    assert message in env["error"]["message"]


def test_chernoff_budget_admits_m_100_and_refuses_m_300_at_k_a_million():
    def work(m):
        return len(stochastic._mid_primes(m, 10**6)) * m * m

    assert work(100) <= stochastic.CHERNOFF_BUDGET < work(300)


_HUGE_MULT = str(10**4299)  # 4300 digits: parses, but times primorial(k >= 5) does not print


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-f-stats", "--m", "2", "--k", "10007", "--samples", "1"],
        ["mc-f-stats", "--m", "2", "--k", "30", "--x-mult", _HUGE_MULT],
        ["lll-survival", "--m", "3", "--k", "12", "--x-mult", _HUGE_MULT],
        ["translation-count", "--tuple", "0,2", "--k", "5", "--x-mult", _HUGE_MULT],
        # x = 6 * 10**4299 prints, but the window error's 2x would not.
        ["translation-count", "--tuple", "0,2", "--k", "3", "--x-mult", _HUGE_MULT],
        # v*M = 9999 * primorial(10000) does not print; the build would take a minute.
        ["construct", "--ell", "10000", "--y", "1"],
        ["pintz", "--ell", "10000", "--y", "1", "--k2", "5"],
        # The first result's value does not print; the scan over y would take 40 s.
        ["eta", "--ell", "60000"],
        ["delta2-report", "--k", "60000"],
        # Each exact value takes from seconds to hours, then does not print.
        ["birthday", "--m", "50000", "--p", "1000000007"],
        ["counting-bound", "--m", "10000", "--k", "10000"],
        ["summand-ratio", "--m", str(10**9), "--p", "3"],
        ["summand-ratio", "--m", str(10**400), "--p", "3"],  # m / log m overflows a float
        ["lll-check", "--m", str(10**6), "--k", str(10**12)],
    ],
)
def test_raw_ints_past_digit_limit_are_refused_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, env = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 4
    assert env["error"]["kind"] == "resource-limit"
    assert "int->str limit" in env["error"]["message"]


def test_power_just_below_digit_limit_still_prints(capsys):
    # Ratio 1 at p = 3 is 2^m: 4300 digits at m = 14284, 4301 at m = 14285.
    code, env = run(capsys, "summand-ratio", "--m", "14284", "--p", "3")
    assert code == 0
    assert len(env["results"][0]["ratios"]["1"]["num"]) == 4300
    code, env = run(capsys, "summand-ratio", "--m", "14285", "--p", "3")
    assert code == 4
    assert "int->str limit" in env["error"]["message"]


# Inputs around each power refusal at a 640-digit limit (2560 bits): the
# library value, and the argv for it.
_POWER_GRID = [
    *((stochastic.birthday_prob_exact, "birthday", m, p) for p in (359, 383)
      for m in range(300, p)),
    *((density.summand_ratio_check, "summand-ratio", m, p) for p in (3, 5)
      for m in (1281, 1282, 1283, 2560, 2561, 2562)),
    *((plausible.counting_power_bound, "counting-bound", m, k) for k in (40, 59)
      for m in range(1, k + 1)),
    *((plausible.lll_parameters, "lll-check", m, 6000) for m in range(2540, 2600, 4)),
]


def test_power_refusals_are_never_premature(capsys):
    # Whenever a command refuses a power before computing it, rendering
    # the library's value would have been refused too.
    a = argparse.Namespace(sig_digits=12)
    refused = set()
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for func, command, m, n in _POWER_GRID:
            flag = "--p" if command in ("birthday", "summand-ratio") else "--k"
            code, env = run(capsys, command, "--m", str(m), flag, str(n))
            if code == 4 and env["error"]["message"].startswith("a power of over"):
                refused.add(command)
                with pytest.raises(ResourceLimitError):
                    cli._json(a, func(m, n))
    finally:
        sys.set_int_max_str_digits(old)
    assert refused == {command for _, command, _, _ in _POWER_GRID}


def test_construction_fields_past_digit_limit_are_refused(capsys):
    # v*M = 1512 * primorial(1513) has 642 digits and passes the check before
    # the build; the largest B1 element has 643, so the built fields refuse.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(642)
    try:
        code, env = run(capsys, "construct", "--ell", "1513", "--y", "1")
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 4
    assert "int->str limit" in env["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["rho-adm", "--m", "306"],
        ["rho-adm", "--m", "20000"],
        ["rho-adm", "--mc", "--m", "400"],
        ["asymptotic-template", "--m", "400", "--k", "1200", "--c-upper", "100"],
        ["asymptotic-template", "--m", "2", "--k", str(10**400)],
        ["asymptotic-template", "--m", "3", "--k", "50", "--c-lower", "1e300"],
        ["delta-chain", "--m", "200", "--c", "1e308"],
        ["delta-chain", "--m", "2", "--c", "1e308"],
        ["delta-chain", "--m", str(10**400)],  # m itself does not fit a float
    ],
)
def test_float_overflow_is_resource_limit(capsys, argv):
    t0 = time.perf_counter()
    code, env = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 4
    assert "exceed" in env["error"]["message"] and "float range" in env["error"]["message"]


def test_asymptotic_ratio_at_the_last_m_in_float_range():
    # m = 305 is the last m whose (e^gamma log m)^m fits a float.
    rep = density.rho_adm_exact(305)
    assert 0 < rep.asymptotic_ratio < math.inf


def test_asymptotic_template_defaults(capsys):
    code, env = run(capsys, "asymptotic-template", "--m", "2", "--k", "50")
    assert code == 0
    r = result_named(env, "asymptotic_template")
    assert r["c_lower"] == pytest.approx(math.exp(-arith.GAMMA))
    assert r["general_shape"] > r["congruence_shape"] > 0
    assert any("non-normative" in n for n in env["notes"])


def test_mc_f_stats_with_csv(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, env = run(
        capsys,
        "mc-f-stats",
        "--m", "2", "--k", "20", "--samples", "200", "--seed", "3",
        "--csv", str(path),
    )
    assert code == 0
    assert env["csv_path"] == str(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "f,X"
    assert len(lines) == 201
    r = result_named(env, "f_statistics")
    assert set(r["tails"]) == {"f", "X"}
    assert r["f"]["count"] == 200


def test_chernoff_command(capsys):
    code, env = run(capsys, "chernoff", "--m", "2", "--k", "30", "--r", "6.8", "--s", "0.2")
    assert code == 0
    r = result_named(env, "chernoff_tail_bound")
    assert r["tail_bound"] == pytest.approx(0.6998615652061906, rel=1e-12)


def test_birthday_command(capsys):
    code, env = run(capsys, "birthday", "--m", "2", "--p", "3")
    assert code == 0
    r = result_named(env, "birthday_prob")
    assert (r["num"], r["den"]) == ("1", "2")


def test_translation_count_command(capsys):
    code, env = run(capsys, "translation-count", "--tuple", "0,2", "--k", "3")
    assert code == 0
    r = result_named(env, "translation_class_count")
    assert r["exact_count"] == r["crt_predicted"]
    assert r["agree"] is True


def test_bad_tuple_text_is_domain_error(capsys):
    code, env = run(capsys, "translation-count", "--tuple", "0,x,2", "--k", "2")
    assert code == 3
    assert env["error"]["kind"] == "domain-error"


def test_lll_survival_command(capsys):
    code, env = run(
        capsys,
        "lll-survival", "--m", "2", "--k", "5", "--trials", "300", "--seed", "13",
    )
    assert code == 0
    r = result_named(env, "lll_survival")
    assert 0.0 <= r["estimate"] <= 1.0
    assert r["reference"] == pytest.approx(math.exp(-5 / 8))
    assert any("non-normative" in n for n in env["notes"])


def test_admissible_command(capsys):
    code, env = run(capsys, "admissible", "--tuple", "0,2,6")
    assert code == 0
    assert result_named(env, "admissible")["admissible"] is True
    code, env = run(capsys, "admissible", "--tuple", "0,1")
    assert result_named(env, "admissible")["admissible"] is False


def test_first_k_command(capsys):
    code, env = run(capsys, "first-k", "--k", "5")
    assert code == 0
    r = result_named(env, "first_k_admissible")
    assert r["elements"] == [1, 7, 11, 13, 17]


def test_usage_errors_stay_json(capsys):
    code, env = run(capsys, "eta", "--ell", "notanint")
    assert code == 3
    assert env["error"]["kind"] == "domain-error"

    code, env = run(capsys, "no-such-command")
    assert code == 3
    assert env["error"]["kind"] == "domain-error"


def test_every_envelope_carries_version_and_command(capsys):
    for argv in (
        ["check-constants"],
        ["birthday", "--m", "3", "--p", "7"],
        ["first-k", "--k", "3"],
    ):
        code, env = run(capsys, *argv)
        assert code == 0
        assert env["version"] == "0.1.0"
        assert env["command"] == argv[0]


@dataclass(frozen=True)
class _Inner:
    z: Fraction
    a: tuple


@dataclass(frozen=True)
class _Outer:
    y: int
    x: _Inner


def test_json_renders_values_recursively():
    a = argparse.Namespace(sig_digits=3)
    for value in (True, False, None, 0.25, "text"):
        assert cli._json(a, value) is value
    rendered = cli._json(a, _Outer(7, _Inner(Fraction(1, 3), (1, 2))))
    assert list(rendered) == ["y", "x"]
    assert list(rendered["x"]) == ["z", "a"]
    assert rendered["x"]["z"] == {"num": "1", "den": "3", "decimal": "0.333"}
    assert rendered["x"]["a"] == [1, 2]
    assert cli._json(a, {2: (3, Fraction(1, 2))}) == {
        "2": [3, {"num": "1", "den": "2", "decimal": "0.500"}]
    }
    assert cli._record(a, "r", v=(1,)) == {"name": "r", "v": [1]}


def test_json_refuses_ints_past_the_digit_limit():
    a = argparse.Namespace(sig_digits=3)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli._json(a, [10**639]) == [10**639]
        with pytest.raises(ResourceLimitError):
            cli._json(a, {"deep": [10**640]})
    finally:
        sys.set_int_max_str_digits(old)
