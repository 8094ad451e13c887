"""End-to-end CLI checks: JSON envelopes, exit codes, determinism."""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from tuplebounds import arith, cli, plausible, polignac, tuples


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
    orig = arith.totients_up_to

    def faulty(n):
        phi = orig(n)
        phi[101:] += 2
        return phi

    monkeypatch.setattr(arith, "totients_up_to", faulty)
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


def test_delta2_lower_command(capsys):
    code, env = run(capsys, "delta2-lower", "--k", "50", "--sig-digits", "10")
    assert code == 0
    r = result_named(env, "delta2_lower")
    assert r["decimal"] == "0.002830695768"
    assert r["detail"]["argmin_ell"] == 49


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
    code, env = run(capsys, "plausible-upper", "--m", "2", "--k", "2000000")
    assert code == 4
    assert env["error"]["kind"] == "resource-limit"


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
    assert r["feasible"] is False
    assert "budget" in r["reason"]


# The two ordering checks must survive python -O, so they raise
# RegressionFailure instead of asserting; each fault below breaks one.
def test_eta_ordering_fault_exits_2(capsys, monkeypatch):
    orig = polignac.eta_lower
    monkeypatch.setattr(polignac, "eta_lower", lambda ell: orig(ell) + 1)
    code, env = run(capsys, "eta", "--ell", "10")
    assert code == 2
    assert env["error"]["kind"] == "regression-failure"


def test_delta_chain_ordering_fault_exits_2(capsys, monkeypatch):
    orig = plausible.delta_upper_congruence
    monkeypatch.setattr(
        plausible,
        "delta_upper_congruence",
        lambda m, k, budget: replace(orig(m, k, budget), density=Fraction(1, 10**9)),
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
    monkeypatch.setattr(tuples, "is_admissible", lambda h: False)
    code, env = run(capsys, "first-k", "--k", "5")
    assert code == 2
    assert env["error"]["kind"] == "regression-failure"


def test_construct_admissibility_fault_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(polignac, "is_admissible", lambda h: False)
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
