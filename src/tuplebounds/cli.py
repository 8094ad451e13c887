"""Command line interface.

Every operation is a subcommand that prints one JSON report envelope to
stdout.  All numeric output is exact-rational-first: results carry
numerator/denominator strings with a decimal rendering derived from
them.  Exit codes: 0 success, 2 regression failure, 3 domain error,
4 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import arith, density, plausible, polignac, stochastic
from .arith import rational_to_json, to_decimal
from .errors import DomainError, RegressionFailure, ResourceLimitError
from .report import (
    NOTE_CONTINUOUS,
    NOTE_EXISTENCE,
    NOTE_MODEL,
    NOTE_TEMPLATES,
    VERSION,
    BoundReport,
    envelope,
)
from .tuples import IntTuple, first_k_admissible, is_admissible, residue_profile

# Regression anchors for the minimal pair-density bound at ell = 49.
# The quoted reference string carries a misrounded final digit: the
# exact value 229323571200/81013146586099 renders as ...768 at 10
# significant digits under every standard rounding mode.  The check
# pins the corrected rendering and reports the quoted string alongside.
ETA49_REFERENCE_DECIMAL = "0.002830695767"
ETA49_CORRECTED_DECIMAL = "0.002830695768"
ETA49_NOTE = (
    "the quoted reference constant 0.002830695767 has a misrounded final "
    "digit; the exact value 229323571200/81013146586099 renders as "
    "0.002830695768 at 10 significant digits, which is what the check pins"
)


def run_constant_checks(sig_digits: int = 12) -> dict:
    """One-shot regression run over the four pinned reference constants.

    Checks, in one pass: the ell = 49 pair-density lower bound renders
    to the corrected 10-digit string and exceeds 1/354; the y = 13
    upper bound equals 16/3003, renders to 0.005328005328, and stays
    below 1/187; the maximal modulus for (m, k) = (2, 50) is 210; and
    the congruence upper bound is exactly 1/210, below 0.0048.  The
    envelope carries a "passed" flag plus per-check detail.
    """
    return _envelope("check-constants", argparse.Namespace(sig_digits=sig_digits))[0]


def _constant_checks(a: argparse.Namespace) -> tuple[list, dict, int]:
    sig_digits = a.sig_digits
    eta49 = polignac.eta_lower(49)
    rendered = to_decimal(eta49, 10)
    upper = polignac.eta_upper(49, 13)
    upper_rendered = to_decimal(upper, 10)
    q = plausible.max_q_for(2, 50)
    cong = plausible.delta_upper_congruence(2, 50)

    checks = [
        {
            "name": "eta_lower_49",
            "value": rational_to_json(eta49, sig_digits),
            "rendered_10sf": rendered,
            "expected_10sf": ETA49_CORRECTED_DECIMAL,
            "reference_decimal": ETA49_REFERENCE_DECIMAL,
            "matches_reference": rendered == ETA49_REFERENCE_DECIMAL,
            "exceeds_1_354": eta49 > Fraction(1, 354),
            "ok": rendered == ETA49_CORRECTED_DECIMAL and eta49 > Fraction(1, 354),
        },
        {
            "name": "eta_upper_49_13",
            "value": rational_to_json(upper, sig_digits),
            "value_ok": upper == Fraction(16, 3003),
            "rendered_10sf": upper_rendered,
            "rendering_ok": upper_rendered == "0.005328005328",
            "below_1_187": upper < Fraction(1, 187),
            "ok": (
                upper == Fraction(16, 3003)
                and upper_rendered == "0.005328005328"
                and upper < Fraction(1, 187)
            ),
        },
        {
            "name": "max_q_2_50",
            "value": q,
            "expected": 210,
            "ok": q == 210,
        },
        {
            "name": "congruence_upper_2_50",
            "value": rational_to_json(cong.density, sig_digits),
            "value_ok": cong.density == Fraction(1, 210),
            "below_0_0048": cong.density < Fraction(48, 10_000),
            "ok": cong.density == Fraction(1, 210) and cong.density < Fraction(48, 10_000),
        },
    ]
    results = [
        BoundReport("eta_lower_49", eta49, sig_digits, "mertens_product(50) / 49").to_json(),
        BoundReport(
            "eta_upper_49_13", upper, sig_digits, "mertens_product(13) / (49 - 13)"
        ).to_json(),
        BoundReport(
            "congruence_upper_2_50",
            cong.density,
            sig_digits,
            "1 / q^(m-1) at the maximal q",
            {"q": cong.q},
        ).to_json(),
    ]
    passed = all(c["ok"] for c in checks)
    extra = {"checks": checks, "passed": passed}
    if not passed:
        extra["mismatches"] = [c["name"] for c in checks if not c["ok"]]
    return results, extra, 0 if passed else 2


def run_delta2_report(k: int, sig_digits: int = 12) -> dict:
    """Bundle the pair-density lower bound with every matching upper bound."""
    return _envelope("delta2-report", argparse.Namespace(k=k, sig_digits=sig_digits))[0]


def _delta2_report(a: argparse.Namespace) -> tuple[list, dict, int]:
    k, sig_digits = a.k, a.sig_digits
    lower = polignac.delta2_lower(k, sig_digits)
    bounds = polignac.eta_bounds(k - 1)
    cong = plausible.delta_upper_congruence(2, k)
    cpb = plausible.counting_power_bound(2, k)
    results = [lower.to_json()]
    if bounds.best_upper is not None:
        y_best, val = bounds.best_upper
        results.append(
            BoundReport(
                "best_eta_upper",
                val,
                sig_digits,
                f"min over y of mertens_product(y) / ({k - 1} - y)",
                {"ell": k - 1, "y": y_best},
            ).to_json()
        )
    results += [
        BoundReport(
            "congruence_upper",
            cong.density,
            sig_digits,
            "1 / q^(m-1) at the maximal q",
            {"m": 2, "q": cong.q},
        ).to_json(),
        BoundReport(
            "counting_power_bound", cpb, sig_digits, "(phi(R) / (k R))^m at m = 2"
        ).to_json(),
        BoundReport(
            "lower_over_congruence_upper", lower.value / cong.density, sig_digits
        ).to_json(),
    ]
    return results, {"lower_le_congruence_upper": lower.value <= cong.density}, 0


def _attrs(obj: object, *names: str) -> dict:
    """``{name: obj.name}`` for each name, in order."""
    return {name: getattr(obj, name) for name in names}


def _rho_adm(a: argparse.Namespace) -> tuple[list, dict, int]:
    if a.mode == "mc":
        est = density.rho_adm_mc(a.m, a.range, a.samples, a.seed, a.shards)
        result = {
            "name": "rho_adm_mc",
            **_attrs(est, "estimate", "std_error", "successes", "samples", "range_bound"),
            "exact_reference": float(density.rho_adm_exact(a.m).total),
        }
        return [result], {"notes": [NOTE_MODEL]}, 0
    rep = density.rho_adm_exact(a.m)
    result = BoundReport(
        "rho_adm",
        rep.total,
        a.sig_digits,
        "product over primes p <= m of the per-prime admissible density",
    ).to_json()
    result["per_prime"] = {
        str(p): rational_to_json(v, a.sig_digits) for p, v in rep.per_prime.items()
    }
    if rep.asymptotic is not None:
        result["asymptotic"] = rep.asymptotic
        result["asymptotic_ratio"] = rep.asymptotic_ratio
    parameters = {"m": a.m, "mode": "exact", "sig_digits": a.sig_digits}
    return [result], {"parameters": parameters}, 0


def _summand_ratio(a: argparse.Namespace) -> list:
    rep = density.summand_ratio_check(a.m, a.p)
    ratios = {str(j): rational_to_json(r, a.sig_digits) for j, r in rep.ratios}
    return [{"name": "summand_ratios", "ratios": ratios, **_attrs(rep, "threshold", "all_above")}]


def _eta(a: argparse.Namespace) -> list | tuple[list, dict, int]:
    if a.y is not None:
        val = polignac.eta_upper(a.ell, a.y)
        return [
            BoundReport(
                "eta_upper",
                val,
                a.sig_digits,
                f"mertens_product({a.y}) / ({a.ell} - {a.y})",
                {"ell": a.ell, "y": a.y},
            ).to_json()
        ]
    bounds = polignac.eta_bounds(a.ell)
    results = [
        BoundReport(
            "eta_lower",
            bounds.lower,
            a.sig_digits,
            f"mertens_product({a.ell + 1}) / {a.ell}",
            {"ell": a.ell},
        ).to_json()
    ]
    if bounds.best_upper is not None:
        y_best, val = bounds.best_upper
        best = BoundReport("best_eta_upper", val, a.sig_digits, "", {"y": y_best})
        results.append(best.to_json())
    upper_by_y = {
        str(y): rational_to_json(v, a.sig_digits) for y, v in sorted(bounds.upper_by_y.items())
    }
    parameters = {"ell": a.ell, "sig_digits": a.sig_digits}
    return results, {"parameters": parameters, "upper_by_y": upper_by_y}, 0


def _bundle_json(bundle: polignac.ConstructionBundle, sig_digits: int) -> dict:
    return {
        "name": "construction",
        **_attrs(bundle, "ell", "y", "v", "r", "M", "h", "q"),
        "B1": list(bundle.B1),
        "B2": list(bundle.B2),
        "elements": list(bundle.elements),
        "A_density": rational_to_json(bundle.A_density, sig_digits),
    }


def _construct(a: argparse.Namespace) -> list | tuple[list, dict, int]:
    bundle = polignac.build_construction(a.ell, a.y)
    results = [_bundle_json(bundle, a.sig_digits)]
    if not a.verify:
        return results
    chk = polignac.verify_construction(bundle)
    return results, {"verification": asdict(chk)}, 0 if chk.ok else 2


def _pintz(a: argparse.Namespace) -> list:
    bundle = polignac.build_construction(a.ell, a.y)
    constant = polignac.pintz_interval_constant(bundle, a.k2)
    decimal = to_decimal(Fraction(constant), a.sig_digits)
    return [
        {"name": "pintz_interval_constant", "int": str(constant), "decimal": decimal},
        _bundle_json(bundle, a.sig_digits),
    ]


def _plausible_upper(a: argparse.Namespace) -> list:
    cong = plausible.delta_upper_congruence(a.m, a.k)
    return [
        BoundReport(
            "congruence_upper",
            cong.density,
            a.sig_digits,
            "1 / q^(m-1) at the maximal q with (m-1) phi(q) < k",
            {"m": a.m, "k": a.k, "q": cong.q},
        ).to_json()
    ]


def _lll_check(a: argparse.Namespace) -> list:
    par = plausible.lll_parameters(a.m, a.k)
    return [
        {
            "name": "lll_parameters",
            **_attrs(par, "n_events", "dependency_degree"),
            "event_prob_bound": rational_to_json(par.event_prob_bound, a.sig_digits),
            "survival_exponent": rational_to_json(par.survival_exponent, a.sig_digits),
            "exponent_within_target": par.exponent_within_target,
        }
    ]


def _delta_chain(a: argparse.Namespace) -> list:
    rep = plausible.delta_m_chain(a.m, a.c)
    result = {
        "name": "delta_m_chain",
        **_attrs(rep, "m", "c", "k_m", "feasible", "reason", "lower_reference_decimal"),
        "ordering_ok": rep.ordering_ok,
    }
    if rep.congruence is not None:
        result["congruence_upper"] = rational_to_json(rep.congruence.density, a.sig_digits)
        result["q"] = rep.congruence.q
    return [result]


def _summary(values: list[float]) -> dict:
    n = len(values)
    return {"count": n, "mean": sum(values) / n, "min": min(values), "max": max(values)}


def _mc_f_stats(a: argparse.Namespace) -> tuple[list, dict, int]:
    x = a.x_mult * arith.primorial(a.k)
    stats = stochastic.sample_f_statistics(
        a.m, a.k, x, a.samples, a.seed, a.c, a.cprime, a.shards
    )
    results = [
        {
            "name": "f_statistics",
            "x": x,
            "f": _summary(stats.f_values),
            "X": _summary(stats.X_values),
            "zero_counts": {str(p): c for p, c in sorted(stats.zero_counts.items())},
            "tails": {name: asdict(t) for name, t in stats.tail_estimates.items()},
        }
    ]
    if not a.csv:
        return results, {}, 0
    with open(a.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f", "X"])
        writer.writerows(zip(stats.f_values, stats.X_values))
    return results, {"csv_path": a.csv}, 0


def _translation_count(a: argparse.Namespace) -> list:
    h = _parse_tuple(a.tuple)
    x = a.x_mult * arith.primorial(a.k)
    rep = stochastic.translation_class_count(h, x, a.k)
    return [
        {
            "name": "translation_class_count",
            "tuple": list(h.elements),
            "x": x,
            **_attrs(rep, "exact_count", "crt_predicted"),
            "agree": rep.exact_count == rep.crt_predicted,
            "density_bound": rational_to_json(rep.density_bound, a.sig_digits),
        }
    ]


def _lll_survival(a: argparse.Namespace) -> list:
    x = a.x_mult * arith.primorial(a.k)
    est = stochastic.lll_survival_experiment(a.m, a.k, x, a.trials, a.seed, a.q, a.shards)
    fields = ("q", "survivors", "trials", "estimate", "std_error", "reference")
    return [{"name": "lll_survival", "x": x, **_attrs(est, *fields)}]


def _admissible(a: argparse.Namespace) -> list:
    h = _parse_tuple(a.tuple)
    profile = residue_profile(h, len(h.elements))
    return [
        {
            "name": "admissible",
            "tuple": list(h.elements),
            "admissible": is_admissible(h),
            "residue_counts": {str(p): n_p for p, n_p in sorted(profile.items())},
        }
    ]


def _parse_tuple(text: str) -> IntTuple:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"cannot parse tuple {text!r}: {exc}") from None
    if not values:
        raise DomainError("empty tuple")
    return IntTuple.from_iterable(values)


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _flag(name: str, type: Callable = int, **kw) -> tuple[str, dict]:
    """An ``add_argument`` spec; required unless it sets a default or an action."""
    if "action" not in kw:
        kw = {"type": type, "required": "default" not in kw, **kw}
    return name, kw


_M = _flag("--m")
_K = _flag("--k")
_ELL = _flag("--ell")
_Y = _flag("--y")
_P = _flag("--p")
_SEED = _flag("--seed", default=0)
_SHARDS = _flag("--shards", default=1)
_SAMPLES = _flag("--samples", default=10_000)
_SIG = _flag(
    "--sig-digits", default=12, help="significant digits in decimal renderings (default 12)"
)
_X_MULT_HELP = "window half-width as a multiple of primorial(k)"
_X_MULT = _flag("--x-mult", default=1, help=_X_MULT_HELP)


@dataclass(frozen=True)
class Command:
    """One subcommand of the table.

    ``flags`` lists ``add_argument`` specs in parameter order; a list
    inside it is a mutually exclusive group.  ``run(args)`` returns the
    results list, or a ``(results, extra, code)`` triple whose ``extra``
    keys are appended to the envelope.  The envelope's parameters echo
    every flag but ``--csv``, with ``seed`` and ``shards`` lifted to the
    top level; an ``extra["parameters"]`` replaces them.
    """

    help: str
    flags: tuple
    run: Callable[[argparse.Namespace], list | tuple[list, dict, int]]
    notes: tuple[str, ...] = ()

    @property
    def dests(self) -> list[str]:
        specs = [s for f in self.flags for s in (f if isinstance(f, list) else [f])]
        return list(
            dict.fromkeys(kw.get("dest", name[2:].replace("-", "_")) for name, kw in specs)
        )


# The table order is the order argparse lists the subcommands in.
COMMANDS: dict[str, Command] = {
    "check-constants": Command(
        "regression-check the four pinned reference constants",
        (_SIG,),
        _constant_checks,
        (ETA49_NOTE, NOTE_EXISTENCE, NOTE_CONTINUOUS),
    ),
    "delta2-report": Command(
        "pair-density lower bound with matching upper bounds", (_K, _SIG), _delta2_report
    ),
    "rho-adm": Command(
        "admissible m-tuple density",
        (
            _M,
            [
                _flag("--exact", action="store_const", dest="mode", const="exact",
                      default="exact", help="exact product (default)"),
                _flag("--mc", action="store_const", dest="mode", const="mc",
                      help="Monte Carlo estimate"),
            ],
            _flag("--range", default=1_000_000, help="sample window half-width"),
            _SAMPLES, _SEED, _SHARDS, _SIG,
        ),
        _rho_adm,
    ),
    "summand-ratio": Command(
        "consecutive-term ratios of the density sum at (m, p)", (_M, _P, _SIG), _summand_ratio
    ),
    "eta": Command(
        "pair-density bounds at a given ell",
        (_ELL, _flag("--y", default=None, help="evaluate the upper bound at y"), _SIG),
        _eta,
    ),
    "delta2-lower": Command(
        "lower bound min over ell of eta_lower",
        (_K, _SIG),
        lambda a: [polignac.delta2_lower(a.k, a.sig_digits).to_json()],
    ),
    "construct": Command(
        "covering construction at (ell, y)",
        (_ELL, _Y, _flag("--verify", action="store_true", help="exhaustive one-period check"),
         _SIG),
        _construct,
    ),
    "pintz": Command(
        "interval constant primorial(k2) + span of the construction",
        (_ELL, _Y, _flag("--k2"), _SIG),
        _pintz,
        (NOTE_EXISTENCE,),
    ),
    "plausible-upper": Command(
        "congruence-family upper bound 1/q^(m-1)", (_M, _K, _SIG), _plausible_upper
    ),
    "lll-check": Command(
        "local-lemma parameter identities at (m, k)", (_M, _K, _SIG), _lll_check
    ),
    "counting-bound": Command(
        "counting bound (phi(R)/(kR))^m",
        (_M, _K, _SIG),
        lambda a: [
            BoundReport(
                "counting_power_bound",
                plausible.counting_power_bound(a.m, a.k),
                a.sig_digits,
                "(phi(R) / (k R))^m with R = primorial(k)",
                {"m": a.m, "k": a.k},
            ).to_json()
        ],
    ),
    "delta-chain": Command(
        "k_m chain fed into the q-search",
        (_M, _flag("--c", _finite_float, default=plausible.DEFAULT_C), _SIG),
        _delta_chain,
        (NOTE_TEMPLATES, NOTE_EXISTENCE),
    ),
    "asymptotic-template": Command(
        "asymptotic display shapes with supplied constants",
        (_M, _K, _flag("--c-upper", _finite_float, default=1.0),
         _flag("--c-lower", _finite_float, default=plausible.DEFAULT_C_LOWER)),
        lambda a: [
            {
                "name": "asymptotic_template",
                **_attrs(
                    plausible.asymptotic_template(a.m, a.k, a.c_upper, a.c_lower),
                    "general_shape", "congruence_shape", "c_upper", "c_lower",
                ),
            }
        ],
        (NOTE_TEMPLATES,),
    ),
    "mc-f-stats": Command(
        "Monte Carlo f(B) and X(B) statistics with tail estimates",
        (_M, _K, _X_MULT, _SAMPLES, _SEED, _flag("--c", _finite_float, default=2.0),
         _flag("--cprime", _finite_float, default=2.0), _SHARDS,
         _flag("--csv", str, default=None, help="write per-sample f,X rows")),
        _mc_f_stats,
        (NOTE_MODEL,),
    ),
    "chernoff": Command(
        "exact moment product and tail bound",
        (_M, _K, _flag("--r", _finite_float), _flag("--s", _finite_float)),
        lambda a: [
            {
                "name": "chernoff_tail_bound",
                **_attrs(
                    stochastic.chernoff_tail_bound(a.m, a.k, a.r, a.s),
                    "moment_product", "tail_bound",
                ),
            }
        ],
    ),
    "birthday": Command(
        "exact P(all m residues distinct) mod p",
        (_M, _P, _SIG),
        lambda a: [
            BoundReport(
                "birthday_prob",
                stochastic.birthday_prob_exact(a.m, a.p),
                a.sig_digits,
                "product over i < m of (1 - i/(p-1))",
                {"m": a.m, "p": a.p},
            ).to_json()
        ],
    ),
    "translation-count": Command(
        "translation classes meeting the coprime window",
        (_flag("--tuple", str, help="comma separated, e.g. 0,2"), _K, _X_MULT, _SIG),
        _translation_count,
    ),
    "lll-survival": Command(
        "survival frequency of iid draws vs the no-collision model",
        (_M, _K, _flag("--q", default=None), _flag("--trials", default=2_000), _SEED,
         _flag("--x-mult", default=4, help=_X_MULT_HELP), _SHARDS),
        _lll_survival,
        (NOTE_MODEL,),
    ),
    "admissible": Command(
        "residue profile and admissibility of a tuple",
        (_flag("--tuple", str, help="comma separated, e.g. 0,2,6"),),
        _admissible,
    ),
    "first-k": Command(
        "lexicographically first admissible k-tuple",
        (_K,),
        lambda a: [
            {"name": "first_k_admissible", "k": a.k, "elements": list(first_k_admissible(a.k))}
        ],
    ),
}


def _envelope(command: str, args: argparse.Namespace) -> tuple[dict, int]:
    """Run ``command`` on ``args``; return its envelope and exit code."""
    cmd = COMMANDS[command]
    out = cmd.run(args)
    results, extra, code = (out, {}, 0) if isinstance(out, list) else out
    parameters = extra.pop("parameters", None) or {
        dest: getattr(args, dest) for dest in cmd.dests if dest != "csv"
    }
    seed, shards = parameters.pop("seed", None), parameters.pop("shards", None)
    env = envelope(command, parameters, results, seed=seed, shards=shards, notes=cmd.notes)
    env.update(extra)
    return env, code


class _Parser(argparse.ArgumentParser):
    # Route usage errors through the domain-error exit path so stdout
    # stays machine readable.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise DomainError(message)


@functools.cache
def _parser() -> _Parser:
    # Built once: parse_args keeps no state between calls, and building
    # the tree costs more than most commands.
    parser = _Parser(prog="tuplebounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for spec in cmd.flags:
            group = p.add_mutually_exclusive_group() if isinstance(spec, list) else p
            for flag, kw in spec if isinstance(spec, list) else [spec]:
                group.add_argument(flag, **kw)
    return parser


# Envelope kind and exit code of each failure family.
_FAILURES = {
    DomainError: ("domain-error", 3),
    ResourceLimitError: ("resource-limit", 4),
    RegressionFailure: ("regression-failure", 2),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        env, code = _envelope(args.command, args)
    except tuple(_FAILURES) as exc:
        kind, code = next(_FAILURES[cls] for cls in _FAILURES if isinstance(exc, cls))
        error = {"kind": kind, "type": type(exc).__name__, "message": str(exc)}
        env = {"version": VERSION, "error": error}
    json.dump(env, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
