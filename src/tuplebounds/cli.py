"""Command line interface.

Every operation is a subcommand that prints one JSON report envelope to
stdout.  All numeric output is exact-rational-first: results carry
numerator/denominator strings with a decimal rendering derived from
them.  Exit codes: 0 success, 2 regression failure, 3 domain error,
4 resource limit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import arith, density, plausible, polignac, stochastic
from .arith import check_str_digits, int_to_str, rational_to_json, to_decimal
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


def _bound(a: argparse.Namespace, name: str, value: Fraction, formula: str = "", **detail) -> dict:
    """The JSON of a named exact bound rendered at ``a.sig_digits``."""
    return BoundReport(name, value, a.sig_digits, formula, detail).to_json()


def _json(a: argparse.Namespace, value: object) -> object:
    """``value`` rendered for an envelope, recursively.

    A plain int is refused past the int->str digit limit, a ``Fraction``
    becomes :func:`rational_to_json` at ``a.sig_digits``, a
    ``SimpleNamespace`` record its fields in order, a dict the same dict
    with ``str`` keys, and a tuple or list a list; anything else (a bool,
    None, a float, a str) passes through unchanged.
    """
    if type(value) is int:
        return check_str_digits(value)
    if isinstance(value, Fraction):
        return rational_to_json(value, a.sig_digits)
    if isinstance(value, SimpleNamespace):
        return _json(a, vars(value))
    if isinstance(value, dict):
        return {str(k): _json(a, v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(a, v) for v in value]
    return value


def _record(a: argparse.Namespace, name: str, **fields) -> dict:
    """A named result record with its fields rendered by :func:`_json`."""
    return {"name": name, **_json(a, fields)}


def _constant_checks(a: argparse.Namespace) -> tuple[list, dict, int]:
    """One-shot regression run over the four pinned reference constants.

    Checks, in one pass: the ell = 49 pair-density lower bound renders
    to the corrected 10-digit string and exceeds 1/354; the y = 13
    upper bound equals 16/3003, renders to 0.005328005328, and stays
    below 1/187; the maximal modulus for (m, k) = (2, 50) is 210; and
    the congruence upper bound is exactly 1/210, below 0.0048.  The
    envelope carries a "passed" flag plus per-check detail.
    """
    eta49 = polignac.eta_lower(49)
    rendered = to_decimal(eta49, 10)
    upper = polignac.eta_upper(49, 13)
    upper_rendered = to_decimal(upper, 10)
    upper_ok = upper == Fraction(16, 3003)
    rendering_ok = upper_rendered == "0.005328005328"
    below = upper < Fraction(1, 187)
    cong = plausible.delta_upper_congruence(2, 50)

    checks = _json(a, [
        {
            "name": "eta_lower_49",
            "value": eta49,
            "rendered_10sf": rendered,
            "expected_10sf": ETA49_CORRECTED_DECIMAL,
            "reference_decimal": ETA49_REFERENCE_DECIMAL,
            "matches_reference": rendered == ETA49_REFERENCE_DECIMAL,
            "exceeds_1_354": eta49 > Fraction(1, 354),
            "ok": rendered == ETA49_CORRECTED_DECIMAL and eta49 > Fraction(1, 354),
        },
        {
            "name": "eta_upper_49_13",
            "value": upper,
            "value_ok": upper_ok,
            "rendered_10sf": upper_rendered,
            "rendering_ok": rendering_ok,
            "below_1_187": below,
            "ok": upper_ok and rendering_ok and below,
        },
        {
            "name": "max_q_2_50",
            "value": cong.q,
            "expected": 210,
            "ok": cong.q == 210,
        },
        {
            "name": "congruence_upper_2_50",
            "value": cong.density,
            "value_ok": cong.density == Fraction(1, 210),
            "below_0_0048": cong.density < Fraction(48, 10_000),
            "ok": cong.density == Fraction(1, 210) and cong.density < Fraction(48, 10_000),
        },
    ])
    results = [
        _bound(a, "eta_lower_49", eta49, "mertens_product(50) / 49"),
        _bound(a, "eta_upper_49_13", upper, "mertens_product(13) / (49 - 13)"),
        _bound(a, "congruence_upper_2_50", cong.density, "1 / q^(m-1) at the maximal q", q=cong.q),
    ]
    passed = all(c["ok"] for c in checks)
    extra = {"checks": checks, "passed": passed}
    if not passed:
        extra["mismatches"] = [c["name"] for c in checks if not c["ok"]]
    return results, extra, 0 if passed else 2


def _delta2(a: argparse.Namespace, lower: Fraction) -> dict:
    formula = f"minimum of eta_lower(ell) over ell in [1, {a.k - 1}]"
    return _bound(a, "delta2_lower", lower, formula, k=a.k, argmin_ell=a.k - 1)


def _delta2_report(a: argparse.Namespace) -> tuple[list, dict, int]:
    lower = polignac.delta2_lower(a.k)
    # Rendered before the scan, so a value past the digit limit refuses.
    results = [_delta2(a, lower)]
    cong = plausible.delta_upper_congruence(2, a.k)
    cpb = plausible.counting_power_bound(2, a.k)
    results += [
        _bound(a, "congruence_upper", cong.density, "1 / q^(m-1) at the maximal q", m=2, q=cong.q),
        _bound(a, "counting_power_bound", cpb, "(phi(R) / (k R))^m at m = 2"),
        _bound(a, "lower_over_congruence_upper", lower / cong.density),
    ]
    bounds = polignac.eta_bounds(a.k - 1)
    if bounds.best_upper is not None:
        y_best, val = bounds.best_upper
        formula = f"min over y of mertens_product(y) / ({a.k - 1} - y)"
        results.insert(1, _bound(a, "best_eta_upper", val, formula, ell=a.k - 1, y=y_best))
    return results, {"lower_le_congruence_upper": lower <= cong.density}, 0


def _rho_adm(a: argparse.Namespace) -> tuple[list, dict, int]:
    if a.mode == "mc":
        # The exact reference first: past float range it refuses before any sampling.
        exact = float(density.rho_adm_exact(a.m).total)
        est = density.rho_adm_mc(a.m, a.range, a.samples, a.seed, a.shards)
        result = _record(a, "rho_adm_mc", **vars(est), range_bound=a.range, exact_reference=exact)
        return [result], {"notes": [NOTE_MODEL]}, 0
    rep = density.rho_adm_exact(a.m)
    formula = "product over primes p <= m of the per-prime admissible density"
    result = _bound(a, "rho_adm", rep.total, formula)
    result["per_prime"] = _json(a, rep.per_prime)
    if rep.asymptotic is not None:
        result["asymptotic"] = rep.asymptotic
        result["asymptotic_ratio"] = rep.asymptotic_ratio
    parameters = {"m": a.m, "mode": "exact", "sig_digits": a.sig_digits}
    return [result], {"parameters": parameters}, 0


def _eta(a: argparse.Namespace) -> list | tuple[list, dict, int]:
    if a.y is not None:
        val = polignac.eta_upper(a.ell, a.y)
        formula = f"mertens_product({a.y}) / ({a.ell} - {a.y})"
        return [_bound(a, "eta_upper", val, formula, ell=a.ell, y=a.y)]
    formula = f"mertens_product({a.ell + 1}) / {a.ell}"
    # Rendered before the scan, so a value past the digit limit refuses.
    results = [_bound(a, "eta_lower", polignac.eta_lower(a.ell), formula, ell=a.ell)]
    bounds = polignac.eta_bounds(a.ell)
    if bounds.best_upper is not None:
        y_best, val = bounds.best_upper
        results.append(_bound(a, "best_eta_upper", val, y=y_best))
    parameters = {"ell": a.ell, "sig_digits": a.sig_digits}
    return results, {"parameters": parameters, "upper_by_y": _json(a, bounds.upper_by_y)}, 0


def _construct(a: argparse.Namespace) -> list | tuple[list, dict, int]:
    bundle = polignac.build_construction(a.ell, a.y)
    results = [_record(a, "construction", **vars(bundle))]
    if not a.verify:
        return results
    chk = polignac.verify_construction(bundle)
    return results, {"verification": _json(a, chk)}, 0 if chk.ok else 2


def _pintz(a: argparse.Namespace) -> list:
    bundle = polignac.build_construction(a.ell, a.y)
    constant = polignac.pintz_interval_constant(bundle, a.k2)
    decimal = to_decimal(Fraction(constant), a.sig_digits)
    return [
        _record(a, "pintz_interval_constant", int=int_to_str(constant), decimal=decimal),
        _record(a, "construction", **vars(bundle)),
    ]


def _plausible_upper(a: argparse.Namespace) -> list:
    cong = plausible.delta_upper_congruence(a.m, a.k)
    formula = "1 / q^(m-1) at the maximal q with (m-1) phi(q) < k"
    return [_bound(a, "congruence_upper", cong.density, formula, m=a.m, k=a.k, q=cong.q)]


def _delta_chain(a: argparse.Namespace) -> list:
    fields = vars(plausible.delta_m_chain(a.m, a.c)).copy()
    cong = fields.pop("congruence")
    if cong is not None:
        fields.update(congruence_upper=cong.density, q=cong.q)
    return [_record(a, "delta_m_chain", m=a.m, c=a.c, **fields)]


def _summary(values: list[float]) -> dict:
    n = len(values)
    return {"count": n, "mean": sum(values) / n, "min": min(values), "max": max(values)}


def _window_x(a: argparse.Namespace) -> int:
    """``x_mult * primorial(k)``, refused before sampling if the envelope
    could not print it."""
    return check_str_digits(a.x_mult * arith.primorial(a.k))


def _mc_f_stats(a: argparse.Namespace) -> tuple[list, dict, int]:
    x = _window_x(a)
    # Open --csv before sampling, so an unwritable path fails at once.
    try:
        fh = open(a.csv, "w", newline="") if a.csv else contextlib.nullcontext()
    except OSError as exc:
        raise DomainError(f"cannot write --csv: {exc}") from None
    with fh:
        stats = stochastic.sample_f_statistics(
            a.m, a.k, x, a.samples, a.seed, a.c, a.cprime, a.shards
        )
        if a.csv:
            writer = csv.writer(fh)
            writer.writerow(["f", "X"])
            writer.writerows(zip(stats.f_values, stats.X_values))
    result = _record(a, "f_statistics", x=x, f=_summary(stats.f_values),
                     X=_summary(stats.X_values), zero_counts=stats.zero_counts,
                     tails=stats.tail_estimates)
    return [result], {"csv_path": a.csv} if a.csv else {}, 0


def _translation_count(a: argparse.Namespace) -> list:
    h = _parse_tuple(a.tuple)
    x = _window_x(a)
    rep = stochastic.translation_class_count(h, x, a.k)
    agree = rep.exact_count == rep.crt_predicted
    return [_record(a, "translation_class_count", tuple=h, x=x,
                    exact_count=rep.exact_count, crt_predicted=rep.crt_predicted, agree=agree,
                    density_bound=rep.density_bound)]


def _lll_survival(a: argparse.Namespace) -> list:
    x = _window_x(a)
    est = stochastic.lll_survival_experiment(a.m, a.k, x, a.trials, a.seed, a.q, a.shards)
    return [_record(a, "lll_survival", x=x, q=a.q, survivors=est.survivors, trials=a.trials,
                    estimate=est.estimate, std_error=est.std_error, reference=est.reference)]


def _admissible(a: argparse.Namespace) -> list:
    h = _parse_tuple(a.tuple)
    # The budgeted profile first, so a tuple too long for it refuses before the scan.
    counts = residue_profile(h, len(h))
    return [_record(a, "admissible", tuple=h, admissible=is_admissible(h),
                    residue_counts=counts)]


def _parse_tuple(text: str) -> IntTuple:
    try:
        return IntTuple.from_iterable(part for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise DomainError(f"cannot parse tuple {text!r}: {exc}") from None


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: ``random.Random`` seeds with the
    absolute value, so a negative seed would repeat another seed's run."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
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
_SEED = _flag("--seed", _seed, default=0)
_SHARDS = _flag("--shards", default=1)
_SAMPLES = _flag("--samples", default=10_000)
_SIG = _flag(
    "--sig-digits", default=12, help="significant digits in decimal renderings (default 12)"
)
_X_MULT_HELP = "window half-width as a multiple of primorial(k)"
_X_MULT = _flag("--x-mult", default=1, help=_X_MULT_HELP)


class Command(NamedTuple):
    """One subcommand of the table.

    ``flags`` lists ``add_argument`` specs in parameter order; a list
    inside it is a mutually exclusive group.  ``run(args)`` returns the
    results list, or a ``(results, extra, code)`` triple whose ``extra``
    keys are appended to the envelope.  The envelope's parameters echo
    the parsed namespace but ``--csv``, which is in flag order (argparse
    sets every default in action order before parsing), with ``seed``
    and ``shards`` lifted to the top level; an ``extra["parameters"]``
    replaces them.
    """

    help: str
    flags: tuple
    run: Callable[[argparse.Namespace], list | tuple[list, dict, int]]
    notes: tuple[str, ...] = ()


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
        "consecutive-term ratios of the density sum at (m, p)",
        (_M, _P, _SIG),
        lambda a: [_record(a, "summand_ratios", **vars(density.summand_ratio_check(a.m, a.p)))],
    ),
    "eta": Command(
        "pair-density bounds at a given ell",
        (_ELL, _flag("--y", default=None, help="evaluate the upper bound at y"), _SIG),
        _eta,
    ),
    "delta2-lower": Command(
        "lower bound min over ell of eta_lower",
        (_K, _SIG),
        lambda a: [_delta2(a, polignac.delta2_lower(a.k))],
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
        "local-lemma parameter identities at (m, k)",
        (_M, _K, _SIG),
        lambda a: [_record(a, "lll_parameters", **vars(plausible.lll_parameters(a.m, a.k)))],
    ),
    "counting-bound": Command(
        "counting bound (phi(R)/(kR))^m",
        (_M, _K, _SIG),
        lambda a: [
            _bound(a, "counting_power_bound", plausible.counting_power_bound(a.m, a.k),
                   "(phi(R) / (k R))^m with R = primorial(k)", m=a.m, k=a.k)
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
            _record(a, "asymptotic_template",
                    **vars(plausible.asymptotic_template(a.m, a.k, a.c_upper, a.c_lower)),
                    c_upper=a.c_upper, c_lower=a.c_lower)
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
            _record(a, "chernoff_tail_bound",
                    **vars(stochastic.chernoff_tail_bound(a.m, a.k, a.r, a.s)))
        ],
    ),
    "birthday": Command(
        "exact P(all m residues distinct) mod p",
        (_M, _P, _SIG),
        lambda a: [
            _bound(a, "birthday_prob", stochastic.birthday_prob_exact(a.m, a.p),
                   "product over i < m of (1 - i/(p-1))", m=a.m, p=a.p)
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
        "admissible k-tuple: 1 and the first k-1 primes above k",
        (_K,),
        lambda a: [_record(a, "first_k_admissible", k=a.k, elements=first_k_admissible(a.k))],
    ),
}


def _envelope(command: str, args: argparse.Namespace) -> tuple[dict, int]:
    """Run ``command`` on ``args``; return its envelope and exit code."""
    cmd = COMMANDS[command]
    out = cmd.run(args)
    results, extra, code = (out, {}, 0) if isinstance(out, list) else out
    parameters = extra.pop("parameters", None) or {
        dest: value for dest, value in vars(args).items() if dest not in ("command", "csv")
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
        kind, code = _FAILURES[type(exc)]
        error = {"kind": kind, "type": type(exc).__name__, "message": str(exc)}
        env = {"version": VERSION, "error": error}
    # Rendered whole before writing: strict JSON (no NaN or Infinity) or nothing.
    sys.stdout.write(json.dumps(env, indent=2, allow_nan=False) + "\n")
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
