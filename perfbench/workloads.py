"""Seeded request lists for the four benchmark workloads.

Each workload function turns a seeded random stream into a fixed-length
list of requests; ``build`` gives every pass its own stream.  CLI requests go
through ``tuplebounds.cli.main``; library requests call the
public functions of the package modules.  Every request carries a check
that validates its output against values the benchmark computes itself
(see ``checks.py``).

Numeric parameters come from ``_grid``: one value per equal-width
stratum of the stated range, jittered inside the middle tenth of the
stratum.  The seed therefore changes every input (and every output)
while the total work of a list, which grows quadratically with some
parameters, stays nearly the same from seed to seed.

Outputs that the ROADMAP changes on purpose are kept out of the recorded
digests: ``delta-chain --m >= 3`` (certified q-search) and Monte Carlo
runs with more than one shard (collision-free shard seeds).

Why these workloads:

* ``exact-scan``: bound scans through the CLI.  Nearly all time goes to
  the trial-division q-search (``max_q_for`` calls ``totient`` for every q
  up to 2k^2/(m-1)^2) and to ``mertens_product`` recomputed per y in
  ``eta_bounds``; no Monte Carlo and no numpy.
* ``mc-sample``: seeded Monte Carlo through the CLI, with one and two
  shards side by side: ``random.sample``, ``IntTuple`` construction and
  ``is_admissible`` per sample, and the CRT window sampler.
* ``oracle-verify``: the library oracles - numpy chunked enumeration
  below and across the 2^20-vector chunk, construction period scans,
  translation counts and pigeonhole witnesses.  It runs, but it is not
  listed in BENCHMARK.json: the 2-vCPU machine the benchmark was tuned on
  runs the same work up to twice as slowly for minutes at a time, and
  with the whole benchmark held under an hour, four listed workloads get
  22 s runs, which left the figures spreading by 12-17% between seeds,
  while three get 30 s.
* ``cli-small``: about 400 cheap CLI requests, where rebuilding the
  argparse tree, envelope assembly and small ``to_decimal`` renders
  dominate, unlike anywhere else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Callable

from tuplebounds import arith, density, plausible, polignac, stochastic, tuples

from checks import (
    admissible,
    birthday,
    frac,
    is_prime,
    mertens,
    phi,
    primes,
    primorial,
    require,
    result_named,
    rho_adm,
    rho_mod_p,
    survival_probability,
    within_z,
)

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Request:
    """One unit of work.  Exactly one of ``argv`` and ``call`` is set.

    A CLI request must exit 0; ``call`` returns a JSON-ready dict.
    ``check`` receives the parsed envelope (or that dict) and raises
    ``CheckFailure`` on a bad output.
    """

    key: str
    check: Callable[[dict], None]
    argv: tuple[str, ...] | None = None
    call: Callable[[], dict] | None = None
    digest: bool = True
    slot: int = 0


def _grid(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    width = (hi - lo) / n
    return [int(lo + (i + 0.45 + 0.1 * rng.random()) * width) for i in range(n)]


def _cli(argv: list[str], check) -> Request:
    return Request(key=" ".join(argv), argv=tuple(argv), check=check, digest=_digestible(argv))


def _option(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _digestible(argv: list[str]) -> bool:
    if argv[0] == "delta-chain" and int(_option(argv, "--m", "2")) >= 3:
        return False
    return int(_option(argv, "--shards", "1")) == 1


def _check_q(m: int, k: int, q: int) -> None:
    require(q >= 1 and (m - 1) * phi(q) < k, f"q={q} violates (m-1)*phi(q) < k at m={m}, k={k}")


# ---------------------------------------------------------------- exact-scan


def _check_delta2_report(k: int):
    def check(env: dict) -> None:
        require(env["lower_le_congruence_upper"] is True, "lower_le_congruence_upper is false")
        cong = result_named(env, "congruence_upper")
        q = cong["detail"]["q"]
        _check_q(2, k, q)
        require(frac(cong) == Fraction(1, q), "congruence_upper != 1/q")
        lower = frac(result_named(env, "delta2_lower"))
        require(lower <= frac(result_named(env, "best_eta_upper")), "lower above best eta upper")
        require(lower <= frac(cong), "lower above congruence upper")

    return check


def _check_eta(ell: int):
    def check(env: dict) -> None:
        lower = frac(result_named(env, "eta_lower"))
        require(lower == mertens(ell + 1) / ell, f"eta_lower({ell}) is wrong")
        uppers = {int(y): frac(v) for y, v in env["upper_by_y"].items()}
        require(sorted(uppers) == list(range(1, ell)), "upper_by_y does not cover 1..ell-1")
        best = result_named(env, "best_eta_upper")
        require(frac(best) == min(uppers.values()), "best_eta_upper is not the minimum")
        y = best["detail"]["y"]
        require(uppers[y] == frac(best), "best_eta_upper y does not match")
        require(lower <= frac(best), "eta lower above upper")

    return check


def _check_plausible(m: int, k: int):
    def check(env: dict) -> None:
        r = result_named(env, "congruence_upper")
        q = r["detail"]["q"]
        _check_q(m, k, q)
        require(frac(r) == Fraction(1, q ** (m - 1)), "congruence_upper != 1/q^(m-1)")

    return check


def _check_delta2_lower(k: int):
    def check(env: dict) -> None:
        r = result_named(env, "delta2_lower")
        ell = r["detail"]["argmin_ell"]
        require(1 <= ell <= k - 1, "argmin_ell out of range")
        value = frac(r)
        require(value == mertens(ell + 1) / ell, f"delta2_lower({k}) != eta_lower(argmin)")
        # eta_lower falls as ell grows, so the minimum is at ell = k-1; also
        # compare with the step down at the largest prime <= k.
        p = max(primes(k))
        for other in {k - 1, p - 1}:
            require(value <= mertens(other + 1) / other, f"delta2_lower({k}) above eta_lower({other})")

    return check


def _check_constants(env: dict) -> None:
    require(env["passed"] is True, "check-constants did not pass")
    q = next(c["value"] for c in env["checks"] if c["name"] == "max_q_2_50")
    _check_q(2, 50, q)


def _check_delta_chain(env: dict) -> None:
    r = env["results"][0]
    require(r["feasible"] is True and r["ordering_ok"] is True, "delta-chain m=2 infeasible")
    _check_q(2, r["k_m"], r["q"])


def exact_scan(rng: random.Random) -> list[Request]:
    specs = []
    for k in _grid(rng, 100, 220, 6):
        specs.append((["delta2-report", "--k", str(k)], _check_delta2_report(k)))
    for ell in _grid(rng, 200, 700, 8):
        specs.append((["eta", "--ell", str(ell)], _check_eta(ell)))
    for m, k_hi, n in ((2, 250, 3), (3, 400, 3), (4, 400, 4)):
        for k in _grid(rng, 100, k_hi, n):
            specs.append((["plausible-upper", "--m", str(m), "--k", str(k)], _check_plausible(m, k)))
    for k in _grid(rng, 1000, 4000, 8):
        specs.append((["delta2-lower", "--k", str(k)], _check_delta2_lower(k)))
    specs.append((["check-constants"], _check_constants))
    specs.append((["delta-chain", "--m", "2"], _check_delta_chain))
    return [_cli(argv, check) for argv, check in specs]


# ----------------------------------------------------------------- mc-sample


def _check_rho_mc(m: int):
    exact = rho_adm(m)

    def check(env: dict) -> None:
        r = result_named(env, "rho_adm_mc")
        require(r["exact_reference"] == float(exact), f"exact_reference for m={m} is wrong")
        require(r["estimate"] == r["successes"] / r["samples"], "estimate != successes/samples")
        within_z(r["successes"], r["samples"], float(exact), f"rho-adm --mc m={m}")

    return check


def _check_f_stats(m: int, k: int, samples: int):
    def check(env: dict) -> None:
        r = result_named(env, "f_statistics")
        require(r["f"]["count"] == samples and r["X"]["count"] == samples, "sample count is wrong")
        mid = [p for p in primes(k) if p > m * m]
        require(sorted(int(p) for p in r["zero_counts"]) == mid, "zero_counts primes are wrong")
        for p in mid:
            within_z(r["zero_counts"][str(p)], samples, float(birthday(m, p)), f"zeros m={m} p={p}")
        for tail in r["tails"].values():
            require(0 <= tail["successes"] <= samples, "tail count out of range")

    return check


def _check_survival(m: int, k: int, q: int, x_mult: int):
    def check(env: dict) -> None:
        r = result_named(env, "lll_survival")
        require(r["x"] == x_mult * primorial(k), "survival window is wrong")
        exact = survival_probability(m, k, r["x"], q)
        within_z(r["survivors"], r["trials"], float(exact), f"lll-survival k={k}")

    return check


def mc_sample(rng: random.Random) -> list[Request]:
    specs = []
    for m in (4, 5, 6, 7, 8, 9) * 2:
        for shards in (1, 2):
            argv = ["rho-adm", "--m", str(m), "--mc", "--samples", "5000",
                    "--seed", str(rng.randrange(10**6)), "--shards", str(shards)]
            specs.append((argv, _check_rho_mc(m)))
    for m in (2, 3, 2, 3):
        argv = ["mc-f-stats", "--m", str(m), "--k", "30", "--samples", "1000",
                "--seed", str(rng.randrange(10**6))]
        specs.append((argv, _check_f_stats(m, 30, 1000)))
    for k in _grid(rng, 6, 13, 4):
        argv = ["lll-survival", "--m", "3", "--k", str(k), "--q", "7", "--trials", "1000",
                "--seed", str(rng.randrange(10**6))]
        specs.append((argv, _check_survival(3, k, 7, 4)))
    return [_cli(argv, check) for argv, check in specs]


# ------------------------------------------------------------- oracle-verify

# Enumeration cases (m, p) in pairs of near-equal cost (about m * p^m digit
# steps); a seed draws one case of each pair.  Together they run from a
# tenth of one 2^20-vector chunk to five and a half chunks.
_ORACLE_PAIRS = (
    ((17, 2), (4, 29)),
    ((8, 5), (4, 31)),
    ((6, 11), (5, 19)),
    ((20, 2), (6, 13)),
    ((21, 2), (8, 7)),
)
# Constructions (ell, y) in groups of near-equal verification cost, with
# periods q * primorial(y) of about 2.3e3-2.7e3, 3.6e3-4.8e3, 3.9e4-4.4e4,
# 2.2e5-2.4e5 and 4.4e5.
_CONSTRUCTION_GROUPS = (
    ((8, 7), (9, 7), (9, 8), (10, 7), (10, 8), (10, 9), (11, 7), (11, 8), (12, 8)),
    ((13, 7), (13, 9), (14, 8), (15, 7), (16, 7), (16, 8), (18, 7), (19, 8), (20, 9)),
    ((14, 11), (14, 12), (15, 11), (15, 12), (16, 12), (17, 11)),
    ((27, 11), (28, 11), (28, 12)),
    ((30, 11), (31, 12)),
)


def _oracle_request(m: int, p: int) -> Request:
    def call() -> dict:
        return {
            "m": m,
            "p": p,
            "oracle": str(density.rho_adm_mod_p_bruteforce(m, p)),
            "exact": str(density.rho_adm_mod_p_exact(m, p)),
        }

    def check(res: dict) -> None:
        require(res["oracle"] == res["exact"], f"oracle != exact at m={m}, p={p}")
        require(Fraction(res["exact"]) == rho_mod_p(m, p), f"rho_adm_mod_p({m}, {p}) is wrong")

    return Request(key=f"bruteforce m={m} p={p}", call=call, check=check)


def _construction_request(ell: int, y: int) -> Request:
    def call() -> dict:
        bundle = polignac.build_construction(ell, y)
        chk = polignac.verify_construction(bundle)
        return {
            "ell": ell, "y": y, "q": bundle.q, "h": bundle.h, "r": bundle.r,
            "elements": list(bundle.elements), "A_density": str(bundle.A_density),
            "ok": chk.ok, "period": chk.period, "checked": chk.checked,
            "counterexample": chk.counterexample,
            "density_count": chk.density_count, "density_expected": chk.density_expected,
        }

    def check(res: dict) -> None:
        require(res["ok"] is True and res["counterexample"] is None, f"verification failed at ({ell}, {y})")
        require(res["density_count"] == res["density_expected"], "density recount mismatch")
        r = primorial(y)
        require(res["r"] == r and res["period"] == res["q"] * r, "period is not q * primorial(y)")
        require(is_prime(res["q"]) and res["q"] > ell, "q is not a prime above ell")
        require(res["checked"] == res["q"] * phi(r), "verifier skipped units")
        require(len(set(res["elements"])) == ell and admissible(res["elements"]), "B is not admissible")

    return Request(key=f"construction ell={ell} y={y}", call=call, check=check)


def _translation_request(h: list[int], k: int) -> Request:
    R = primorial(k)

    def call() -> dict:
        rep = stochastic.translation_class_count(tuples.IntTuple.from_iterable(h), R, k)
        return {"tuple": h, "k": k, "exact": rep.exact_count, "crt": rep.crt_predicted}

    def check(res: dict) -> None:
        predicted = 2
        for p in primes(k):
            predicted *= p - len({e % p for e in h})
        require(res["exact"] == res["crt"] == predicted, f"translation count mismatch for {h}")

    return Request(key=f"translation k={k} h={h}", call=call, check=check)


def _pigeonhole_request(seed: int, count: int) -> Request:
    k, q = 50, 210

    def call() -> dict:
        sampler = stochastic.CoprimeWindowSampler(k, arith.primorial(k), random.Random(seed))
        out = []
        for _ in range(count):
            tup = tuples.IntTuple.from_iterable(sampler.draw_distinct(k))
            w = plausible.verify_pigeonhole(2, k, q, tup)
            out.append({"tuple_admissible": tuples.is_admissible(tup), "elements": list(tup),
                        "residue": w.residue, "members": list(w.members),
                        "classes": w.classes_occupied})
        return {"witnesses": out}

    def check(res: dict) -> None:
        for w in res["witnesses"]:
            require(w["tuple_admissible"] is True and admissible(w["elements"]), "tuple is not admissible")
            require(len(w["members"]) >= 2 and set(w["members"]) <= set(w["elements"]), "bad witness")
            require(all(v % q == w["residue"] for v in w["members"]), "witness not congruent mod q")
            require(w["classes"] == len({e % q for e in w["elements"]}) <= phi(q), "class count wrong")

    return Request(key=f"pigeonhole seed={seed}", call=call, check=check)


def oracle_verify(rng: random.Random) -> list[Request]:
    # The percentiles are read inside groups of like requests, not between
    # two unlike ones: sixteen sub-5 ms constructions below the 26 pigeonhole
    # batches balance the sixteen requests above them, so the median falls
    # mid-batch, and eight equal translation scans sit just below the five
    # heaviest requests, so the tail (10 requests beyond it) falls among them.
    reqs = [_oracle_request(*rng.choice(pair)) for pair in _ORACLE_PAIRS]
    tiny, small, *larger = _CONSTRUCTION_GROUPS
    reqs += [_construction_request(*c) for c in rng.sample(tiny, 8) + rng.sample(small, 8)]
    reqs += [_construction_request(*rng.choice(group)) for group in larger]
    R13 = primorial(13)
    for size in (1, 2, 3, 4) * 2:
        reqs.append(_translation_request(sorted(rng.sample(range(R13), size)), 13))
    for _ in range(26):
        reqs.append(_pigeonhole_request(rng.randrange(10**6), 8))
    return reqs


# ----------------------------------------------------------------- cli-small


def _check_admissible(values: list[int]):
    def check(env: dict) -> None:
        r = env["results"][0]
        require(r["admissible"] == admissible(values), f"admissibility of {values} is wrong")
        want = {str(p): len({v % p for v in values}) for p in primes(len(values))}
        require(r["residue_counts"] == want, "residue counts are wrong")

    return check


def _check_birthday(m: int, p: int):
    def check(env: dict) -> None:
        require(frac(env["results"][0]) == birthday(m, p), f"birthday({m}, {p}) is wrong")

    return check


def _check_lll(m: int, k: int):
    def check(env: dict) -> None:
        r = env["results"][0]
        n = comb(k, 2) + comb(k, m)
        d = 2 * m * comb(k - 1, m - 1)
        require(r["n_events"] == n and r["dependency_degree"] == d, "event counts are wrong")
        p = frac(r["event_prob_bound"])
        require(4 * d * p == 1, "4dp != 1")
        require(frac(r["survival_exponent"]) == 2 * p * n, "survival exponent != 2pn")
        require(r["exponent_within_target"] == (2 * p * n <= Fraction(k, 2 * m * m)), "target flag")

    return check


def _check_rho_exact(m: int):
    def check(env: dict) -> None:
        r = env["results"][0]
        require(frac(r) == rho_adm(m), f"rho_adm({m}) is wrong")
        for p, v in r["per_prime"].items():
            require(frac(v) == rho_mod_p(m, int(p)), f"rho_adm_mod_p({m}, {p}) is wrong")

    return check


def _check_eta_y(ell: int, y: int):
    def check(env: dict) -> None:
        want = mertens(y) / (ell - y)
        require(frac(env["results"][0]) == want, f"eta_upper({ell}, {y}) is wrong")

    return check


def _check_construct(ell: int, y: int):
    def check(env: dict) -> None:
        v = env["verification"]
        require(v["ok"] is True and v["counterexample"] is None, f"construct ({ell}, {y}) failed")
        require(v["density_count"] == v["density_expected"], "density recount mismatch")
        c = env["results"][0]
        require(v["period"] == c["q"] * primorial(y), "period is not q * primorial(y)")
        require(len(c["elements"]) == ell and admissible(c["elements"]), "B is not admissible")

    return check


def cli_small(rng: random.Random) -> list[Request]:
    specs = []
    small_primes = [p for p in primes(100) if p > 2]
    for _ in range(67):
        values = sorted(rng.sample(range(60), rng.randint(2, 8)))
        specs.append((["admissible", "--tuple", ",".join(map(str, values))], _check_admissible(values)))
    for _ in range(67):
        m, p = rng.randint(2, 10), rng.choice(small_primes)
        specs.append((["birthday", "--m", str(m), "--p", str(p)], _check_birthday(m, p)))
    for _ in range(67):
        m = rng.randint(2, 6)
        k = rng.randint(m + 2, 40)
        specs.append((["lll-check", "--m", str(m), "--k", str(k)], _check_lll(m, k)))
    for m in _grid(rng, 1, 61, 67):
        specs.append((["rho-adm", "--m", str(m)], _check_rho_exact(m)))
    for _ in range(66):
        ell = rng.randint(2, 200)
        y = rng.randint(1, ell - 1)
        specs.append((["eta", "--ell", str(ell), "--y", str(y)], _check_eta_y(ell, y)))
    for _ in range(66):
        ell = rng.randint(3, 12)
        y = rng.randint(1, min(ell - 1, 7))
        specs.append((["construct", "--ell", str(ell), "--y", str(y), "--verify"], _check_construct(ell, y)))
    return [_cli(argv, check) for argv, check in specs]


WORKLOADS: dict[str, Callable[[random.Random], list[Request]]] = {
    "exact-scan": exact_scan,
    "mc-sample": mc_sample,
    "oracle-verify": oracle_verify,
    "cli-small": cli_small,
}


def build(workload: str, seed: int, pass_index: int) -> list[Request]:
    """Requests of one pass, in a seeded order.

    Every pass draws fresh inputs, so no pass can be answered from a cache
    of an earlier one.  ``slot`` is a request's position before shuffling:
    the same slot holds the same kind of request, drawn from the same
    stratum, in every pass.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    reqs = [replace(r, slot=i) for i, r in enumerate(WORKLOADS[workload](rng))]
    rng.shuffle(reqs)
    return [replace(r, key=f"{i:03d} {r.key}") for i, r in enumerate(reqs)]


__all__ = ["DEFAULT_SEED", "Request", "WORKLOADS", "build"]
