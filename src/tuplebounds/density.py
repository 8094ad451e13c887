"""Density of admissible m-tuples.

For each prime ``p <= m`` the density of residue vectors in ``(Z/p)^m``
that miss at least one class is the alternating sum

    sum_{j=1}^{p-1} C(p, j) (-1)^(j-1) (1 - j/p)^m,

computed here exactly.  Primes above m contribute factor 1.  The product
over primes is the admissible density.  A brute-force enumerator over
``(Z/p)^m`` serves as an independent oracle for the alternating sum, and
a Monte Carlo estimator samples random subsets of a large integer range
for an end-to-end check against the exact product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, exp, log
from operator import and_, or_

from .arith import GAMMA, exp_to_decimal, is_prime, primes_up_to
from .errors import DomainError, ResourceLimitError
from .stochastic import shard_streams
from .tuples import is_admissible

BRUTE_FORCE_LIMIT = 10_000_000
LOW_BLOCK_LIMIT = 1 << 20


def rho_adm_mod_p_exact(m: int, p: int) -> Fraction:
    """Exact density of m-tuples of residues mod p missing a class."""
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if p > m:
        return Fraction(1)
    num = 0
    for j in range(1, p):
        term = comb(p, j) * (p - j) ** m
        num += term if j % 2 == 1 else -term
    return Fraction(num, p**m)


def rho_adm_mod_p_bruteforce(m: int, p: int) -> Fraction:
    """Oracle for :func:`rho_adm_mod_p_exact` by full enumeration.

    Forms the coverage of every one of the ``p**m`` residue vectors, one
    bit per class, and counts those that miss a class mod p.  The low j
    digits, for the largest j <= m with ``p**j <= LOW_BLOCK_LIMIT``, form
    a block held transposed: bit i of ``hits[d]`` is set iff low vector i
    has a digit d.  A prefix h of the m - j high digits is covered by the
    low vectors in the AND of ``hits[d]`` over the classes d not in h.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    total = p**m
    if total > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"p**m = {total} exceeds budget {BRUTE_FORCE_LIMIT}")
    if p > 62:
        raise ResourceLimitError(f"coverage bitmask needs p <= 62, got {p}")
    hits, size, prefixes = [0] * p, 1, [0]
    for _ in range(m):
        if size * p > LOW_BLOCK_LIMIT:
            prefixes = [h | 1 << d for h in prefixes for d in range(p)]
            continue
        # Vector t*size + i is low vector i with the digit t appended.
        hits = [reduce(or_, (x << t * size for t in range(p)), ((1 << size) - 1) << d * size)
                for d, x in enumerate(hits)]
        size *= p
    every = (1 << size) - 1
    rows = ([hits[d] for d in range(p) if not h >> d & 1] for h in prefixes)
    covering = sum(reduce(and_, row, every).bit_count() for row in rows)
    return Fraction(total - covering, total)


@dataclass(frozen=True)
class AdmissibleDensityReport:
    """Exact admissible density with its per-prime factors.

    The asymptotic field renders the prediction 1/(e^gamma log m)^m and
    the ratio divides the exact density by it; both are None at m = 1
    where log m vanishes.  Neither carries a tolerance: the error term
    is only known to be e^(o(m)).  :func:`rho_adm_exact` raises
    ResourceLimitError where (e^gamma log m)^m leaves float range.
    """

    per_prime: dict[int, Fraction]
    total: Fraction
    asymptotic: str | None
    asymptotic_ratio: float | None


def rho_adm_exact(m: int) -> AdmissibleDensityReport:
    """Admissible density as the product of per-prime factors over p <= m."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    # Checked before the product, which takes seconds from m ~ 1000 on.
    shape = exp(GAMMA) * log(m)
    try:
        scale = shape**m
    except OverflowError:
        raise ResourceLimitError(f"(e^gamma log m)^m at m={m} exceeds float range") from None
    per_prime = {p: rho_adm_mod_p_exact(m, p) for p in primes_up_to(m)}
    total = Fraction(1)
    for f in per_prime.values():
        total *= f
    if m >= 2:
        asymptotic = exp_to_decimal(-m * log(shape))
        ratio = float(total) * scale
    else:
        asymptotic = None
        ratio = None
    return AdmissibleDensityReport(
        per_prime=per_prime, total=total, asymptotic=asymptotic, asymptotic_ratio=ratio
    )


@dataclass(frozen=True)
class McDensityEstimate:
    estimate: float
    std_error: float
    successes: int
    samples: int


def rho_adm_mc(
    m: int,
    range_bound: int = 1_000_000,
    samples: int = 10_000,
    seed: int = 0,
    shards: int = 1,
) -> McDensityEstimate:
    """Admissible fraction of random distinct m-subsets of [-B, B].

    Each sample is the m-subset that ``rng.sample(range(-B, B + 1), m)``
    picks, drawn call for call as that method draws it, so a seed gives
    the same successes as the plain ``random.sample`` loop.  With
    n = 2B + 1, CPython's ``sample`` walks a pool of all n values when
    n <= 21 + 4^ceil(log_4 3m) (the second term only for m > 5) and
    otherwise adds ``_randbelow(n)`` draws to a set until it holds m.
    Since 4^ceil(log_4 3m) < 4 * 3m = 12m, every n > 21 + 12m takes the
    set branch, which is inlined below: ``_randbelow(n)`` redraws
    ``getrandbits(n.bit_length())`` until it is below n, and a repeat
    offset draws again, so each draw is one ``getrandbits`` call either
    way.  Smaller n keep ``rng.sample``.  (CPython takes that ceiling in
    floating point; it comes out one power of 4 too high only when 3m
    lies within float precision below a power of 4, first at m ~ 9.6e16,
    far past any m whose samples fit in memory.)  The offsets are never
    turned into a range, so B has no ssize_t cap.

    Shards split the samples as :func:`stochastic.shard_streams` says
    and merge by summing successes.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    n = 2 * range_bound + 1
    if n < m:
        raise DomainError(f"range_bound {range_bound} cannot host {m} distinct values")
    if samples < 100:
        raise DomainError(f"samples must be >= 100, got {samples}")
    if shards < 1 or shards > samples:
        raise DomainError(f"bad samples/shards: {samples}/{shards}")
    bits = n.bit_length()
    successes = 0
    # Admissibility is invariant under translation, so the offsets j in
    # [0, n) are tested in place of the values j - B.
    for rng, n_i in shard_streams(seed, samples, shards):
        if n <= 21 + 12 * m:
            sample, pool = rng.sample, range(n)
            for _ in range(n_i):
                if is_admissible(sample(pool, m)):
                    successes += 1
            continue
        getrandbits = rng.getrandbits
        for _ in range(n_i):
            picks = set()
            while len(picks) < m:
                j = getrandbits(bits)
                if j < n:
                    picks.add(j)
            if is_admissible(picks):
                successes += 1
    est = successes / samples
    se = (est * (1.0 - est) / samples) ** 0.5
    return McDensityEstimate(samples=samples, successes=successes, estimate=est, std_error=se)


@dataclass(frozen=True)
class SummandRatioReport:
    """Consecutive-term ratios of the alternating sum at (m, p)."""

    ratios: dict[int, Fraction]
    threshold: float
    all_above: bool


def summand_ratio_check(m: int, p: int) -> SummandRatioReport:
    """Ratio of term j to term j+1, for p in the small-prime regime.

    Requires m >= 3 and p <= m / log m; in that range every ratio should
    clear 2 log m, which makes the alternating sum effectively dominated
    by its first term.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if m < 3:
        raise DomainError(f"m must be >= 3, got {m}")
    if p * log(m) > m:  # p > m / log m, without a float past range at huge m
        raise DomainError(f"p={p} is above m/log m = {m / log(m):.3f}")
    j_max = min(m - 1, p - 1)
    terms = [comb(p, j) * (p - j) ** m for j in range(1, j_max + 1)]
    ratios = {j: Fraction(terms[j - 1], terms[j]) for j in range(1, j_max)}
    threshold = 2.0 * log(m)
    all_above = all(r >= threshold for r in ratios.values())
    return SummandRatioReport(ratios=ratios, threshold=threshold, all_above=all_above)
