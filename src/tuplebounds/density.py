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
from math import comb, exp, log

import numpy as np

from .arith import GAMMA, exp_to_decimal, is_prime, primes_up_to
from .errors import DomainError, ResourceLimitError
from .stochastic import shard_streams
from .tuples import is_admissible

BRUTE_FORCE_LIMIT = 10_000_000


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

    Walks all ``p**m`` residue vectors in chunks, tracking per-vector
    coverage as a bitmask, and counts the vectors that fail to cover
    every class mod p.
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
    full = (1 << p) - 1
    covering = 0
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        mask = np.zeros(idx.shape, dtype=np.int64)
        rest = idx
        for _ in range(m):
            rest, digit = np.divmod(rest, p)
            mask |= np.left_shift(np.int64(1), digit)
        covering += int(np.count_nonzero(mask == full))
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

    Shards split the samples as :func:`stochastic.shard_streams` says
    and merge by summing successes.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if 2 * range_bound + 1 < m:
        raise DomainError(f"range_bound {range_bound} cannot host {m} distinct values")
    if samples < 100:
        raise DomainError(f"samples must be >= 100, got {samples}")
    if shards < 1 or shards > samples:
        raise DomainError(f"bad samples/shards: {samples}/{shards}")
    population = range(-range_bound, range_bound + 1)
    successes = 0
    for rng, n_i in shard_streams(seed, samples, shards):
        sample = rng.sample
        for _ in range(n_i):
            if is_admissible(sample(population, m)):
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
    if p > m / log(m):
        raise DomainError(f"p={p} is above m/log m = {m / log(m):.3f}")
    j_max = min(m - 1, p - 1)
    ratios: dict[int, Fraction] = {}
    for j in range(1, j_max):
        num = comb(p, j) * (p - j) ** m
        den = comb(p, j + 1) * (p - j - 1) ** m
        ratios[j] = Fraction(num, den)
    threshold = 2.0 * log(m)
    all_above = all(r >= threshold for r in ratios.values())
    return SummandRatioReport(ratios=ratios, threshold=threshold, all_above=all_above)
