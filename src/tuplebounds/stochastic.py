"""Monte Carlo engine plus exact oracles for the residue statistics.

Random m-subsets B of the coprime window feed two statistics:

    f(B) = prod_{m^2 < p <= k} (1 - n_p(B)/p) * (1 - 1/p)^(-m)
    X(B) = sum_{m^2 < p <= k} X_p(B)/p,  X_p = 1 iff n_p(B) < m

In the uniform-residue model (residues independent and uniform over the
p-1 nonzero classes, exact in the x -> infinity limit and exact per
prime for any whole-period window) P(X_p = 0) is the birthday product,
and E[e^{r X_p / p}] has the closed two-point form used by the Chernoff
product here.  Sampling never enumerates the window: a residue vector is
drawn per prime and combined by CRT, then placed in a uniform block.

The sampler here and ``density.rho_adm_mc`` draw their variates with
``rng.getrandbits``, making exactly the calls that ``Random._randbelow``
makes: ``getrandbits(k)`` with k = n.bit_length(), repeated while the
result is >= n.  A seed therefore gives the stream that
``Random.randrange`` and ``Random.sample`` would give, which
``tests/test_mc_streams.py`` pins against those methods.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import exp, gcd, inf, isfinite, log, perm
from types import SimpleNamespace
from typing import Collection, Iterator

from . import arith
from .errors import DomainError, ResourceLimitError
from .tuples import coprime_window, residue_profile

TRANSLATION_SCAN_BUDGET = 20_000_000
CHERNOFF_BUDGET = 10**9
SMALL_INSTANCE_K = 12


def birthday_prob_exact(m: int, p: int) -> Fraction:
    """P(all m residues distinct) = prod_{i<m} (1 - i/(p-1)); 0 when m >= p."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if p < 3 or not arith.is_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    if m >= p:
        return Fraction(0)
    # Refused before the product if its denominator could not be printed.
    # The product is (p-2)! / ((p-1-m)! (p-1)^(m-1)), so for each prime r
    # with r^e exactly dividing p - 1 its reduced denominator holds
    # r^(e(m-1) - v), v the exponent of r in (p-2)!/(p-1-m)!.  It divides
    # (p-1)^(m-1): only a bound past the limit is analysed.
    if 0 < 4 * arith.max_str_digits() < (m - 1) * (p - 1).bit_length():
        for r, e in arith.factorize(p - 1):
            # Legendre's formula: n! holds r^(n//r + n//r^2 + ...).
            v = sum((p - 2) // r**i - (p - 1 - m) // r**i for i in range(1, p.bit_length()))
            arith.check_power_digits(r, e * (m - 1) - v)
    return Fraction(perm(p - 2, m - 1), (p - 1) ** (m - 1))


class CoprimeWindowSampler:
    """Uniform draws from the coprime window without enumerating it.

    An element of (-x, x] coprime to R factors uniquely as a unit
    residue mod R plus a block offset j*R with j in [-N, N); drawing
    nonzero residues per prime and a uniform block index reproduces the
    uniform distribution on the window exactly.
    """

    def __init__(self, k: int, x: int, rng: random.Random):
        R, self.size = coprime_window(x, k)
        self.R, self.N, self.rng = R, x // R, rng
        # draw() inlines each _randbelow(n) from its (n, n.bit_length()):
        # randrange(1, p) is 1 + _randbelow(p - 1) and randrange(-N, N)
        # is -N + _randbelow(2N).  Each CRT weight is 1 mod p and 0 mod R/p.
        self._units = [
            (p - 1, (p - 1).bit_length(), R // p * pow(R // p, -1, p))
            for p in arith.primes_up_to(k)
        ]
        self._blocks = (2 * self.N, (2 * self.N).bit_length())

    def draw(self) -> int:
        R = self.R
        getrandbits = self.rng.getrandbits
        u = 0
        for n, bits, e_p in self._units:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            u += (r + 1) * e_p
        n, bits = self._blocks
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        # u is a unit mod R, so (u - 1) % R + 1 is u % R; at R = 1 it is 1, and this
        # is randrange(-x + 1, x + 1), as test_draw_matches_oracle_stream[1] pins.
        return (u - 1) % R + 1 + (r - self.N) * R

    def draw_distinct(self, m: int) -> tuple[int, ...]:
        """m distinct elements, uniform over m-subsets, sorted.

        Redraws the whole batch on a duplicate so that conditioning
        preserves subset uniformity.
        """
        if not 1 <= m <= self.size:
            raise DomainError(f"requested {m} distinct from population {self.size}")
        while True:
            batch = [self.draw() for _ in range(m)]
            if len(set(batch)) == m:
                return tuple(sorted(batch))


def shard_streams(seed: int, total: int, shards: int) -> Iterator[tuple[random.Random, int]]:
    """One ``(rng, n)`` per shard: its random stream and its share of ``total``.

    Shard i draws from a ``random.Random`` seeded with seed XOR i, and
    the first ``total % shards`` shards take one extra draw, so a run
    that merges shards by summing counts is reproducible from (seed,
    shards) alone.
    """
    base, extra = divmod(total, shards)
    for i in range(shards):
        yield random.Random(seed ^ i), base + (i < extra)


def wilson_halfwidth(successes: int, n: int) -> float:
    """Half-width of the z = 1 Wilson score interval; nonzero even at 0 hits."""
    if n < 1 or not 0 <= successes <= n:
        raise DomainError(f"bad count {successes}/{n}")
    return 1.0 / (n + 1.0) * (successes * (n - successes) / n + 0.25) ** 0.5


def _mid_primes(m: int, k: int) -> tuple[int, ...]:
    if m * m >= k:
        raise DomainError(f"need m^2 < k, got m={m}, k={k}")
    return tuple(p for p in arith.primes_up_to(k) if p > m * m)


def sample_f_statistics(
    m: int,
    k: int,
    x: int,
    samples: int,
    seed: int,
    c: float = 2.0,
    c_prime: float = 2.0,
    shards: int = 1,
) -> SimpleNamespace:
    """Empirical f(B), X(B), and per-prime zero counts over random B.

    Fields: ``f_values``, ``X_values``, ``zero_counts`` ({p: count}) and
    ``tail_estimates`` ({"f": tail, "X": tail}, each tail with fields
    ``threshold``, ``successes``, ``samples``, ``estimate``, ``std_error``).

    Thresholds: f at (log 3m)^(c*m) * (loglog k)^(m-1), X at
    loglog(r) + c_prime with r = max(m^2, m log k).  The constants c and
    c_prime have no pinned values; they parameterize the report.  A
    threshold past float range raises ResourceLimitError before any
    sampling.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if samples < 1 or not 1 <= shards <= samples:
        raise DomainError(f"bad samples/shards: {samples}/{shards}")
    primes_mid = _mid_primes(m, k)
    r = max(m * m, m * log(k))
    if r <= 1:
        raise DomainError(f"loglog(r) needs r = max(m^2, m log k) > 1, got m={m}, k={k}")
    try:
        thr_f = log(3 * m) ** (c * m) * log(log(k)) ** (m - 1)
    except OverflowError:
        thr_f = inf
    thr_x = log(log(r)) + c_prime
    if not (isfinite(thr_f) and isfinite(thr_x)):
        raise ResourceLimitError(f"tail thresholds at m={m}, k={k}, c={c} exceed float range")
    f_vals: list[float] = []
    x_vals: list[float] = []
    zero_counts: Counter[int] = Counter({p: 0 for p in primes_mid})
    # f(B) = f_scale * prod_p (p - n_p) / f_den: the factors that do not
    # depend on B are multiplied once.  int / int is correctly rounded,
    # so f_num / f_den is the float of the exact product.
    f_scale = f_den = 1
    for p in primes_mid:
        f_scale *= p ** (m - 1)
        f_den *= (p - 1) ** m
    weights = [(p, 1.0 / p) for p in primes_mid]

    for rng, n in shard_streams(seed, samples, shards):
        sampler = CoprimeWindowSampler(k, x, rng)
        for _ in range(n):
            batch = sampler.draw_distinct(m)
            f_num = f_scale
            x_stat = 0.0
            for p, inv_p in weights:
                n_p = len({b % p for b in batch})
                f_num *= p - n_p
                if n_p < m:
                    x_stat += inv_p
                else:
                    zero_counts[p] += 1
            f_vals.append(f_num / f_den)
            x_vals.append(x_stat)

    tails = {"f": _tail(f_vals, thr_f), "X": _tail(x_vals, thr_x)}
    return SimpleNamespace(
        f_values=f_vals, X_values=x_vals, zero_counts=dict(zero_counts), tail_estimates=tails
    )


def _tail(values: list[float], threshold: float) -> SimpleNamespace:
    hits = sum(1 for v in values if v > threshold)
    n = len(values)
    return SimpleNamespace(threshold=threshold, successes=hits, samples=n, estimate=hits / n,
                           std_error=wilson_halfwidth(hits, n))


def chernoff_tail_bound(m: int, k: int, r: float, s: float) -> SimpleNamespace:
    """e^(-rs) * prod_p E[e^{r X_p / p}] over m^2 < p <= k: fields
    ``moment_product``, the product, and ``tail_bound``.

    Per prime, E = P0 + (1 - P0) e^{r/p} with the exact rational
    birthday P0; only the exponential factor is float64.  An e^{r/p}, a
    product past float range, or primes times m^2 past CHERNOFF_BUDGET
    raises ResourceLimitError.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if r < 0 or s < 0:
        raise DomainError(f"need r, s >= 0, got r={r}, s={s}")
    primes = _mid_primes(m, k)
    if len(primes) * m * m > CHERNOFF_BUDGET:
        raise ResourceLimitError(f"{len(primes)} primes times m^2 exceeds {CHERNOFF_BUDGET}")
    product = 1.0
    for p in primes:
        # float(birthday_prob_exact(m, p)), p > m^2, unprinted so past the
        # int->str limit too: int / int rounds the exact quotient correctly.
        p0 = perm(p - 2, m - 1) / (p - 1) ** (m - 1)
        try:
            product *= p0 + (1.0 - p0) * exp(r / p)
        except OverflowError:
            product = inf
        if not isfinite(product):
            raise ResourceLimitError(f"moment product at r={r} exceeds float range at p={p}")
    return SimpleNamespace(moment_product=product, tail_bound=exp(-r * s) * product)


def translation_class_count(h: Collection[int], x: int, k: int) -> SimpleNamespace:
    """Count translates of h landing entirely on coprime values.

    Fields: ``exact_count``, ``crt_predicted`` and ``density_bound``.
    exact_count scans every shift in (-x, x] and tests gcd directly, up
    to len(h) gcds per shift, so the scan budget counts shifts times
    elements; crt_predicted multiplies the free residue counts p - n_p
    (n_p from :func:`residue_profile`) over one period and scales by the
    2x/R whole periods in the window.  The third value is the
    3x * prod(1 - n_p/p) comparison bound.
    """
    R, _ = coprime_window(x, k)
    if 2 * x * len(h) > TRANSLATION_SCAN_BUDGET:
        raise ResourceLimitError(
            f"scan of {arith.int_to_str(2 * x)} shifts times {len(h)} elements"
            f" exceeds budget {TRANSLATION_SCAN_BUDGET}"
        )
    exact = 0
    for shift in range(-x + 1, x + 1):
        if all(gcd(e + shift, R) == 1 for e in h):
            exact += 1
    crt = 2 * x // R
    bound = Fraction(3 * x)
    for p, n_p in residue_profile(h, k).items():
        crt *= p - n_p
        bound *= Fraction(p - n_p, p)
    return SimpleNamespace(exact_count=exact, crt_predicted=crt, density_bound=bound)


def lll_survival_experiment(
    m: int,
    k: int,
    x: int,
    trials: int,
    seed: int,
    q: int | None = None,
    shards: int = 1,
) -> SimpleNamespace:
    """Fraction of iid k-draws that are distinct and avoid m-collisions:
    fields ``survivors``, ``estimate``, ``std_error`` and ``reference``.

    The avoid-set is the single-class congruence family mod q: a draw
    fails if any residue class mod q receives m or more of its k
    elements.  With q omitted the avoid-set is empty and the estimate is
    just the all-distinct probability.  Reported next to e^(-k/(2 m^2)).
    """
    if not 2 <= m <= k:
        raise DomainError(f"need 2 <= m <= k, got m={m}, k={k}")
    if k > SMALL_INSTANCE_K:
        raise DomainError(f"small-instance experiment requires k <= {SMALL_INSTANCE_K}")
    if q is not None and q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    if trials < 1 or not 1 <= shards <= trials:
        raise DomainError(f"bad trials/shards: {trials}/{shards}")
    _, size = coprime_window(x, k)
    if size < 4 * k:
        raise DomainError(f"population {size} below 4k = {4 * k}")
    survivors = 0
    for rng, n in shard_streams(seed, trials, shards):
        sampler = CoprimeWindowSampler(k, x, rng)
        for _ in range(n):
            batch = [sampler.draw() for _ in range(k)]
            if len(set(batch)) != k:
                continue
            if q is not None and max(Counter(b % q for b in batch).values()) >= m:
                continue
            survivors += 1
    return SimpleNamespace(survivors=survivors, estimate=survivors / trials,
                           std_error=wilson_halfwidth(survivors, trials),
                           reference=exp(-k / (2.0 * m * m)))
