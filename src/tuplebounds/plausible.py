"""Two-sided machinery for the density of m-rich congruence families.

Upper bounds come from an explicit congruence family: pick q as large as
possible with (m-1)*phi(q) < k, and the set of m-tuples sharing a single
residue class mod q has density 1/q^(m-1) while still meeting every
admissible k-tuple (pigeonhole over at most phi(q) occupied classes).
Lower-bound material is parameter arithmetic only: the counting bound
(phi(R)/(k R))^m and the local-lemma quantities n, d, p with their
survival exponent.  Asymptotic display formulas are evaluated with
caller-supplied constants and never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, comb, exp, inf, isfinite, isqrt, log

from . import arith
from .errors import DomainError, RegressionFailure, ResourceLimitError
from .tuples import IntTuple, is_admissible

# Mertens-type constant used as the default scale of the congruence
# display shape; callers may pass any value.
DEFAULT_C_LOWER = exp(-arith.GAMMA)
# Scale c of the e^(-c m^2) lower reference in delta_m_chain.
DEFAULT_C = 3.82


def max_q_for(m: int, k: int) -> int:
    """Largest q with (m-1)*phi(q) < k, by exact search over factorizations.

    (m-1)*phi(q) < k means phi(q) <= B = (k-1)//(m-1).  The search walks
    the primes P_0 = 2 < P_1 < ... of primes_up_to(S), S = isqrt(B) + 1,
    depth first in ascending order, with exponents.  A node n settles
    every prime below P_j; its completions are q = n*t with the primes of
    t all >= P_j and phi(t) <= R = B // phi(n), as phi is multiplicative.

    Leaf.  If p < p' are primes of t, phi(t) >= (p-1)(p'-1) >= p(p-1),
    and so is phi(t) when p^2 divides t.  So if the least prime p of t
    has p(p-1) > R, t = p with p <= R+1, and the best such t is the
    largest prime in [P_j, R+1]: is_prime scans down from R+1 and stops
    once n*p <= best, the best q so far.  Only primes with p(p-1) <= R
    branch, as p^e with phi(p^e) <= R; p(p-1) <= B forces p <= S.

    Prune.  Let every prime of t be >= P_i; the r-th least of those in
    the sieve is then >= P_(i+r-1).  As p/(p-1) falls in p, t/phi(t) <=
    num/den = prod P/(P-1) over consecutive P from P_i while den = prod
    (P-1) <= R, since prod (p-1) over the primes of t is at most phi(t)
    <= R.  Two primes of t past S would give phi(t) >= S(S+1) > B, so at
    most one is, with p/(p-1) <= (S+1)/S: a factor the run takes when it
    reaches the end of the sieve.  So q = n*phi(t)*t/phi(t) <= n*R*num/den,
    and once n*R*num <= best*den no completion whose primes are all
    >= P_i beats best, and the walk over i stops.

    All of it is integer arithmetic.  is_prime reads the same sieve,
    which decides every leaf candidate up to B+1; past the sieve cap,
    primes_up_to(S) raises ResourceLimitError at once.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if k < m:
        raise DomainError(f"k must be >= m, got k={k}, m={m}")
    B = (k - 1) // (m - 1)
    S = isqrt(B) + 1
    primes = arith.primes_up_to(S)
    best = 1

    def ratio_bound(i: int, R: int) -> tuple[int, int]:
        num = den = 1
        for p in islice(primes, i, None):
            if den * (p - 1) > R:
                return num, den
            num, den = num * p, den * (p - 1)
        return num * (S + 1), den * S

    def visit(n: int, phi: int, j: int) -> None:
        nonlocal best
        R = B // phi
        best = max(best, n)
        for c in range(R + 1, max(best // n, primes[j - 1] if j else 1), -1):
            if arith.is_prime(c):
                best = n * c
                break
        for i in range(j, len(primes)):
            p = primes[i]
            if p * (p - 1) > R:
                return
            num, den = ratio_bound(i, R)
            if n * R * num <= best * den:
                return
            pe, phi_pe = p, p - 1
            while phi_pe <= R:
                visit(n * pe, phi * phi_pe, i + 1)
                pe, phi_pe = pe * p, phi_pe * p

    visit(1, 1, 0)
    return best


@dataclass(frozen=True)
class CongruenceUpperBound:
    q: int
    density: Fraction


def delta_upper_congruence(m: int, k: int) -> CongruenceUpperBound:
    """Density 1/q^(m-1) of the maximal single-class congruence family."""
    q = max_q_for(m, k)
    return CongruenceUpperBound(q=q, density=Fraction(1, q ** (m - 1)))


@dataclass(frozen=True)
class PigeonholeWitness:
    phi_q: int
    classes_occupied: int
    residue: int
    members: tuple[int, ...]


def verify_pigeonhole(m: int, k: int, q: int, tup: IntTuple) -> PigeonholeWitness:
    """Extract m elements of an admissible k-tuple congruent mod q.

    The tuple occupies at most phi(q) classes mod q (admissibility gives
    n_p <= p-1 for each prime p of q, and classes multiply across the
    factorization), so (m-1)*phi(q) < k forces an m-element class.  A
    missing witness is impossible; hitting that branch means a bug.
    """
    if len(tup) != k:
        raise DomainError(f"tuple length {len(tup)} != k={k}")
    if not is_admissible(tup):
        raise DomainError("tuple is not admissible")
    phi_q = arith.totient(q)
    if (m - 1) * phi_q >= k:
        raise DomainError(f"need (m-1)*phi(q) < k, got {(m - 1) * phi_q} >= {k}")
    buckets: dict[int, list[int]] = {}
    for e in tup:
        buckets.setdefault(e % q, []).append(e)
    if len(buckets) > phi_q:
        raise RegressionFailure(f"{len(buckets)} classes mod {q} exceeds phi={phi_q}")
    for residue, members in buckets.items():
        if len(members) >= m:
            return PigeonholeWitness(
                phi_q=phi_q,
                classes_occupied=len(buckets),
                residue=residue,
                members=tuple(sorted(members)[:m]),
            )
    raise RegressionFailure(f"no class mod {q} holds {m} elements although (m-1)*phi(q) < k")


def counting_power_bound(m: int, k: int) -> Fraction:
    """Exact (phi(R)/(k*R))^m with R the primorial of k."""
    if m < 1 or k < m:
        raise DomainError(f"need k >= m >= 1, got m={m}, k={k}")
    return (arith.mertens_product(k) / k) ** m


@dataclass(frozen=True)
class LLLParameters:
    """Event counts and probabilities for the local-lemma survival bound."""

    n_events: int
    dependency_degree: int
    event_prob_bound: Fraction
    survival_exponent: Fraction
    exponent_within_target: bool


def lll_parameters(m: int, k: int) -> LLLParameters:
    """n = C(k,2)+C(k,m), d = 2m*C(k-1,m-1), p = 1/(4d); reports 2pn."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if k < m:
        raise DomainError(f"k must be >= m, got k={k}, m={m}")
    n = comb(k, 2) + comb(k, m)
    d = 2 * m * comb(k - 1, m - 1)
    p = Fraction(1, 4 * d)
    expo = 2 * p * n
    return LLLParameters(
        n_events=n,
        dependency_degree=d,
        event_prob_bound=p,
        survival_exponent=expo,
        exponent_within_target=expo <= Fraction(k, 2 * m * m),
    )


@dataclass(frozen=True)
class TemplateValues:
    """Display-formula evaluations; reporting aid only, never a bound."""

    general_shape: float
    congruence_shape: float


def asymptotic_template(
    m: int,
    k: int,
    c_upper: float = 1.0,
    c_lower: float = DEFAULT_C_LOWER,
) -> TemplateValues:
    """Evaluate the two asymptotic shapes with supplied constants.

    general_shape = (log 2m)^(c_upper*m) / ((k/m) loglog(3k/m))^(m-1);
    congruence_shape = (c_lower / ((k/(m-1)) loglog(k/(m-1))))^(m-1).
    A power or quotient past float range raises ResourceLimitError.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if k < 3 * m:
        raise DomainError(f"need k/m >= 3 so loglog arguments exceed 1, got k={k}, m={m}")
    try:
        general = log(2 * m) ** (c_upper * m) / ((k / m) * log(log(3 * k / m))) ** (m - 1)
        congruence = (c_lower / ((k / (m - 1)) * log(log(k / (m - 1))))) ** (m - 1)
    except OverflowError:
        raise ResourceLimitError(f"template shapes at m={m}, k={k} exceed float range") from None
    return TemplateValues(general_shape=general, congruence_shape=congruence)


@dataclass(frozen=True)
class DeltaChainReport:
    """k_m and the congruence upper bound next to the e^(-c m^2) scale."""

    k_m: int | None
    congruence: CongruenceUpperBound | None
    feasible: bool
    reason: str | None
    lower_reference_decimal: str
    ordering_ok: bool | None


def delta_m_chain(m: int, c: float = DEFAULT_C) -> DeltaChainReport:
    """Chain k_m = ceil(e^(c*m)) (k_2 pinned to 50) into the q-search.

    At the default c the q-search is certified for m <= 8; from m = 9 on
    its sieve passes the cap, and the report falls back to formula values
    with the refusal as its reason.  A -c*m^2 past float range raises
    ResourceLimitError.

    At the default c, a congruence upper bound below the e^(-c m^2)
    scale contradicts the lower bound and raises RegressionFailure.  Any
    other c is the caller's choice and may break that ordering by
    itself (k_2 stays 50 whatever c is), so there the report just
    carries ordering_ok = False.  A c so small that k_m < m is a
    DomainError.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    try:
        t = -c * m * m
    except OverflowError:  # m itself is past float range
        t = inf
    if not isfinite(t):
        raise ResourceLimitError(f"-c*m^2 at c={c}, m={m} exceeds float range")
    if m == 2:
        k_m: int | None = 50
    elif c * m < 700:
        k_m = ceil(exp(c * m))
    else:
        k_m = None
    if k_m is not None and k_m < m:
        raise DomainError(f"k_m = ceil(e^({c}*{m})) = {k_m} is below m = {m}")

    congruence = None
    reason = None
    if k_m is None:
        reason = f"k_m = ceil(e^({c}*{m})) overflows evaluation"
    else:
        try:
            congruence = delta_upper_congruence(m, k_m)
        except ResourceLimitError as exc:
            reason = f"{exc}; formula values only"

    lower_decimal = arith.exp_to_decimal(t)
    ordering_ok = None
    if congruence is not None:
        ordering_ok = float(congruence.density) >= exp(t)
        if not ordering_ok and c == DEFAULT_C:
            raise RegressionFailure(
                f"congruence upper 1/{congruence.q}^{m - 1} fell below "
                f"the e^(-{c}*{m}^2) scale"
            )
    return DeltaChainReport(
        k_m=k_m,
        congruence=congruence,
        feasible=congruence is not None,
        reason=reason,
        lower_reference_decimal=lower_decimal,
        ordering_ok=ordering_ok,
    )
