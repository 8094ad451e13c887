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
from math import ceil, comb, exp, log

import numpy as np

from . import arith
from .errors import DomainError, RegressionFailure, ResourceLimitError
from .tuples import IntTuple, is_admissible

SEARCH_BUDGET = 10**7
# Mertens-type constant used as the default scale of the congruence
# display shape; callers may pass any value.
DEFAULT_C_LOWER = exp(-arith.GAMMA)
# Scale c of the e^(-c m^2) lower reference in delta_m_chain.
DEFAULT_C = 3.82


# Constant in the Rosser-Schoenfeld bound n/phi(n) < f(n) used by _q_cutoff;
# 2.51 exceeds the 2.50637 that their exceptional n = 223092870 needs.
_RS_CONSTANT = 2.51
# Slack on the float comparison in _q_cutoff, in log units; the float64
# error of these logs stays near 1e-12 even for 1000-digit n.
_RS_SLACK = 1e-9


def _rs_log_ratio(n: int) -> float:
    """log(n / f(n)) with f(n) = e^gamma log log n + 2.51/log log n, for n >= 3.

    Taken in logs so that integers beyond float range are handled.
    """
    L = log(log(n))
    return log(n) - log(exp(arith.GAMMA) * L + _RS_CONSTANT / L)


def _q_cutoff(m: int, k: int) -> int:
    """Search range [1, N] certain to hold every q with (m-1)*phi(q) < k.

    Rosser & Schoenfeld, Illinois J. Math. 6 (1962), Theorem 15: for
    n >= 3, n/phi(n) < e^gamma log log n + 5/(2 log log n), except for
    n = 2*3*5*7*11*13*17*19*23 = 223092870, where 5/2 must be replaced
    by 2.50637; with 2.50637 the bound holds for every n >= 3.  So with
    f(n) = e^gamma log log n + 2.51/log log n, phi(n) > n/f(n) for every
    n >= 3.

    (m-1)*phi(q) < k means phi(q) <= B = (k-1)//(m-1).  n/f(n) increases
    for n >= 3 (f >= 2*sqrt(2.51 e^gamma) > 4 while n*f'(n) < e^gamma /
    log n < 2), so once N/f(N) > B every q >= N has phi(q) > B.  N is
    the smallest such N >= 3 found by bisection, up to a float slack,
    capped by the elementary cutoff from phi(q) >= sqrt(q/2), which
    forces q < 2*(k/(m-1))^2.  This is a search range, not a stated
    bound: max_q_for still scans all of [1, N] exactly.
    """
    hi = 2 * k * k // ((m - 1) ** 2) + 1
    target = log((k - 1) // (m - 1)) + _RS_SLACK
    if _rs_log_ratio(hi) <= target:
        return hi
    lo = 3  # 3/f(3) < 1 <= B
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _rs_log_ratio(mid) > target:
            hi = mid
        else:
            lo = mid
    return hi


def max_q_for(m: int, k: int, search_budget: int = SEARCH_BUDGET) -> int:
    """Largest q with (m-1)*phi(q) < k, by certified exhaustive search.

    Scans a totient sieve over [1, _q_cutoff(m, k)]; the cutoff's
    docstring gives the Rosser-Schoenfeld certificate that no larger q
    qualifies.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if k < m:
        raise DomainError(f"k must be >= m, got k={k}, m={m}")
    cutoff = _q_cutoff(m, k)
    if cutoff > search_budget:
        raise ResourceLimitError(
            f"q-search cutoff {cutoff} exceeds budget {search_budget}"
        )
    phi = arith.totients_up_to(cutoff)
    # phi[q] = phi(q), and phi(1) = 1 <= (k-1)//(m-1), so the last hit is a q >= 1.
    return int(np.flatnonzero(phi <= (k - 1) // (m - 1))[-1])


@dataclass(frozen=True)
class CongruenceUpperBound:
    m: int
    k: int
    q: int
    density: Fraction


def delta_upper_congruence(
    m: int, k: int, search_budget: int = SEARCH_BUDGET
) -> CongruenceUpperBound:
    """Density 1/q^(m-1) of the maximal single-class congruence family."""
    q = max_q_for(m, k, search_budget)
    return CongruenceUpperBound(m=m, k=k, q=q, density=Fraction(1, q ** (m - 1)))


@dataclass(frozen=True)
class PigeonholeWitness:
    q: int
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
                q=q,
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
    return Fraction(arith.primorial_totient(k), k * arith.primorial(k)) ** m


@dataclass(frozen=True)
class LLLParameters:
    """Event counts and probabilities for the local-lemma survival bound."""

    m: int
    k: int
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
        m=m,
        k=k,
        n_events=n,
        dependency_degree=d,
        event_prob_bound=p,
        survival_exponent=expo,
        exponent_within_target=expo <= Fraction(k, 2 * m * m),
    )


@dataclass(frozen=True)
class TemplateValues:
    """Display-formula evaluations; reporting aid only, never a bound."""

    m: int
    k: int
    c_upper: float
    c_lower: float
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
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if k < 3 * m:
        raise DomainError(f"need k/m >= 3 so loglog arguments exceed 1, got k={k}, m={m}")
    general = log(2 * m) ** (c_upper * m) / ((k / m) * log(log(3 * k / m))) ** (m - 1)
    congruence = (c_lower / ((k / (m - 1)) * log(log(k / (m - 1))))) ** (m - 1)
    return TemplateValues(
        m=m, k=k, c_upper=c_upper, c_lower=c_lower,
        general_shape=general, congruence_shape=congruence,
    )


@dataclass(frozen=True)
class DeltaChainReport:
    """k_m and the congruence upper bound next to the e^(-c m^2) scale."""

    m: int
    c: float
    k_m: int | None
    congruence: CongruenceUpperBound | None
    feasible: bool
    reason: str | None
    lower_reference_decimal: str
    ordering_ok: bool | None


def delta_m_chain(
    m: int, c: float = DEFAULT_C, search_budget: int = SEARCH_BUDGET
) -> DeltaChainReport:
    """Chain k_m = ceil(e^(c*m)) (k_2 pinned to 50) into the q-search.

    The q-search is certified only when its cutoff fits the budget.  At
    the default c the Rosser-Schoenfeld cutoff fits for m <= 4 (about
    2.6e5 at m = 3 and 8.6e6 at m = 4); from m = 5 on it does not, and
    the report falls back to formula values with the reason recorded.

    At the default c, a congruence upper bound below the e^(-c m^2)
    scale contradicts the lower bound and raises RegressionFailure.  Any
    other c is the caller's choice and may break that ordering by
    itself (k_2 stays 50 whatever c is), so there the report just
    carries ordering_ok = False.  A c so small that k_m < m is a
    DomainError.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
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
    elif (cutoff := _q_cutoff(m, k_m)) > search_budget:
        reason = (
            f"q-search cutoff {cutoff} for k_m={k_m} exceeds "
            f"budget {search_budget}; formula values only"
        )
    else:
        congruence = delta_upper_congruence(m, k_m, search_budget)

    lower_decimal = arith.exp_to_decimal(-c * m * m)
    ordering_ok = None
    if congruence is not None:
        ordering_ok = float(congruence.density) >= exp(-c * m * m)
        if not ordering_ok and c == DEFAULT_C:
            raise RegressionFailure(
                f"congruence upper 1/{congruence.q}^{m - 1} fell below "
                f"the e^(-{c}*{m}^2) scale"
            )
    return DeltaChainReport(
        m=m,
        c=c,
        k_m=k_m,
        congruence=congruence,
        feasible=congruence is not None,
        reason=reason,
        lower_reference_decimal=lower_decimal,
        ordering_ok=ordering_ok,
    )
