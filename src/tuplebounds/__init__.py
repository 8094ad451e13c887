"""Exact bounds and Monte Carlo checks for dense patterns in tuples of integers.

The library computes, in exact rational arithmetic, the density bounds
surrounding admissible tuples and m-rich congruence families: Mertens
products, covering constructions with their verifiers, congruence-family
upper bounds, local-lemma parameter identities, and the stochastic
statistics used to sanity-check them.
"""

from .arith import (
    GAMMA,
    exp_to_decimal,
    factorize,
    is_prime,
    mertens_product,
    primes_up_to,
    primorial,
    rational_to_json,
    to_decimal,
    totient,
)
from .density import (
    AdmissibleDensityReport,
    McDensityEstimate,
    SummandRatioReport,
    rho_adm_exact,
    rho_adm_mc,
    rho_adm_mod_p_bruteforce,
    rho_adm_mod_p_exact,
    summand_ratio_check,
)
from .errors import DomainError, RegressionFailure, ResourceLimitError, TupleBoundsError
from .plausible import (
    CongruenceUpperBound,
    DeltaChainReport,
    LLLParameters,
    PigeonholeWitness,
    TemplateValues,
    counting_power_bound,
    delta_m_chain,
    delta_upper_congruence,
    lll_parameters,
    max_q_for,
    asymptotic_template,
    verify_pigeonhole,
)
from .polignac import (
    ConstructionBundle,
    ConstructionCheck,
    EtaBounds,
    build_construction,
    delta2_lower,
    eta_bounds,
    eta_lower,
    eta_upper,
    pintz_interval_constant,
    verify_construction,
)
from .report import VERSION, BoundReport, envelope
from .stochastic import (
    ChernoffBound,
    CoprimeWindowSampler,
    SurvivalEstimate,
    TranslationClassCount,
    TupleStatistics,
    birthday_prob_exact,
    chernoff_tail_bound,
    lll_survival_experiment,
    sample_f_statistics,
    translation_class_count,
    wilson_halfwidth,
)
from .tuples import (
    IntTuple,
    SampleSpace,
    enumerate_sample_space,
    first_k_admissible,
    is_admissible,
    residue_count,
    residue_profile,
)

__version__ = VERSION

