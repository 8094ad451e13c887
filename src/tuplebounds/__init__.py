"""Exact bounds and Monte Carlo checks for dense patterns in tuples of integers.

The library computes, in exact rational arithmetic, the density bounds
surrounding admissible tuples and m-rich congruence families: Mertens
products, covering constructions with their verifiers, congruence-family
upper bounds, local-lemma parameter identities, and the stochastic
statistics used to sanity-check them.
"""

from .report import VERSION

__version__ = VERSION
