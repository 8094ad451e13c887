"""Oracles shared by the test modules."""

from math import gcd

from tuplebounds.errors import ResourceLimitError
from tuplebounds.tuples import SampleSpace

MAX_ELEMENTS = 1_000_000


def enumerate_sample_space(space: SampleSpace, budget: int = MAX_ELEMENTS) -> list[int]:
    """The window oracle: every member of ``space``, in ascending order."""
    if space.size > budget:
        raise ResourceLimitError(f"window holds {space.size} elements, budget is {budget}")
    return [n for n in range(-space.x + 1, space.x + 1) if gcd(n, space.R) == 1]
