"""Exception hierarchy shared across the package.

Two broad failure families matter to callers: a request that is
mathematically malformed (DomainError) and a request that is well formed
but too large for the configured budgets (ResourceLimitError).  The CLI
maps each class to its own exit code.
"""

from __future__ import annotations


class TupleBoundsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TupleBoundsError):
    """Parameters violate a mathematical precondition."""


class ResourceLimitError(TupleBoundsError):
    """The computation would exceed a configured size or time budget."""


class RegressionFailure(TupleBoundsError):
    """A frozen reference value no longer matches what the code computes."""
