"""Report envelopes and named bound values for machine-readable output.

Every rational that leaves the library is wrapped as a named bound with
numerator/denominator strings plus a decimal rendering, so downstream
consumers never have to re-derive exact values from floats.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from .arith import rational_to_json

VERSION = "0.1.0"

# Scope notes attached to report envelopes.  These mark outputs that are
# evaluation aids rather than checked bounds.
NOTE_TEMPLATES = (
    "non-normative: asymptotic templates evaluate display formulas with "
    "caller-supplied constants; the true constants are not pinned and are "
    "not reproducible at desk scale"
)
NOTE_EXISTENCE = (
    "non-normative: existence of tuples that are simultaneously prime "
    "infinitely often is treated as a black box; nothing here searches for "
    "primes, and that existence is not reproducible at desk scale"
)
NOTE_CONTINUOUS = (
    "non-normative: continuous limit points of normalized prime-gap ratios "
    "are out of scope and not reproducible at desk scale"
)
NOTE_MODEL = (
    "non-normative: Monte Carlo runs gather evidence in the uniform-residue "
    "sampling model; they do not prove tail bounds"
)


class BoundReport(SimpleNamespace):
    """A named exact value with its decimal rendering."""

    def __init__(self, name: str, value: Fraction, sig_digits: int = 12, formula: str = "",
                 detail: dict | None = None):
        super().__init__(name=name, value=value, sig_digits=sig_digits, formula=formula,
                         detail=detail or {})

    def to_json(self) -> dict:
        out = {"name": self.name}
        out.update(rational_to_json(Fraction(self.value), self.sig_digits))
        out["sig_digits"] = self.sig_digits
        if self.formula:
            out["formula"] = self.formula
        if self.detail:
            out["detail"] = self.detail
        return out


def envelope(
    command: str,
    parameters: dict,
    results: list,
    *,
    seed: int | None = None,
    shards: int | None = None,
    notes: list[str] | None = None,
) -> dict:
    """Standard report wrapper emitted by every CLI subcommand."""
    out: dict = {
        "version": VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }
    if seed is not None:
        out["seed"] = seed
    if shards is not None:
        out["shards"] = shards
    if notes:
        out["notes"] = list(notes)
    return out
