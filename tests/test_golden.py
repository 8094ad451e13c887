"""Golden envelopes: the exact stdout bytes and exit code of every CLI case.

Each case in ``golden/cases.json`` names an argv; ``golden/<name>.out``
holds the stdout that ``cli.main(argv)`` printed when it was recorded,
and the manifest its exit code.  Any byte change fails.  After a
deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py [name ...]

and name each changed case in the change description.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tuplebounds import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _run(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return out.getvalue(), code


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_envelope(case):
    stdout, code = _run(case["argv"])
    assert code == case["exit"]
    assert stdout == (GOLDEN / f"{case['name']}.out").read_text()


def _error(case) -> dict | None:
    return json.loads((GOLDEN / f"{case['name']}.out").read_text()).get("error")


@pytest.mark.parametrize("case", [c for c in CASES if _error(c)], ids=lambda c: c["name"])
def test_golden_error_is_one_family(case):
    # One error class per exit code: the type names a family of cli._FAILURES,
    # and the envelope's kind and exit code are that family's.
    error = _error(case)
    assert error["type"] in ("DomainError", "ResourceLimitError", "RegressionFailure")
    families = {cls.__name__: family for cls, family in cli._FAILURES.items()}
    assert (error["kind"], case["exit"]) == families[error["type"]]


def _record(names: list[str]) -> None:
    for case in CASES:
        if names and case["name"] not in names:
            continue
        stdout, code = _run(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_text(stdout)
        case["exit"] = code
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n")


if __name__ == "__main__":
    _record(sys.argv[1:])
