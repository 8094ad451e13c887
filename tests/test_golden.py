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


def test_every_command_has_a_golden_case():
    # Each subcommand's record shape is pinned by at least one exit-0 case.
    pinned = {c["argv"][0] for c in CASES if c["exit"] == 0}
    assert set(cli.COMMANDS) <= pinned, sorted(set(cli.COMMANDS) - pinned)


def _error(case) -> dict | None:
    # None for a case not yet recorded, so _record can add new cases.
    path = GOLDEN / f"{case['name']}.out"
    return json.loads(path.read_text()).get("error") if path.exists() else None


def test_unrecorded_case_has_no_error():
    # The recorder imports this module before it writes a new case's file.
    assert _error({"name": "no-such-case"}) is None


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
