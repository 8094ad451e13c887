"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tuplebounds"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rely on one.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_benchmark_tracer_hooks_fit_the_package():
    # The benchmark's tracer rebinds every name in its TRACED table and its
    # hooks read fields of the results; a refactor that drops one fails here.
    import importlib.util

    import tuplebounds.cli  # noqa: F401  (install needs every module loaded)
    from tuplebounds import arith, density, polignac, stochastic

    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    original = density.rho_adm_mc
    tracer = tracing.Tracer()
    tracer.install()
    try:
        est = density.rho_adm_mc(3, 100, 100)
        chk = polignac.verify_construction(polignac.build_construction(3, 1))
        stochastic.sample_f_statistics(2, 30, arith.primorial(30), 20, 0)
        metrics = tracer.metrics(0)
    finally:
        tracer.remove()
    assert metrics["density.rho_adm_mc.calls"][0] == 1
    assert metrics["polignac.verify_construction.calls"][0] == 1
    assert metrics["polignac.verify_construction.period_elements"][0] == chk.period
    assert metrics["density.rho_adm_mc.samples_per_s"][0] > 0
    # Reads 0 if draw_distinct stops calling draw() once per element.
    assert metrics["stochastic.draw_distinct.draws_per_accept"][0] >= 1
    assert est.samples == 100
    assert density.rho_adm_mc is original


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_package_module_imports_numpy():
    # The package has no runtime dependencies; numpy is a test-only oracle.
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] == "numpy"
    ]
    assert not found, found


# Runs in a fresh interpreter, since this test process may hold numpy already.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import tuplebounds.cli as cli
from tuplebounds import density

cases = json.loads(open(sys.argv[1]).read())
argvs = {}
for case in cases:
    if case["exit"] == 0:
        argvs.setdefault(case["argv"][0], case["argv"])
codes = {}
for name, argv in argvs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = cli.main(list(argv))
after_cli = "numpy" in sys.modules
oracle = str(density.rho_adm_mod_p_bruteforce(3, 2))
print(json.dumps({"codes": codes, "after_cli": after_cli, "oracle": oracle,
                  "after_oracle": "numpy" in sys.modules}))
"""


def test_numpy_is_never_loaded_by_the_package():
    # Every CLI command and the enumeration oracle answer without numpy.
    cases = Path(__file__).parent / "golden" / "cases.json"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(cases)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    from tuplebounds import cli

    assert probe["codes"] == {name: 0 for name in cli.COMMANDS}
    assert probe["after_cli"] is False
    assert probe["oracle"] == "1/4"
    assert probe["after_oracle"] is False
