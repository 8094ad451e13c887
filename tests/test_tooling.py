"""Checks on the package source itself."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
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


def test_benchmark_tuple_requests_pass_their_checks(monkeypatch):
    # The oracle-verify workload's translation and pigeonhole requests are the
    # benchmark's only direct callers of IntTuple.from_iterable, and no listed
    # workload runs them, so one seeded pass runs here through their checks.
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    import workloads

    reqs = [
        r for r in workloads.build("oracle-verify", workloads.DEFAULT_SEED, 0)
        if r.key.split()[1] in ("translation", "pigeonhole")
    ]
    assert len(reqs) == 34
    for req in reqs:
        req.check(req.call())


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


_START_UP_PROBE = """
import contextlib, io, json, sys
import tuplebounds.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check-constants"])
print(json.dumps([code, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # Records are SimpleNamespace and Command a NamedTuple: dataclasses would
    # pull in inspect, ast, dis and tokenize on every fresh process.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_PROBE], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_large_construction_and_first_k_answer_in_seconds():
    # The closed forms answer these in well under a second each; the
    # per-prime CRT fold and the gcd scan took 7 s and over 90 s.
    from tuplebounds import cli

    for argv in (["construct", "--ell", "4000", "--y", "2000"], ["first-k", "--k", "100000"]):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        assert code == 0, argv
        assert elapsed < 3.0, (argv, elapsed)


def _bound_names(node: ast.stmt) -> list[str]:
    # The names a module-level statement defines.
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def test_every_private_module_name_is_read_elsewhere():
    # A module-level _name that no other statement of the package reads
    # (its own body aside) is a helper that nothing needs.
    nodes = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    reads = [_read_names(node) for node in nodes]
    unread = [
        name
        for i, node in enumerate(nodes)
        for name in _bound_names(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert not unread, unread
