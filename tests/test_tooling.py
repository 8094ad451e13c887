"""Checks on the package source itself."""

import ast
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
