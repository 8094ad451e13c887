"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload (those of ``BENCHMARK.json`` and the unlisted
``oracle-verify``) it runs ``run.py`` once untraced on the default seed
(so the recorded digests are compared) and twice traced, and checks:

* every metric named in ``BENCHMARK.json`` is emitted, as a number;
* ``correct`` holds and ``fail_frac`` is 0;
* the two traced runs give identical per-layer counts (``.calls``,
  ``vectors``, ``period_elements``, ``shifts``, ...);
* each result file records the run information.

It also checks that ``run.py`` refuses, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Takes a few minutes; stops with an error at the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Runnable by run.py but left out of BENCHMARK.json (see workloads.py).
UNLISTED = ("oracle-verify",)
RUN_INFO = {"nproc", "python", "numpy", "platform", "git_commit", "src_lines"}
# Per-layer metrics that are counts and must repeat exactly.
COUNT_SUFFIXES = (".calls", ".max_n", ".input_digits", ".totients_per_call", ".vectors",
                  ".period_elements", ".shifts", ".draws_per_accept", ".output_bytes")


class SelfCheckError(Exception):
    """The benchmark broke one of its own guarantees."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfCheckError(message)


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess, label: str) -> dict:
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(line)}")
    expect(line["correct"] is True and line["failed"] == 0, f"{label}: failures\n{proc.stderr}")
    return line


def check_metrics(line: dict, declared: list[dict], label: str) -> None:
    for spec in declared:
        m = line["metrics"].get(spec["name"])
        expect(m is not None, f"{label}: {spec['name']} not emitted")
        expect(m["unit"] == spec["unit"], f"{label}: {spec['name']} unit {m['unit']}")
        expect(isinstance(m["value"], (int, float)), f"{label}: {spec['name']} not a number")
    expect(len(line["metrics"]) == len(declared), f"{label}: extra metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [w["name"] for w in spec["workloads"]] + list(UNLISTED):
        line = result_line(run(name, 0), f"{name} untraced")
        check_metrics(line, spec["end_to_end"], name)
        expect(line["metrics"]["ok_frac"]["value"] == 1.0, f"{name}: ok_frac below 1")
        record = json.loads((HERE / "results" / f"{name}-seed0-trace0.json").read_text())
        expect(record["fail_frac"] == 0, f"{name}: fail_frac {record['fail_frac']}")
        expect(RUN_INFO <= set(record["run_info"]), f"{name}: run info incomplete")

        traced = [result_line(run(name, 1, seed=1), f"{name} traced") for _ in range(2)]
        for t in traced:
            check_metrics(t, spec["per_layer"], f"{name} traced")
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for t in traced]
        expect(counts[0] == counts[1], f"{name}: traced counts differ between runs")
        print(f"selfcheck {name}: ok ({len(counts[0])} counts repeat exactly)")

    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py succeeded without src/")
    print("selfcheck bare checkout: refused as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
