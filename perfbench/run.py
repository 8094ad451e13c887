"""tuplebounds benchmark: one workload per invocation.

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
The workload runs in a fresh worker process (``worker.py``) that imports
the package from ``src``; with ``--trace 0`` this script also times
fresh interpreters that import ``tuplebounds.cli`` and answer one
``check-constants`` (``setup_s``).

Each metric is printed by name and unit.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  ``ok_frac`` is the share of
requests whose output passed its checks; its complement ``fail_frac`` is
0 on a correct program, so it goes to the result file instead.  A fuller
record, with run information, goes to ``perfbench/results/``; traced runs
also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpu import move_to_fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Setup probes per run, half before and half after the worker so that
# they sample the machine over the whole run.
SETUP_PROBES = 4
SETUP_SNIPPET = (
    "import contextlib, io\n"
    "import tuplebounds.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(['check-constants'])\n"
    "raise SystemExit(code)\n"
)
WORKER_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 30


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(n: int) -> list[float]:
    """Wall time of ``n`` fresh interpreters that import the CLI and answer once."""
    times = []
    for _ in range(n):
        cpu = move_to_fastest_cpu()
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S, preexec_fn=pin,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    return times


def run_info() -> dict:
    files = sorted(SRC.rglob("*.py"))
    lines, sha = 0, hashlib.sha256()
    for f in files:
        data = f.read_bytes()
        lines += data.count(b"\n")
        sha.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
    commit = None  # an exported checkout has no .git; src_sha256 identifies it then
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": sha.hexdigest(),
        "src_lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # Any workload of workloads.py runs; BENCHMARK.json lists the measured ones.
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tuplebounds" / "cli.py").is_file():
        return fail(f"no package source at {SRC / 'tuplebounds'}; run from a source checkout", 2)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"spans-{args.workload}.json")]

    setup = []
    if not args.trace:
        setup_seconds(1)  # byte-compiles src; not counted
        setup += setup_seconds(SETUP_PROBES // 2)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += setup_seconds(SETUP_PROBES - len(setup))

    metrics = worker["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["ok_frac"] = {
            "value": 1.0 - worker["failed"] / worker["attempted"], "unit": "ratio"}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")

    summary = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_info": run_info(),
        "fail_frac": worker["failed"] / worker["attempted"],
        "setup_probes_s": setup,
        "worker": worker,
        "summary": summary,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in worker["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in summary["metrics"].items():
        note = ""
        if name == "req_tail_ms":
            note = f"  (p{worker['tail_percentile']} of {worker['latency_requests']} requests)"
        print(f"{name:52s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_frac':52s} {record['fail_frac']:.6g}  ({worker['failed']} of {worker['attempted']})")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
