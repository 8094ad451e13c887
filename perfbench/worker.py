"""Run one workload in this fresh process and print its measurements.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Each pass is a fresh seeded request list (``workloads.build``):

1. pass 0 warms lazy caches.  Its outputs are also compared with the
   recorded digests when the seed is the default one, and one seeded
   request is run a second time and must repeat byte for byte;
2. timed passes follow with tracing off, at least ``MIN_PASSES`` and
   as many as end nearest to ``--seconds`` of timed work;
3. with ``--trace 1``, two untraced passes are followed by one traced
   pass that yields the per-layer metrics.

Every output of every pass is checked (strict JSON, exit code and the
request's invariants).  The last line of stdout is one JSON object for
``run.py``.

Timing: a request's latency is the best of its slot's timed repeats (a
slot holds the same kind of request, from the same parameter stratum, in
every pass).  The 2-vCPU virtual machine this was tuned on runs the same
work up to twice as slowly for seconds to minutes at a time, mostly on one
vCPU at a time.  So every ``MOVE_EVERY_S`` the thread moves to the CPU
that runs a short probe fastest (``cpu.py``), and the best repeat removes
most of what remains, where the median of a few passes does not.
``wall_s`` is the sum of the best latencies, the time to solve one
request list.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailure, strict_json
from cpu import move_to_fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

# Timed passes per run, at least; more run while --seconds is not used up.
MIN_PASSES = 3
# No new pass starts after this many seconds of timed work.
PASS_CAP_S = 90.0
TRACE_UNTRACED_PASSES = 2
# Seconds between moves of the measuring thread to the fastest CPU.
MOVE_EVERY_S = 0.5


def calibrate() -> float:
    """Time a fixed pure-Python loop, to tell machine drift from program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    return max(0, math.floor(100 - 1000 / n))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def digest(code: int | None, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


class Runner:
    def __init__(self, cli):
        self.cli = cli

    def execute(self, req) -> tuple[int | None, str, float]:
        """Run one request; returns (exit code, output text, seconds)."""
        try:
            if req.argv is not None:
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(list(req.argv))
                dt = time.perf_counter() - t0
                return code, buf.getvalue(), dt
            t0 = time.perf_counter()
            result = req.call()
            dt = time.perf_counter() - t0
            return 0, json.dumps(result, sort_keys=True), dt
        except Exception:  # a crash is a failed request, not a crashed benchmark
            return None, traceback.format_exc(), 0.0

    def check(self, req, code: int | None, text: str) -> str | None:
        """Failure message for one output, or None when it passes."""
        if code is None:
            return f"{req.key}: raised\n{text}"
        if code != 0:
            return f"{req.key}: exit code {code}, expected 0"
        try:
            req.check(strict_json(text))
        except CheckFailure as exc:
            return f"{req.key}: {exc}"
        except Exception:  # a checker tripping over a malformed output is a failed check
            return f"{req.key}: malformed output\n{traceback.format_exc(limit=2)}"
        return None

    def run_pass(self, requests):
        """Run and check one pass: (wall, latencies, outputs, failures)."""
        gc.collect()
        outputs, lats = [], []
        t0 = moved = time.perf_counter()
        move_to_fastest_cpu()
        for req in requests:
            if time.perf_counter() - moved >= MOVE_EVERY_S:
                move_to_fastest_cpu()
                moved = time.perf_counter()
            code, text, dt = self.execute(req)
            outputs.append((code, text))
            lats.append(dt)
        wall = time.perf_counter() - t0
        failures = [msg for req, (code, text) in zip(requests, outputs)
                    if (msg := self.check(req, code, text))]
        return wall, lats, outputs, failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None, help="write traced spans here")
    ap.add_argument("--record-digests", action="store_true",
                    help="store the default seed's pass-0 digests in digests.json")
    args = ap.parse_args(argv)

    import tuplebounds
    from tuplebounds import cli

    src = (ROOT / "src").resolve()
    if src not in Path(tuplebounds.__file__).resolve().parents:
        print(f"tuplebounds imported from {tuplebounds.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import DEFAULT_SEED, WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    runner = Runner(cli)
    calib = [calibrate()]

    # Pass 0: warm-up, digests, and one request run twice.
    requests = build(args.workload, args.seed, 0)
    _, _, outputs, failures = runner.run_pass(requests)
    digests = [digest(code, text) for code, text in outputs]
    attempted, failed = len(requests), len(failures)

    if args.record_digests:
        if args.seed != DEFAULT_SEED or failures:
            print("digests are recorded only for the default seed and a clean pass:",
                  *failures, sep="\n", file=sys.stderr)
            return 1
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = {r.key: d for r, d in zip(requests, digests) if r.digest}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": len(table[args.workload])}))
        return 0

    if args.seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
        for req, d in zip(requests, digests):
            if req.digest and recorded.get(req.key) != d:
                failures.append(f"{req.key}: envelope differs from the recorded digest")
                failed += 1

    i = next((i for i, r in enumerate(requests) if r.argv and "--seed" in r.argv), 0)
    code, text, _ = runner.execute(requests[i])
    attempted += 1
    if digest(code, text) != digests[i]:
        failures.append(f"{requests[i].key}: second run is not byte-identical")
        failed += 1
    del outputs, digests

    best: dict[int, float] = {}
    walls: list[float] = []

    def timed_pass(index: int):
        nonlocal attempted, failed
        reqs = build(args.workload, args.seed, index)
        wall, lats, outs, fails = runner.run_pass(reqs)
        attempted += len(reqs)
        failed += len(fails)
        failures.extend(fails)
        out_bytes = sum(len(text.encode()) for (_, text), r in zip(outs, reqs) if r.argv)
        return reqs, wall, lats, out_bytes

    cpu0 = os.times()
    while True:
        timed = sum(walls)
        if args.trace:
            if len(walls) >= TRACE_UNTRACED_PASSES:
                break
        elif len(walls) >= MIN_PASSES and timed + walls[-1] / 2 >= args.seconds:
            break  # the next pass would end nearer past --seconds than this one
        if walls and timed >= PASS_CAP_S:
            break
        reqs, wall, lats, _ = timed_pass(len(walls) + 1)
        walls.append(wall)
        for req, dt in zip(reqs, lats):
            best[req.slot] = min(dt, best.get(req.slot, math.inf))
    cpu1 = os.times()
    cpu_per_pass = (sum(cpu1[:4]) - sum(cpu0[:4])) / len(walls)

    result: dict = {"requests": len(requests), "passes": len(walls), "pass_walls_s": walls}
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            _, traced_wall, _, out_bytes = timed_pass(len(walls) + 1)
        finally:
            tracer.remove()
        metrics.update(tracer.metrics(out_bytes))
        metrics["proc.cpu_s"] = (cpu_per_pass, "s")
        metrics["trace.overhead_frac"] = (traced_wall / statistics.median(walls) - 1.0, "ratio")
        result["spans"] = len(tracer.start)
        if args.spans is not None:
            tracer.dump(args.spans)
    else:
        lats = sorted(best.values())
        pct = tail_percentile(len(lats))
        rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["wall_s"] = (sum(lats), "s")
        metrics["req_p50_ms"] = (statistics.median(lats) * 1e3, "ms")
        metrics["req_tail_ms"] = (nearest_rank(lats, pct) * 1e3, "ms")
        metrics["peak_rss_mib"] = (rss_kib / 1024, "MiB")
        result.update(tail_percentile=pct, latency_requests=len(lats),
                      best_latencies_s=lats, cpu_s_per_pass=cpu_per_pass)

    calib.append(calibrate())
    metrics["proc.calib_s"] = (statistics.fmean(calib), "s")
    result.update(
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        calib_s=calib,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
