"""Place the measuring thread on the least contended CPU it may use.

On the 2-vCPU virtual machine the benchmark was tuned on, each vCPU in
turn runs the same code up to twice as slowly for seconds at a time,
mostly not both at once.  ``move_to_fastest_cpu`` times a short probe on
each allowed CPU, moves the calling thread to the fastest one, and then
restores the full CPU set: the thread stays where it was put, while any
process the program starts later may still use every CPU.
"""

from __future__ import annotations

import os
import time

# CPUs probed per move, at most; each probe takes a few milliseconds.
MAX_PROBED = 4


def _probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def move_to_fastest_cpu() -> int | None:
    """Move the calling thread to the fastest probed CPU; returns that CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    timings = {}
    for cpu in sorted(allowed)[:MAX_PROBED]:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = _probe()
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    os.sched_setaffinity(0, allowed)
    return fastest
