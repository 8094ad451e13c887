"""Span tracer for the benchmark's traced run.

``Tracer.install`` rebinds every listed public function in each
``tuplebounds`` module namespace that holds it (several modules import
names directly, e.g. ``from .arith import primes_up_to``), and methods on
their classes.  Each call records a span: name, start, end and the span
that was open when it started.  Spans stay in flat in-memory arrays until
the run ends; ``remove`` restores the original bindings.

Spans are allocated in start order, so a parent's index is always below
its children's.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from math import log10
from pathlib import Path

import numpy as np

# Public functions traced per module.  A "Class.method" entry wraps the
# method on the class, which every holder of the class shares.
TRACED = {
    "arith": ("primes_up_to", "totient", "factorize", "mertens_product", "is_prime",
              "primorial", "to_decimal"),
    "plausible": ("max_q_for", "counting_power_bound", "lll_parameters", "delta_m_chain",
                  "verify_pigeonhole"),
    "polignac": ("eta_bounds", "eta_upper", "delta2_lower", "build_construction",
                 "verify_construction"),
    "density": ("rho_adm_exact", "rho_adm_mod_p_exact", "rho_adm_mod_p_bruteforce",
                "rho_adm_mc", "summand_ratio_check"),
    "tuples": ("is_admissible", "IntTuple.from_iterable", "first_k_admissible"),
    "stochastic": ("CoprimeWindowSampler.draw", "CoprimeWindowSampler.draw_distinct",
                   "sample_f_statistics", "lll_survival_experiment",
                   "translation_class_count", "chernoff_tail_bound", "birthday_prob_exact"),
    "report": ("BoundReport.to_json", "envelope"),
    "cli": ("main",),
}

# Named counters on top of .calls and .self_s, with their units.
COUNTERS = {
    "arith.primes_up_to.max_n": "count",
    "arith.to_decimal.input_digits": "digits",
    "plausible.max_q_for.totients_per_call": "count/call",
    "polignac.verify_construction.period_elements": "count",
    "polignac.verify_construction.elements_per_s": "1/s",
    "density.rho_adm_mod_p_bruteforce.vectors": "count",
    "density.rho_adm_mod_p_bruteforce.vectors_per_s": "1/s",
    "density.rho_adm_mc.samples_per_s": "1/s",
    "stochastic.draw_distinct.draws_per_accept": "ratio",
    "stochastic.translation_class_count.shifts": "count",
    "cli.main.output_bytes": "bytes",
}

_LOG10_2 = log10(2)


def _digits(n: int) -> int:
    return int(abs(n).bit_length() * _LOG10_2) + 1


def span_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in TRACED.items() for qual in quals]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.tally = {
            "primes_max_n": 0,
            "decimal_digits": 0,
            "vectors": 0,
            "period_elements": 0,
            "mc_samples": 0,
            "accepted_elements": 0,
            "shifts": 0,
        }

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        t = self.tally

        def primes_up_to(args, result):
            if args[0] > t["primes_max_n"]:
                t["primes_max_n"] = args[0]

        def to_decimal(args, result):
            x = args[0]
            t["decimal_digits"] += _digits(x.numerator) + _digits(x.denominator)

        def bruteforce(args, result):
            t["vectors"] += args[1] ** args[0]

        def verify_construction(args, result):
            t["period_elements"] += result.period

        def rho_adm_mc(args, result):
            t["mc_samples"] += result.samples

        def draw_distinct(args, result):
            t["accepted_elements"] += len(result)

        def translation(args, result):
            t["shifts"] += 2 * args[1]

        return {
            "arith.primes_up_to": primes_up_to,
            "arith.to_decimal": to_decimal,
            "density.rho_adm_mod_p_bruteforce": bruteforce,
            "density.rho_adm_mc": rho_adm_mc,
            "polignac.verify_construction": verify_construction,
            "stochastic.CoprimeWindowSampler.draw_distinct": draw_distinct,
            "stochastic.translation_class_count": translation,
        }

    def install(self) -> None:
        """Rebind every traced name; call ``remove`` to undo."""
        hooks = self._hooks()
        pkg = [m for name, m in sys.modules.items()
               if name == "tuplebounds" or name.startswith("tuplebounds.")]
        for mod_name, quals in TRACED.items():
            mod = sys.modules[f"tuplebounds.{mod_name}"]
            for qual in quals:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
                    else:
                        new = self._wrap(name, raw, hooks.get(name))
                    self._rebind(cls, meth, new)
                    continue
                fn = getattr(mod, qual)
                wrapped = self._wrap(name, fn, hooks.get(name))
                for holder in pkg:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, attr, wrapped)

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def _columns(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return name_id, parent, dur

    def metrics(self, output_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time per name, then counters."""
        name_id, parent, dur = self._columns()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_total = np.bincount(name_id, weights=self_ns, minlength=k)
        incl_total = np.bincount(name_id, weights=dur, minlength=k)
        ids = {name: i for i, name in enumerate(self.names)}

        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            out[f"{name}.calls"] = (int(calls[ids[name]]), "count")
            out[f"{name}.self_s"] = (float(self_total[ids[name]]) / 1e9, "s")

        def child_calls(child_name: str, parent_name: str) -> int:
            parents = parent[name_id == ids[child_name]]
            parents = parents[parents >= 0]
            return int(np.count_nonzero(name_id[parents] == ids[parent_name]))

        def rate(count: float, name: str) -> float:
            seconds = float(incl_total[ids[name]]) / 1e9
            return count / seconds if seconds > 0 else 0.0

        t = self.tally
        q_calls = int(calls[ids["plausible.max_q_for"]])
        draws = child_calls("stochastic.CoprimeWindowSampler.draw",
                            "stochastic.CoprimeWindowSampler.draw_distinct")
        values = {
            "arith.primes_up_to.max_n": t["primes_max_n"],
            "arith.to_decimal.input_digits": t["decimal_digits"],
            "plausible.max_q_for.totients_per_call": (
                child_calls("arith.totient", "plausible.max_q_for") / q_calls if q_calls else 0.0),
            "polignac.verify_construction.period_elements": t["period_elements"],
            "polignac.verify_construction.elements_per_s": rate(
                t["period_elements"], "polignac.verify_construction"),
            "density.rho_adm_mod_p_bruteforce.vectors": t["vectors"],
            "density.rho_adm_mod_p_bruteforce.vectors_per_s": rate(
                t["vectors"], "density.rho_adm_mod_p_bruteforce"),
            "density.rho_adm_mc.samples_per_s": rate(t["mc_samples"], "density.rho_adm_mc"),
            # draw() calls per element of an accepted batch: 1.0 means no redraws.
            "stochastic.draw_distinct.draws_per_accept": (
                draws / t["accepted_elements"] if t["accepted_elements"] else 0.0),
            "stochastic.translation_class_count.shifts": t["shifts"],
            "cli.main.output_bytes": output_bytes,
        }
        for name, unit in COUNTERS.items():
            out[name] = (values[name], unit)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header plus one flat binary file."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name_id", "int32"], ["parent", "int32"],
                        ["start_ns", "int64"], ["end_ns", "int64"]],
            "data": path.with_suffix(".bin").name,
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
