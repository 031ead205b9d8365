"""Per-layer tracing from outside the package.

The tracer wraps public functions of the package's modules.  A wrapper
replaces the function in its home module and in every package module that
imported the name, and is removed again afterwards.  Functions at layer
boundaries get spans (name, start, end, parent span, op id, sizes); the small
hot primitives of ``morphism`` and ``words`` only get call counts, which keeps
memory bounded when they run millions of times.  Everything is held in
memory until the run writes it out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "shiftmeasure"

SPANNED = {
    "cli": ("main",),
    "textio": ("parse_morphism", "parse_measure", "render_measure"),
    "transfer": ("transfer_table", "transfer_eval"),
    "measure": ("validate",),
    "language": ("full_shift_language",),
    "diagnostics": ("check_period_preservation", "check_periodic_orbit_injectivity"),
}
COUNTED = {
    "morphism": ("apply", "essential_occurrences"),
    "words": ("factors", "min_rotation", "is_proper_power", "primitive_root"),
}
# Sizes a span records from its positional arguments and its result.
SIZES = {
    "textio.parse_measure": lambda args, r: {"entries": len(r.values)},
    "textio.render_measure": lambda args, r: {"entries": len(args[0].values)},
    "transfer.transfer_table": lambda args, r: {
        "in_support": len(args[1].values), "out_support": len(r.values)},
    "measure.validate": lambda args, r: {"violations": len(r)},
    "language.full_shift_language": lambda args, r: {"words": len(r.words)},
    "diagnostics.check_period_preservation":
        lambda args, r: {"certificates": len(r.certificates)},
    "diagnostics.check_periodic_orbit_injectivity":
        lambda args, r: {"certificates": len(r.certificates)},
}

# Reported per-layer metrics: name -> unit.  Each is the median over traced
# ops of the per-op total; a layer the workload never reaches reads 0.
METRICS = {
    "cli.main.self_ms": "ms",
    "textio.parse_morphism.self_ms": "ms",
    "textio.parse_measure.self_ms": "ms",
    "textio.parse_measure.entries": "count",
    "textio.render_measure.self_ms": "ms",
    "textio.render_measure.entries": "count",
    "transfer.transfer_table.self_ms": "ms",
    "transfer.transfer_table.in_support": "count",
    "transfer.transfer_table.out_support": "count",
    "transfer.transfer_table.hit_ratio": "ratio",
    "transfer.transfer_eval.calls": "count",
    "transfer.transfer_eval.self_ms": "ms",
    "morphism.apply.calls": "count",
    "morphism.essential_occurrences.calls": "count",
    "words.factors.calls": "count",
    "words.min_rotation.calls": "count",
    "words.is_proper_power.calls": "count",
    "words.primitive_root.calls": "count",
    "measure.validate.self_ms": "ms",
    "measure.validate.violations": "count",
    "language.full_shift_language.self_ms": "ms",
    "language.full_shift_language.words": "count",
    "diagnostics.check_period_preservation.self_ms": "ms",
    "diagnostics.check_periodic_orbit_injectivity.self_ms": "ms",
    "diagnostics.certificates": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op, sizes]
        self.counts: list[Counter] = []  # call counts, one Counter per op
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin_op(self) -> None:
        self.counts.append(Counter())

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for table, wrap in ((SPANNED, self._span), (COUNTED, self._count)):
            for module, names in table.items():
                home = sys.modules[f"{PACKAGE}.{module}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = wrap(f"{module}.{name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patched.append((m, attr, original))
                                setattr(m, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def _span(self, name, fn):
        spans, stack, sizes, counts = self.spans, self._stack, SIZES.get(name), self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, len(counts) - 1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if sizes is not None:
                record[5] = sizes(args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[-1][name] += 1
            return fn(*args, **kwargs)

        return counted

    def per_op(self) -> list[dict]:
        """Per-op totals: self_ms and calls per span name, recorded sizes,
        and call counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        ops = [defaultdict(float) for _ in self.counts]
        for i, (name, start, end, parent, op, sizes) in enumerate(self.spans):
            totals = ops[op]
            totals[f"{name}.self_ms"] += (end - start - covered[i]) * 1000
            totals[f"{name}.calls"] += 1
            for key, value in (sizes or {}).items():
                totals[f"{name}.{key}"] += value
            if name == "transfer.transfer_eval" and parent >= 0 \
                    and self.spans[parent][0] == "transfer.transfer_table":
                totals["transfer.transfer_table.evals"] += 1
        for totals, counts in zip(ops, self.counts):
            for name, n in counts.items():
                totals[f"{name}.calls"] += n
            totals["diagnostics.certificates"] = (
                totals["diagnostics.check_period_preservation.certificates"]
                + totals["diagnostics.check_periodic_orbit_injectivity.certificates"])
            if totals["transfer.transfer_table.evals"]:
                totals["transfer.transfer_table.hit_ratio"] = (
                    totals["transfer.transfer_table.out_support"]
                    / totals["transfer.transfer_table.evals"])
        return ops

    def metrics(self) -> dict:
        ops = self.per_op()
        out = {}
        for name in METRICS:
            if name == "transfer.transfer_table.hit_ratio":
                values = [totals[name] for totals in ops if name in totals]
            else:
                values = [totals.get(name, 0.0) for totals in ops]
            out[name] = statistics.median(values) if values else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, sizes in self.spans:
                record = {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps({**record, **(sizes or {})}) + "\n")
            for op, counts in enumerate(self.counts):
                handle.write(json.dumps({"op": op, "counts": dict(counts)}) + "\n")
