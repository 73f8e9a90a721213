"""Per-layer tracing of the ced modules, installed from the benchmark's side.

`Tracer.install` replaces each public function named in TARGETS by a wrapper,
in every ced module that bound the function: `ced.decision.below_witness` is
the same object as `ced.contfrac.below_witness`, and a call through either name
must be seen.  `Tracer.uninstall` puts the originals back, so untraced
operations run the program exactly as shipped.  A target the program no longer
has is skipped and its metrics read 0.

Span functions record one span per call: name, start, end, parent span and the
operation it belongs to.  Leaf functions called tens of thousands of times per
run (`weight_b`, `trial_rng`, `line_trial`, `tree_trial`) only add to a count
and a total, which is charged to the enclosing span as covered time.  A
function's self time is its spans' durations minus the time their child spans
and leaf calls cover; counter bookkeeping is covered time too, so it lands in
no layer's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Optional

SPAN = "span"
LEAF = "leaf"


def _arg(args, kwargs, index: int, name: str, default=0):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _main_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("cli.main.failed", out != 0)


def _decide_counts(t: "Tracer", args, kwargs, out) -> None:
    m = getattr(out, "m_reached", 0)
    t.add("decision.decide.m_reached_sum", m)
    t.max("decision.decide.m_reached_max", m)
    t.add("decision.decide.undecided", getattr(getattr(out, "verdict", None), "value", "") == "undecided")


def _witness_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("contfrac.below_witness.hits", out is not None)


def _km_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("contfrac.km_good.good", out is True)


def _eval_counts(t: "Tracer", args, kwargs, out) -> None:
    partials = getattr(out, "partials", ())
    t.add("contfrac.eval_finite.levels", sum(v is not None for v in partials))
    t.max("contfrac.eval_finite.entry_bits_max", max(map(_bits, _arg(args, kwargs, 0, "entries", ())), default=0))


def _sequence_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("catalan.weighted_catalan_sequence.cells", dp_cells(_arg(args, kwargs, 1, "k_max")))
    t.max("catalan.weighted_catalan_sequence.value_bits_max", max(map(_bits, out), default=0))


def _line_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("simulate.line.trials", _arg(args, kwargs, 1, "n_trials"))


def _tree_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("simulate.tree.trials", _arg(args, kwargs, 2, "n_trials"))


def _tree_trial_counts(t: "Tracer", args, kwargs, out) -> None:
    t.add("simulate.tree_trial.blue_vertices", getattr(out, "blue_count", 0))


#: (module, attribute, mode, counter callback)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("ced.cli", "main", SPAN, _main_counts),
    ("ced.decision", "critical_rho", SPAN, None),
    ("ced.decision", "decide", SPAN, _decide_counts),
    ("ced.contfrac", "below_witness", SPAN, _witness_counts),
    ("ced.contfrac", "km_good", SPAN, _km_counts),
    ("ced.contfrac", "eval_finite", SPAN, _eval_counts),
    ("ced.contfrac", "psi_bounds", SPAN, None),
    ("ced.params", "weight_b", LEAF, None),
    ("ced.params", "weight_u", SPAN, None),
    ("ced.params", "weight_v", SPAN, None),
    ("ced.params", "window_position", SPAN, None),
    ("ced.params", "sqrt_enclosure", SPAN, None),
    ("ced.params", "growth_bounds", SPAN, None),
    ("ced.catalan", "WeightTable.build", SPAN, None),
    ("ced.catalan", "weighted_catalan_sequence", SPAN, _sequence_counts),
    ("ced.catalan", "partial_series", SPAN, None),
    ("ced.simulate", "simulate_line", SPAN, _line_counts),
    ("ced.simulate", "trial_rng", LEAF, None),
    ("ced.simulate", "line_trial", LEAF, None),
    ("ced.simulate", "simulate_tree", SPAN, _tree_counts),
    ("ced.simulate", "tree_trial", LEAF, _tree_trial_counts),
    ("ced.simulate", "compare_renewals", SPAN, None),
)

#: Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER: dict[str, str] = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.failed": "count",
    "cli.stdout_bytes": "bytes",
    "decision.critical_rho.calls": "count",
    "decision.critical_rho.self_s": "s",
    "decision.decide.calls": "count",
    "decision.decide.self_s": "s",
    "decision.decide.m_reached_sum": "count",
    "decision.decide.m_reached_max": "count",
    "decision.decide.undecided": "count",
    "contfrac.below_witness.calls": "count",
    "contfrac.below_witness.self_s": "s",
    "contfrac.below_witness.hits": "count",
    "contfrac.km_good.calls": "count",
    "contfrac.km_good.self_s": "s",
    "contfrac.km_good.good": "count",
    "contfrac.eval_finite.calls": "count",
    "contfrac.eval_finite.self_s": "s",
    "contfrac.eval_finite.levels": "count",
    "contfrac.eval_finite.entry_bits_max": "bits",
    "contfrac.psi_bounds.calls": "count",
    "contfrac.psi_bounds.self_s": "s",
    "params.weight_b.calls": "count",
    "params.weight_b.self_s": "s",
    "params.weight_u.calls": "count",
    "params.weight_u.self_s": "s",
    "params.weight_v.calls": "count",
    "params.weight_v.self_s": "s",
    "params.window_position.calls": "count",
    "params.window_position.self_s": "s",
    "params.sqrt_enclosure.calls": "count",
    "params.sqrt_enclosure.self_s": "s",
    "params.growth_bounds.self_s": "s",
    "catalan.WeightTable.build.self_s": "s",
    "catalan.weighted_catalan_sequence.calls": "count",
    "catalan.weighted_catalan_sequence.self_s": "s",
    "catalan.weighted_catalan_sequence.cells": "count",
    "catalan.weighted_catalan_sequence.value_bits_max": "bits",
    "catalan.partial_series.calls": "count",
    "catalan.partial_series.self_s": "s",
    "simulate.simulate_line.calls": "count",
    "simulate.simulate_line.self_s": "s",
    "simulate.trial_rng.calls": "count",
    "simulate.trial_rng.self_s": "s",
    "simulate.line_trial.calls": "count",
    "simulate.line_trial.self_s": "s",
    "simulate.simulate_tree.calls": "count",
    "simulate.simulate_tree.self_s": "s",
    "simulate.tree_trial.calls": "count",
    "simulate.tree_trial.self_s": "s",
    "simulate.tree_trial.blue_vertices": "count",
    "simulate.compare_renewals.self_s": "s",
    "simulate.line.trials_per_s": "1/s",
    "simulate.tree.trials_per_s": "1/s",
    "trace.overhead": "ratio",
}


def dp_cells(k_max: int) -> int:
    """(step, height) cells the exact Catalan DP visits for k_max, computed from its shape."""
    cells, width = 0, 1
    for t in range(1, 2 * k_max + 1):
        width = min(width + 1, min(t, 2 * k_max - t) + 1)
        cells += width
    return cells


class Tracer:
    """Spans and counters of one traced run, kept in memory until `dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []        # [name, start, end, parent, covered, op]
        self.stack: list[int] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts: dict[str, float] = defaultdict(int)
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def max(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _cover(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, out)
                self._cover(clock() - rec[2])
            return out

        return traced

    def leaf(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        clock, totals = self.clock, self.leaves[name]

        def traced(*args, **kwargs):
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                totals[0] += 1
                totals[1] += end - start
            if count is not None:
                count(self, args, kwargs, out)
            self._cover(clock() - start)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ced" or n.startswith("ced.")]
        for module_name, attr, mode, count in TARGETS:
            home = sys.modules.get(module_name)
            name = f"{module_name[len('ced.'):]}.{attr}"
            wrap = self.span if mode == SPAN else self.leaf
            if "." in attr:  # a classmethod: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(meth)
                if isinstance(original, classmethod):
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, classmethod(wrap(name, original.__func__, count)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapped = wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def layer_times(self) -> dict[str, list]:
        """name -> [calls, self seconds, inclusive seconds]."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, extra, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, extra, op) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += (end - start) - covered[i] - extra
            rec[2] += end - start
        for name, (calls, seconds) in self.leaves.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += seconds
            rec[2] += seconds
        return out

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead, which needs the untraced run."""
        times = self.layer_times()
        values: dict[str, float] = {}
        for key in PER_LAYER:
            if key == "trace.overhead":
                continue
            layer, _, stat = key.rpartition(".")
            if stat == "calls":
                values[key] = times[layer][0] if layer in times else 0
            elif stat == "self_s":
                values[key] = times[layer][1] if layer in times else 0.0
            else:
                values[key] = self.counts.get(key, 0)
        for kind in ("line", "tree"):
            seconds = times.get(f"simulate.simulate_{kind}", [0, 0.0, 0.0])[2]
            trials = self.counts.get(f"simulate.{kind}.trials", 0)
            values[f"simulate.{kind}.trials_per_s"] = trials / seconds if seconds > 0 else 0.0
        return values

    def dump(self, path) -> None:
        """Write the spans, one JSON object a line, and the leaf totals last."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, extra, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"leaves": dict(self.leaves)}) + "\n")
