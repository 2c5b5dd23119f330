"""Span tracing for traced benchmark runs, kept outside the program.

`Tracer.install` replaces the public functions of each layer with
wrappers at the names where callers look them up (module attributes such
as `counterexample.brute_force_shadow`, class attributes such as
`DynamicMap.tabulate` and `CantorChart.encode`); `uninstall` puts the
originals back.  Each call records a span (name, start, end, parent)
plus a count of the work it was given, in memory.  A span's self time is
its duration minus that of its direct child spans, so layer times add
up without double counting.
"""

from __future__ import annotations

import csv
import time
from array import array
from collections import defaultdict

from padic_dynamics import (
    analysis,
    conjugacy,
    counterexample,
    dynamics,
    padic,
    shadowing,
)


def _chart_nodes(chart) -> int:
    count, stack = 0, [chart.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children or ())
    return count


def _profile_pairs(args, prof) -> int:
    """Pairs `scaling_profile` scanned over range(M) before it returned."""
    M = args[0].ctx.modulus
    if prof.consistent:
        return M * (M - 1) // 2
    x, y = prof.witness                       # combinations() order
    return x * M - x * (x + 1) // 2 + (y - x)


_modulus = lambda index: (lambda args: args[index].ctx.modulus)
_one = lambda args: 1

# (owner, attribute, span name, work given before the call,
#  work read from the result after the round)
TARGETS = (
    *((padic, op, "padic.arith", _one, None)
      for op in ("add", "sub", "mul", "norm")),
    (dynamics.DynamicMap, "tabulate", "dynamics.tabulate",
     lambda args: 0 if args[0]._table is not None else args[0].ctx.modulus,
     None),
    (shadowing, "solve_shadowing", "shadowing.solve",
     lambda args: len(args[2].points) - 1, None),
    (shadowing, "brute_force_shadow", "shadowing.oracle", _modulus(1), None),
    (counterexample, "brute_force_shadow", "shadowing.oracle", _modulus(1), None),
    (conjugacy, "build_conjugacy_thm1", "conjugacy.thm1", _modulus(0), None),
    (conjugacy, "build_inverse_conjugacy_thm1", "conjugacy.thm1_inv",
     _modulus(0), None),
    (conjugacy, "verify_conjugacy", "conjugacy.verify", _modulus(2), None),
    (conjugacy, "partition_contraction_domain", "conjugacy.partition",
     None, None),
    (conjugacy, "build_conjugacy_thm3", "conjugacy.thm3", None, None),
    (conjugacy, "homogeneity_homeomorphism", "conjugacy.homogeneity",
     None, None),
    (analysis, "estimate_lipschitz", "analysis.lipschitz", None,
     lambda args, est: est.pairs),
    (analysis, "scaling_profile", "analysis.scaling", None, _profile_pairs),
    (analysis, "image_openness", "analysis.openness", None, None),
    (counterexample, "build_cantor_chart", "counterexample.chart", None,
     lambda args, chart: _chart_nodes(chart)),
    (counterexample, "transported_shift_table", "counterexample.shift_table",
     None, None),
    (counterexample.CantorChart, "encode", "counterexample.encode", _one, None),
    (counterexample, "demonstrate_non_shadowing", "counterexample.demo",
     None, None),
)

# (metric, unit): every per-layer metric a traced run reports
LAYER_METRICS = (
    ("padic.arith_ops", "count"), ("padic.arith_ns_per_op", "ns"),
    ("dynamics.tabulate_s", "s"), ("dynamics.tabulate_residues", "count"),
    ("dynamics.tabulate_ns_per_residue", "ns"),
    ("shadowing.solve_s", "s"), ("shadowing.solve_steps", "count"),
    ("shadowing.solve_us_per_step", "us"),
    ("shadowing.oracle_s", "s"), ("shadowing.oracle_residues", "count"),
    ("shadowing.oracle_ns_per_residue", "ns"),
    ("conjugacy.thm1_s", "s"), ("conjugacy.thm1_ns_per_residue", "ns"),
    ("conjugacy.thm1_inv_s", "s"), ("conjugacy.thm1_inv_ns_per_residue", "ns"),
    ("conjugacy.verify_s", "s"), ("conjugacy.verify_ns_per_residue", "ns"),
    ("conjugacy.partition_s", "s"), ("conjugacy.thm3_s", "s"),
    ("conjugacy.homogeneity_s", "s"),
    ("analysis.lipschitz_s", "s"), ("analysis.scaling_s", "s"),
    ("analysis.openness_s", "s"), ("analysis.pairs", "count"),
    ("analysis.ns_per_pair", "ns"),
    ("counterexample.chart_s", "s"), ("counterexample.chart_nodes", "count"),
    ("counterexample.shift_table_s", "s"),
    ("counterexample.encode_calls", "count"),
    ("counterexample.encode_us_per_call", "us"),
    ("counterexample.demo_s", "s"),
    # traced batch time minus untraced batch time, filled in by run.py
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.names = []
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self._stack = []
        self._results = []            # (span, post, args, result)

    def install(self):
        for owner, attr, name, pre, post in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, pre, post))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, pre, post):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.units.append(pre(args) if pre else 0)
            self.end.append(0)
            self._stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()
            if post:
                self._results.append((span, post, args, result))
            return result

        return traced

    def finish(self):
        """Count the work read from results; call after the round."""
        for span, post, args, result in self._results:
            self.units[span] = post(args, result)
        self._results = []

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value, from the spans recorded so far.

        A layer that the workload never calls reads 0.
        """
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += self.end[i] - self.start[i]
        self_ns = defaultdict(int)
        units = defaultdict(int)
        for i, name in enumerate(self.names):
            self_ns[name] += self.end[i] - self.start[i] - child_ns[i]
            if name == "padic.arith" and self.parent[i] >= 0 \
                    and self.names[self.parent[i]] == "padic.arith":
                continue                  # norm() inside mul() is not an op
            units[name] += self.units[i]

        def per(names, scale):
            """Self time per unit of work over the named spans, in ns/scale."""
            total = sum(units[n] for n in names)
            return sum(self_ns[n] for n in names) / scale / total if total else 0.0

        s = lambda name: self_ns[name] / 1e9
        m = {
            "padic.arith_ops": units["padic.arith"],
            "padic.arith_ns_per_op": per(["padic.arith"], 1),
            "dynamics.tabulate_s": s("dynamics.tabulate"),
            "dynamics.tabulate_residues": units["dynamics.tabulate"],
            "dynamics.tabulate_ns_per_residue": per(["dynamics.tabulate"], 1),
            "shadowing.solve_s": s("shadowing.solve"),
            "shadowing.solve_steps": units["shadowing.solve"],
            "shadowing.solve_us_per_step": per(["shadowing.solve"], 1e3),
            "shadowing.oracle_s": s("shadowing.oracle"),
            "shadowing.oracle_residues": units["shadowing.oracle"],
            "shadowing.oracle_ns_per_residue": per(["shadowing.oracle"], 1),
            "conjugacy.partition_s": s("conjugacy.partition"),
            "conjugacy.thm3_s": s("conjugacy.thm3"),
            "conjugacy.homogeneity_s": s("conjugacy.homogeneity"),
            "analysis.lipschitz_s": s("analysis.lipschitz"),
            "analysis.scaling_s": s("analysis.scaling"),
            "analysis.openness_s": s("analysis.openness"),
            "analysis.pairs": units["analysis.lipschitz"]
            + units["analysis.scaling"],
            "analysis.ns_per_pair": per(["analysis.lipschitz", "analysis.scaling"], 1),
            "counterexample.chart_s": s("counterexample.chart"),
            "counterexample.chart_nodes": units["counterexample.chart"],
            "counterexample.shift_table_s": s("counterexample.shift_table"),
            "counterexample.encode_calls": units["counterexample.encode"],
            "counterexample.encode_us_per_call": per(["counterexample.encode"], 1e3),
            "counterexample.demo_s": s("counterexample.demo"),
        }
        for stage in ("thm1", "thm1_inv", "verify"):
            name = f"conjugacy.{stage}"
            m[f"{name}_s"] = s(name)
            m[f"{name}_ns_per_residue"] = per([name], 1)
        return m

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "parent", "start_ns", "end_ns", "units"))
            for i, name in enumerate(self.names):
                out.writerow((i, name, self.parent[i], self.start[i],
                              self.end[i], self.units[i]))
