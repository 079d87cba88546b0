"""Span tracing of the calls a workload makes into the teamcheck layers.

Spans are recorded from benchmark code only.  The tracer rebinds the names
that ``teamcheck.cli`` imports from the other modules, so each call the
command line makes into a layer runs through a wrapper, and nothing under
``src/`` changes.  Calls a layer makes internally, such as the evaluator's
own helpers, stay inside the caller's span.  A span records its name,
start, end, parent span and operation id; spans stay in memory until the
run ends.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

# name imported by teamcheck.cli -> per-layer metric its self time feeds
TRACED = {
    "parse_structure": "model.parse_structure_ms",
    "parse_team": "model.parse_team_ms",
    "structure_to_text": "model.to_text_ms",
    "team_to_text": "model.to_text_ms",
    "parse_formula": "syntax.parse_formula_ms",
    "analyze": "syntax.analyze_ms",
    "run_check": "evaluator.run_check_ms",
    "find_dep_violation": "evaluator.find_dep_violation_ms",
    "parse_dimacs": "reductions.parse_dimacs_ms",
    "reduce_3sat": "reductions.reduce_3sat_ms",
    "gaifman": "graph.gaifman_ms",
    "treewidth_exact": "graph.treewidth_ms",
    "treewidth_greedy": "graph.treewidth_ms",
}
ROOT_SPAN = "main"
ROOT_METRIC = "cli.self_ms"
LAYERS = ("cli", "model", "syntax", "evaluator", "reductions", "graph")
SELF_TIME_METRICS = sorted({ROOT_METRIC, *TRACED.values()})


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None       # index into Tracer.spans
    op: int
    expansions: int          # run_check spans only, else 0
    over_budget: bool


class Tracer:
    """Context manager that installs the wrappers into a ``teamcheck.cli`` module."""

    def __init__(self, cli):
        self.cli = cli
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: dict = {}

    def __enter__(self) -> "Tracer":
        for name in TRACED:
            original = getattr(self.cli, name)
            self._saved[name] = original
            setattr(self.cli, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._saved.items():
            setattr(self.cli, name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def main(self, argv):
        """``teamcheck.cli.main`` under a root span."""
        return self.call(ROOT_SPAN, self.cli.main, argv)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        expansions, over_budget = 0, False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == "run_check":
                expansions = result.expansions
            return result
        except self.cli.BudgetExceededError as exc:
            expansions, over_budget = exc.expansions, True
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, expansions, over_budget)

    def summary(self, ops: int, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced passes: self ms per operation,
        calls and expansions per pass, microseconds per expansion."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_s = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        expansions = over_budget = 0
        for span, inner in zip(self.spans, child_time):
            metric = ROOT_METRIC if span.name == ROOT_SPAN else TRACED[span.name]
            self_s[metric] += span.end - span.start - inner
            calls[metric.split(".")[0]] += 1
            expansions += span.expansions
            over_budget += span.over_budget
        out = {name: (seconds * 1000.0 / ops, "ms/op") for name, seconds in self_s.items()}
        out.update({f"{layer}.calls": (n / passes, "count") for layer, n in calls.items()})
        out["evaluator.expansions"] = (expansions / passes, "count")
        out["evaluator.us_per_expansion"] = (
            self_s["evaluator.run_check_ms"] * 1e6 / expansions if expansions else 0.0,
            "us",
        )
        out["evaluator.budget_exceeded"] = (over_budget, "count")
        return out
