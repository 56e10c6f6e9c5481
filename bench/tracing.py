"""Spans around calls into locprob's layers, installed from outside the package.

Each target is a name that a calling module looks up at call time, such as
`locprob.cli.estimate` or `locprob.shadowing.integrate`.  Replacing it with a
timing wrapper reroutes exactly the calls made from that module and changes
nothing under `src/`.  A span is (name, start, end, parent index, attrs);
spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus that of its child spans.  Work done inside pool
worker processes is not visible, so with workers > 1 the spans stop at
`montecarlo.estimate`.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name)
TARGETS = (
    ("locprob.cli", "failure_prob_closed", "analytic.closed"),
    ("locprob.cli", "failure_prob_sum", "analytic.sum"),
    ("locprob.cli", "failure_prob_approx_small", "analytic.approx_small"),
    ("locprob.cli", "threshold_a_star", "analytic.threshold"),
    ("locprob.cli", "threshold_b_star", "analytic.threshold"),
    ("locprob.cli", "threshold_a_star_numeric", "analytic.threshold_numeric"),
    ("locprob.cli", "threshold_b_star_numeric", "analytic.threshold_numeric"),
    ("locprob.cli", "failure_prob_shadow", "shadowing.shadow"),
    ("locprob.cli", "estimate", "montecarlo.estimate"),
    ("locprob.montecarlo", "sample_realization", "montecarlo.sample"),
    ("locprob.shadowing", "integrate", "numerics.integrate"),
    ("locprob.analytic", "find_sign_change", "numerics.bisect"),
)

# The layer entry points the CLI calls; set-up ends at the first call to one.
CLI_ENTRY_POINTS = tuple(attr for module, attr, _ in TARGETS if module == "locprob.cli")

# Spans whose first argument is a callable; its evaluations are counted exactly.
_COUNTS_F_EVALS = ("numerics.integrate", "numerics.bisect")

FIELD_SIZES = (500, 1000, 3000)

PER_LAYER_UNITS = {
    **{f"montecarlo.field.sample_ms.n{n}": "ms" for n in FIELD_SIZES},
    **{f"montecarlo.field.count_ms.n{n}": "ms" for n in FIELD_SIZES},
    "montecarlo.estimate.calls": "count",
    "montecarlo.estimate.s": "s",
    "montecarlo.center.us_per_realization": "us",
    "montecarlo.realizations_per_s": "1/s",
    "montecarlo.pools": "count",
    "montecarlo.scaling_eff": "ratio",
    "shadowing.shadow.calls": "count",
    "shadowing.shadow.s": "s",
    "shadowing.shadow.us_per_point": "us",
    "numerics.integrate.calls": "count",
    "numerics.integrate.f_evals": "count",
    "numerics.integrate.s": "s",
    "analytic.closed.calls": "count",
    "analytic.closed.s": "s",
    "analytic.sum.calls": "count",
    "analytic.sum.s": "s",
    "analytic.threshold_numeric.calls": "count",
    "analytic.threshold_numeric.s": "s",
    "numerics.bisect.calls": "count",
    "numerics.bisect.f_evals": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "trace.overhead_s": "s",
}


def _describe_estimate(fn):
    signature = inspect.signature(fn)

    def describe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"n": bound.arguments["net"].n, "probe": bound.arguments["protocol"].probe,
                "realizations": result.realizations}

    return describe


class Tracer:
    """Records spans for the calls made while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.pools = 0
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        describe = _describe_estimate(fn) if name == "montecarlo.estimate" else None
        counts_f = name in _COUNTS_F_EVALS
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            attrs = {}
            if counts_f:
                f, evals = args[0], [0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                args = (counted, *args[1:])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if counts_f:
                    attrs["f_evals"] = evals[0]
                spans[index] = (name, start, end, parent, attrs)
            if describe is not None:
                attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own."""
        return self.wrap(name, fn)(*args)

    @contextmanager
    def installed(self):
        """Replace every target (and the pool class) for the duration."""
        saved = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        montecarlo = importlib.import_module("locprob.montecarlo")
        if hasattr(montecarlo, "ProcessPoolExecutor"):
            base, tracer = montecarlo.ProcessPoolExecutor, self

            class CountingPool(base):
                def __init__(self, *args, **kwargs):
                    tracer.pools += 1
                    super().__init__(*args, **kwargs)

            saved.append((montecarlo, "ProcessPoolExecutor", base))
            montecarlo.ProcessPoolExecutor = CountingPool
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def summarize(tracer: Tracer) -> dict:
    """Per-pass totals by span name and the Monte Carlo split by protocol."""
    spans = tracer.spans
    totals, field = {}, {}
    center = {"realizations": 0, "s": 0.0}
    realizations = 0
    for (name, start, end, parent, attrs), own in zip(spans, self_times(spans)):
        total = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "f_evals": 0})
        total["calls"] += 1
        total["s"] += end - start
        total["self_s"] += own
        total["f_evals"] += attrs.get("f_evals", 0)
        if name == "montecarlo.estimate":
            realizations += attrs["realizations"]
            if attrs["probe"] == "all_nl_nodes":
                cell = field.setdefault(str(attrs["n"]), _field_cell())
                cell["realizations"] += attrs["realizations"]
                cell["count_s"] += own  # estimate minus the sampling inside it
            else:
                center["realizations"] += attrs["realizations"]
                center["s"] += end - start
        elif (name == "montecarlo.sample" and parent >= 0
              and spans[parent][0] == "montecarlo.estimate"):
            cell = field.setdefault(str(spans[parent][4]["n"]), _field_cell())
            cell["sample_calls"] += 1
            cell["sample_s"] += end - start
    return {"spans": totals, "field": field, "center": center,
            "realizations": realizations, "pools": tracer.pools}


def _field_cell():
    return {"realizations": 0, "count_s": 0.0, "sample_calls": 0, "sample_s": 0.0}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(traced, single, walls, rows) -> dict:
    """Per-layer metrics as medians over the traced passes of one run.

    traced: summaries of the workload's own traced passes.  single: summaries
    of its 1-worker traced passes (only workloads run at more workers have
    them).  walls: median pass time by variant.  A layer the workload never
    calls reads 0.
    """

    def med(fn, summaries=traced):
        return statistics.median(fn(s) for s in summaries) if summaries else 0.0

    def span(name, key):
        return lambda s: s["spans"].get(name, {}).get(key, 0)

    def field(n, key):
        return lambda s: s["field"].get(str(n), _field_cell())[key]

    metrics = {}
    for n in FIELD_SIZES:
        metrics[f"montecarlo.field.sample_ms.n{n}"] = med(
            lambda s: _ratio(field(n, "sample_s")(s), field(n, "sample_calls")(s), 1e3))
        metrics[f"montecarlo.field.count_ms.n{n}"] = med(
            lambda s: _ratio(field(n, "count_s")(s), field(n, "realizations")(s), 1e3))
    metrics["montecarlo.estimate.calls"] = med(span("montecarlo.estimate", "calls"))
    metrics["montecarlo.estimate.s"] = med(span("montecarlo.estimate", "s"))
    metrics["montecarlo.center.us_per_realization"] = med(
        lambda s: _ratio(s["center"]["s"], s["center"]["realizations"], 1e6), single or traced)
    metrics["montecarlo.realizations_per_s"] = med(
        lambda s: _ratio(s["realizations"], span("montecarlo.estimate", "s")(s)))
    metrics["montecarlo.pools"] = med(lambda s: s["pools"])
    metrics["montecarlo.scaling_eff"] = _ratio(walls.get("single", 0.0), 2.0 * walls["traced"])
    metrics["shadowing.shadow.calls"] = med(span("shadowing.shadow", "calls"))
    metrics["shadowing.shadow.s"] = med(span("shadowing.shadow", "s"))
    metrics["shadowing.shadow.us_per_point"] = med(
        lambda s: _ratio(span("shadowing.shadow", "s")(s), span("shadowing.shadow", "calls")(s), 1e6))
    for name in ("numerics.integrate", "numerics.bisect"):
        metrics[f"{name}.calls"] = med(span(name, "calls"))
        metrics[f"{name}.f_evals"] = med(span(name, "f_evals"))
    metrics["numerics.integrate.s"] = med(span("numerics.integrate", "s"))
    for name in ("analytic.closed", "analytic.sum", "analytic.threshold_numeric"):
        metrics[f"{name}.calls"] = med(span(name, "calls"))
        metrics[f"{name}.s"] = med(span(name, "s"))
    metrics["cli.main_s"] = med(span("cli.main", "s"))
    metrics["cli.self_s"] = med(span("cli.main", "self_s"))
    metrics["cli.rows"] = rows
    metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
