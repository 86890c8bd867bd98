"""Outside-in span tracer and the per-layer metrics derived from its spans.

The tracer replaces module attributes through which one layer calls another
(``flow.cost_report``, ``cost.gain_pair``, ``riccati.solve_care``, ...) with
wrappers that record a span per call: name, start, end, parent span, the
error it raised, and a small summary of its result. Each thread keeps its
own span stack, so multi-start threads nest correctly. Spans stay in memory
until the benchmark derives its metrics from them; nothing in ``src/`` is
changed, and uninstalling restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass


def _flow_summary(trace):
    """(accepted steps, stop status) of a returned FlowTrace."""
    return max(len(trace.iterates) - 1, 0), trace.status


def _certified(candidates):
    """Number of common-support candidates, each backed by a xi certificate."""
    return sum(1 for c in candidates if c.kind == "common_support")


# (module, attribute, span name, result summary). A span name is the layer
# that defines the function, whichever module's attribute the call went
# through; the attribute is where the caller looks the function up.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_problem", "cli.load_problem", None),
    ("cli", "dumps", "cli.dumps", len),
    ("cli", "cost_report", "cost.cost_report", None),
    ("cli", "multi_start", "flow.multi_start", None),
    ("cli", "is_equilibrium", "equilibria.is_equilibrium", None),
    ("cli", "classify_stability", "equilibria.classify_stability", None),
    ("cli", "enumerate_equilibria_zero", "equilibria.enumerate_equilibria_zero", _certified),
    ("cli", "classify_candidates", "equilibria.classify_candidates", None),
    ("cli", "analytic_minimum", "equilibria.analytic_minimum", None),
    ("cli", "estimate_eta", "simulate.estimate_eta", None),
    ("cli", "pbh_check", "riccati.pbh_check", None),
    ("flow", "run_flow", "flow.run_flow", _flow_summary),
    ("flow", "cost_report", "cost.cost_report", None),
    ("flow", "gradient", "flow.gradient", None),
    ("flow", "flow_step", "flow.flow_step", None),
    ("flow", "pbh_check", "riccati.pbh_check", None),
    ("cost", "cost_report", "cost.cost_report", None),
    ("cost", "gain_pair", "riccati.gain_pair", None),
    ("cost", "adjoint_pair", "riccati.adjoint_pair", None),
    ("cost", "solve_lyapunov", "riccati.solve_lyapunov", None),
    ("riccati", "solve_care", "riccati.solve_care", None),
    ("riccati", "solve_lyapunov", "riccati.solve_lyapunov", None),
    ("riccati", "pbh_check", "riccati.pbh_check", None),
    ("equilibria", "cost_report", "cost.cost_report", None),
    ("equilibria", "gradient", "flow.gradient", None),
    ("equilibria", "xi_vector", "equilibria.xi_vector", None),
    ("equilibria", "is_equilibrium", "equilibria.is_equilibrium", None),
    ("equilibria", "hessian_matrix", "equilibria.hessian_matrix", None),
    ("equilibria", "classify_stability", "equilibria.classify_stability", None),
    ("simulate", "gain_pair", "riccati.gain_pair", None),
    ("simulate", "phi", "cost.phi", None),
]

#: Functions that call themselves through their module attribute. While the
#: outermost call runs, the attribute points at the original function, so
#: the recursion is one span and pays no wrapper cost.
SELF_RECURSIVE = {("cli", "dumps")}


@dataclass(slots=True, eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_time: float = 0.0
    error: type | None = None
    info: object = None
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Installs span-recording wrappers; ``spans`` holds every finished span."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, summarize):
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = Span(name, parent, time.perf_counter(), thread=threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc)
                raise
            else:
                if summarize is not None:
                    span.info = summarize(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                spans.append(span)

        return wrapper

    @staticmethod
    def _unwrap_during_call(module, attr: str, fn, wrapper):
        @functools.wraps(fn)
        def outer(*args, **kwargs):
            setattr(module, attr, fn)
            try:
                return wrapper(*args, **kwargs)
            finally:
                setattr(module, attr, outer)

        return outer

    def install(self) -> "Tracer":
        for module_name, attr, name, summarize in self.targets:
            module = importlib.import_module(f"lqg_codesign.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                where = f"{module_name}.{attr}"
                self.missing.append(where)
                print(f"warning: tracer target {where} not found; its calls read 0",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(fn, name, summarize)
            if (module_name, attr) in SELF_RECURSIVE:
                wrapper = self._unwrap_during_call(module, attr, fn, wrapper)
            self._installed.append((module, attr, fn))
            setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer metrics

#: Metric name -> (unit, which direction is better), in printed order.
#: Counts repeat exactly across traced passes of one input; times are medians.
LAYER_METRICS = {
    "riccati.solve_care.calls": ("count", "lower"),
    "riccati.solve_care.ms": ("ms", "lower"),
    "riccati.solve_lyapunov.calls": ("count", "lower"),
    "riccati.solve_lyapunov.ms": ("ms", "lower"),
    "riccati.pbh_check.calls": ("count", "lower"),
    "riccati.pbh_check.ms": ("ms", "lower"),
    "riccati.errors": ("count", "lower"),
    "cost.cost_report.calls": ("count", "lower"),
    "cost.cost_report.ms": ("ms", "lower"),
    "cost.cost_report.self_ms": ("ms", "lower"),
    "flow.iterations": ("count", "lower"),
    "flow.iterations_per_start": ("count", "lower"),
    "flow.accept_ratio": ("ratio", "higher"),
    "flow.swallowed_errors": ("count", "lower"),
    "flow.iteration_ms": ("ms", "lower"),
    "flow.stop.converged": ("count", "higher"),
    "flow.stop.max_iters": ("count", "lower"),
    "flow.stop.solver_failure": ("count", "lower"),
    "equilibria.enumerate_s": ("s", "lower"),
    "equilibria.xi_solves": ("count", "lower"),
    "equilibria.certified_ratio": ("ratio", "higher"),
    "equilibria.classify_ms.p50": ("ms", "lower"),
    "equilibria.classify_ms.p95": ("ms", "lower"),
    "equilibria.gradients_per_candidate": ("count", "lower"),
    "simulate.self_s": ("s", "lower"),
    "simulate.step_us": ("us", "lower"),
    "cli.load_problem_ms": ("ms", "lower"),
    "cli.dumps_ms": ("ms", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Units of times; every other per-layer metric is a count of work or a
#: ratio of counts, and repeats exactly across passes of one input.
TIME_UNITS = {"s", "ms", "us"}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values``; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], context: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every key of LAYER_METRICS but
    ``trace.overhead_frac``, which needs an untraced pass)."""
    from lqg_codesign.errors import CodesignError

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def under(name, parent_name):
        return [s for s in named(name) if s.parent is not None and s.parent.name == parent_name]

    def ms(name):
        return 1e3 * _median([s.duration for s in named(name)])

    out: dict[str, float] = {}
    for fn in ("solve_care", "solve_lyapunov", "pbh_check"):
        out[f"riccati.{fn}.calls"] = len(named(f"riccati.{fn}"))
        out[f"riccati.{fn}.ms"] = ms(f"riccati.{fn}")
    out["riccati.errors"] = sum(
        1
        for s in spans
        if s.layer == "riccati"
        and s.error is not None
        and issubclass(s.error, CodesignError)
        and (s.parent is None or s.parent.layer != "riccati")
    )

    reports = named("cost.cost_report")
    out["cost.cost_report.calls"] = len(reports)
    out["cost.cost_report.ms"] = ms("cost.cost_report")
    out["cost.cost_report.self_ms"] = 1e3 * _median([s.self_time for s in reports])

    flows = named("flow.run_flow")
    iterations = sum(s.info[0] for s in flows if s.info)
    statuses = [s.info[1] for s in flows if s.info]
    # Every run_flow evaluates its start point once; the other cost_report
    # calls it makes directly are line-search trials.
    trials = len(under("cost.cost_report", "flow.run_flow")) - len(flows)
    out["flow.iterations"] = iterations
    out["flow.iterations_per_start"] = _ratio(iterations, len(flows))
    out["flow.accept_ratio"] = _ratio(iterations, trials)
    out["flow.swallowed_errors"] = sum(
        1
        for s in spans
        if s.parent is not None and s.parent.name == "flow.run_flow" and s.error is not None
    )
    out["flow.iteration_ms"] = 1e3 * _median(
        [s.duration / s.info[0] for s in flows if s.info and s.info[0]]
    )
    for status in ("converged", "max_iters", "solver_failure"):
        out[f"flow.stop.{status}"] = statuses.count(status)

    enumerations = named("equilibria.enumerate_equilibria_zero")
    xi_solves = len(named("equilibria.xi_vector"))
    certified = sum(s.info for s in enumerations if s.info is not None)
    classified = under("equilibria.classify_stability", "equilibria.classify_candidates")
    classify_ms = [1e3 * s.duration for s in classified]
    out["equilibria.enumerate_s"] = sum(s.duration for s in enumerations)
    out["equilibria.xi_solves"] = xi_solves
    out["equilibria.certified_ratio"] = _ratio(certified, xi_solves)
    out["equilibria.classify_ms.p50"] = _quantile(classify_ms, 0.50)
    out["equilibria.classify_ms.p95"] = _quantile(classify_ms, 0.95)
    hessian_gradients = len(under("flow.gradient", "equilibria.hessian_matrix"))
    out["equilibria.gradients_per_candidate"] = _ratio(hessian_gradients, len(classified))

    simulate_self = sum(s.self_time for s in named("simulate.estimate_eta"))
    out["simulate.self_s"] = simulate_self
    out["simulate.step_us"] = _ratio(1e6 * simulate_self, context.get("sim_steps", 0))

    out["cli.load_problem_ms"] = ms("cli.load_problem")
    out["cli.dumps_ms"] = ms("cli.dumps")
    out["cli.report_bytes"] = sum(s.info for s in named("cli.dumps") if s.info is not None)
    return out


def combine_passes(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced pass, times as the median over passes.

    Returns the merged metrics and one message per count that differed
    between passes of the same input.
    """
    merged, mismatches = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if LAYER_METRICS[name][0] not in TIME_UNITS:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                mismatches.append(f"{name} differs between traced passes: {values}")
        else:
            merged[name] = statistics.median(values)
    return merged, mismatches
