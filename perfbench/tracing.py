"""In-process spans around the package's layer boundaries.

Public functions are wrapped where their callers look them up (for example
``circrel.oracles.resample_estimate``, not only ``circrel.resampler``), so
every call across a layer boundary records a span: name, start, end, the
span that caused it, and an optional work quantity. Spans stay in memory
until the run ends. A function that no longer exists under a listed name is
skipped, which leaves its metrics absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Target:
    span: str  # "<layer>.<function>"
    lookups: tuple[str, ...]  # modules whose global the callers read
    label: str | None = None  # argument whose value suffixes the span name
    quantity: Callable | None = None  # (bound arguments, result) -> work done

    @property
    def attribute(self) -> str:
        return self.span.split(".", 1)[1]


TARGETS = (
    Target("cli.load_scenario", ("circrel.cli",)),
    Target("plan.validate_scenario",
           ("circrel.cli", "circrel.resampler", "circrel.variance", "circrel.oracles")),
    Target("resampler.realization_stream", ("circrel.resampler", "circrel.oracles")),
    Target("resampler.resample_estimate", ("circrel.cli", "circrel.oracles"),
           quantity=lambda args, result: args["config"].r),
    Target("oracles.simulate_pipeline_variance", ("circrel.verify",),
           quantity=lambda args, result: args["replications"]),
    Target("variance.variance_pipeline", ("circrel.cli", "circrel.verify")),
    Target("variance.leg_kernels", ("circrel.variance", "circrel.verify"), label="mode"),
    Target("distributions.leg_reliability_exponential", ("circrel.variance",)),
    Target("distributions.leg_reliability_plugin", ("circrel.variance",)),
    Target("distributions.leg_reliability_quadrature", ("circrel.variance",)),
    Target("distributions.stieltjes_expectation",
           ("circrel.variance", "circrel.distributions")),
    Target("quadrature.adaptive_quadrature", ("circrel.distributions",),
           quantity=lambda args, result: result.evaluations),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "quantity")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0
        self.quantity = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; a worker thread's first span hangs under the span open
    on the main thread (the call that started the pool)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = Span(name, parent)
        self.spans.append(record)
        stack.append(record)
        record.start = perf_counter_ns()
        return record, stack

    @staticmethod
    def _close(record: Span, stack: list[Span]) -> None:
        record.end = perf_counter_ns()
        stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record, stack = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record, stack)

    def _wrap(self, target: Target, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            name = target.span
            if target.label or target.quantity:
                bound = _arguments(signature, args, kwargs)
            if target.label and target.label in bound:
                name = f"{name}.{bound[target.label]}"
            record, stack = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record, stack)
            if target.quantity:
                try:
                    record.quantity = target.quantity(bound, result)
                except (KeyError, AttributeError):
                    pass  # the argument or field was renamed: no quantity
            return result

        return wrapper

    def install(self) -> None:
        for target in TARGETS:
            for module_name in target.lookups:
                module = importlib.import_module(module_name)
                fn = getattr(module, target.attribute, None)
                if fn is None:
                    continue
                self._patched.append((module, target.attribute, fn))
                self.installed.add(target.span)
                setattr(module, target.attribute, self._wrap(target, fn))

    def uninstall(self) -> None:
        while self._patched:
            module, attribute, fn = self._patched.pop()
            setattr(module, attribute, fn)


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it its child spans cover, by id(span)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(id(s), ())]
        out[id(s)] = (s.end - s.start) - _covered([iv for iv in inside if iv[0] < iv[1]])
    return out


def layer_metrics(spans: list[Span], rounds: int, present: set[str]) -> dict[str, float]:
    """Per-layer metrics of ``rounds`` traced rounds.

    Counts and self times are per round; ``*_us`` are means per call. A
    metric whose function is not in ``present`` (span names installed) is
    left out.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    self_by_layer: dict[str, int] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        self_by_layer[s.layer] = self_by_layer.get(s.layer, 0) + selfs[id(s)]

    def group(prefix):
        return [s for name, group in by_name.items()
                if name == prefix or name.startswith(prefix + ".") for s in group]

    def total_ns(group):
        return sum(s.end - s.start for s in group)

    m: dict[str, float] = {}

    def calls(metric, name):
        if name in present:
            m[metric] = len(group(name)) / rounds

    def mean_us(metric, name):
        g = group(name)
        if name in present and g:
            m[metric] = total_ns(g) / len(g) / 1e3

    def per_unit_us(metric, name):
        g = [s for s in group(name) if s.quantity]
        if name in present and g:
            m[metric] = total_ns(g) / sum(s.quantity for s in g) / 1e3

    def self_s(layer):
        if layer in self_by_layer:
            m[f"{layer}.self_s"] = self_by_layer[layer] / rounds / 1e9

    calls("resampler.realization_stream_calls", "resampler.realization_stream")
    mean_us("resampler.realization_stream_us", "resampler.realization_stream")
    calls("resampler.resample_estimate_calls", "resampler.resample_estimate")
    per_unit_us("resampler.us_per_realization", "resampler.resample_estimate")
    self_s("resampler")
    calls("plan.validate_scenario_calls", "plan.validate_scenario")
    mean_us("plan.validate_scenario_us", "plan.validate_scenario")
    per_unit_us("oracles.us_per_replication", "oracles.simulate_pipeline_variance")
    self_s("oracles")
    calls("variance.variance_pipeline_calls", "variance.variance_pipeline")
    mean_us("variance.variance_pipeline_us", "variance.variance_pipeline")
    self_s("variance")
    calls("variance.leg_kernels_calls", "variance.leg_kernels")
    for mode in ("closed_form", "quadrature", "plugin"):
        if "variance.leg_kernels" in present and by_name.get(f"variance.leg_kernels.{mode}"):
            g = by_name[f"variance.leg_kernels.{mode}"]
            m[f"variance.leg_kernels_us.{mode}"] = total_ns(g) / len(g) / 1e3
    mean_us("distributions.leg_reliability_plugin_us", "distributions.leg_reliability_plugin")
    calls("distributions.stieltjes_expectation_calls", "distributions.stieltjes_expectation")
    self_s("distributions")
    calls("quadrature.adaptive_quadrature_calls", "quadrature.adaptive_quadrature")
    if "quadrature.adaptive_quadrature" in present:
        g = group("quadrature.adaptive_quadrature")
        m["quadrature.evaluations"] = sum(s.quantity or 0 for s in g) / rounds
    per_unit_us("quadrature.us_per_evaluation", "quadrature.adaptive_quadrature")
    self_s("quadrature")
    mean_us("cli.load_scenario_us", "cli.load_scenario")
    return m


def write_spans(spans: list[Span], path: str) -> None:
    """Spans as CSV: id, parent id, name, start and end (ns), quantity."""
    ids = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns,quantity\n")
        for i, s in enumerate(spans):
            parent = "" if s.parent is None else ids.get(id(s.parent), "")
            quantity = "" if s.quantity is None else s.quantity
            fh.write(f"{i},{parent},{s.name},{s.start},{s.end},{quantity}\n")
