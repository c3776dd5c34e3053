"""Span tracer that wraps public minitwistor functions from outside the package.

``install`` replaces each function in TARGETS by a timing wrapper wherever a
``minitwistor`` module binds it (``from .invariants import reduction_trace``
makes a binding in every importing module) and, for methods, on the class;
``uninstall`` puts every original back.  Spans nest through a stack, so a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

TARGETS = (
    "cli.main",
    "fans.validate_sequence",
    "fans.fan_from_sequence",
    "fans.self_intersections",
    "invariants.reduction_trace",
    "invariants.reduction_steps",
    "invariants.trace_divisor",
    "invariants.l_vector",
    "invariants.regularity",
    "invariants.restriction_multiplicities",
    "invariants.sequence_summary",
    "invariants.sequence_l_vector",
    "model.minitwistor_model",
    "model.rhs_polynomial",
    "model.quadratic_split",
    "model.validate_lambdas",
    "conic_bundle.discriminant_joyce",
    "conic_bundle.discriminant_deformed",
    "conic_bundle.blow_up_schedule",
    "render.dumps",
    "render.equation_text",
    "render.equation_latex",
    "render.model_text",
    "render.discriminant_text",
    "render.schedule_text",
    "exact.parse_scalar",
    "exact.format_scalar",
    "catalog.enumerate_marked",
    "catalog.u1_classes",
    "catalog.u1_classes_cached",
    "catalog.CatalogCache.load",
    "catalog.CatalogCache.store",
    "catalog.u1_key",
)

#: Size counters, taken from return values of the wrapped functions.
SIZES = (
    "model.m_max",
    "model.coeff_bits_max",
    "catalog.level_size",
    "catalog.cache_hits",
    "catalog.cache_misses",
)

#: Spans kept for the span file; calls past this are still counted and timed.
SPAN_LIMIT = 200_000


def _observe_model(sizes: dict, model) -> None:
    sizes["model.m_max"] = max(sizes["model.m_max"], model.m)


def _observe_rhs(sizes: dict, form) -> None:
    bits = max(
        max(abs(cf.numerator).bit_length(), cf.denominator.bit_length())
        for cf in form.coefficients
    )
    sizes["model.coeff_bits_max"] = max(sizes["model.coeff_bits_max"], bits)


def _observe_level(sizes: dict, level) -> None:
    sizes["catalog.level_size"] = max(sizes["catalog.level_size"], len(level))


def _observe_load(sizes: dict, hit) -> None:
    sizes["catalog.cache_misses" if hit is None else "catalog.cache_hits"] += 1


OBSERVERS = {
    "model.minitwistor_model": _observe_model,
    "model.rhs_polynomial": _observe_rhs,
    "catalog.enumerate_marked": _observe_level,
    "catalog.CatalogCache.load": _observe_load,
}


class Tracer:
    """Per-request call counts and self times, plus an optional span list of
    (request, span, parent, name, start_ns, end_ns) tuples."""

    def __init__(self, package: str = "minitwistor"):
        self.package = package
        self.saved: list[tuple[object, str, object]] = []
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.next_span = 0
        self.request = 0
        self.calls: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.spans: list | None = None
        self.sizes = dict.fromkeys(SIZES, 0)

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if name == self.package or name.startswith(prefix)
        ]

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for target in TARGETS:
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"{self.package}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[path[-1]]
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                bindings = [(owner, path[-1])]
            else:
                bindings = [
                    (module, attr)
                    for module in modules
                    for attr, value in list(vars(module).items())
                    if value is original
                ]
            for obj, attr in bindings:
                self.saved.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        while self.saved:
            obj, attr, original = self.saved.pop()
            setattr(obj, attr, original)

    def snapshot(self) -> dict:
        """Identity of every binding the tracer may touch, to prove restoration."""
        state = {}
        for module in self._modules():
            for attr, value in vars(module).items():
                state[(module.__name__, attr)] = id(value)
                if isinstance(value, type) and value.__module__.startswith(self.package):
                    for name, member in vars(value).items():
                        state[(module.__name__, attr, name)] = id(member)
        return state

    def begin(self, request: int) -> None:
        self.request = request
        self.calls = Counter()
        self.self_ns = defaultdict(int)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.next_span
            tracer.next_span += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span, 0]
            tracer.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.self_ns[name] += duration - frame[1]
                tracer.calls[name] += 1
                if tracer.spans is not None and len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((tracer.request, span, parent, name, start, end))
            if observe is not None:
                observe(tracer.sizes, result)
            return result

        return traced
