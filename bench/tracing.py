"""Spans and counters around the public functions of sixpoint's modules.

A Tracer wraps every function a layer module lists in ``__all__``, and
rebinds the wrapper in every sixpoint module that holds the function by
name (``strata.stability_status`` as well as ``stability.stability_status``),
so calls between modules are seen too.  The ``rank`` and ``inverse`` methods
of ``RationalMatrix`` and the paper-report group builders, which
``build_report`` looks up at call time, are wrapped as well.

A span records its parent span, the benchmark item it belongs to and its
start and end; spans stay in memory until ``write``.  Functions called
thousands of times per item get a call counter instead of a span.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exact", "stability", "strata", "hypersurfaces", "report", "divisors", "genus2", "cli")

COUNTED = frozenset(
    {
        "exact.integer_vector",
        "hypersurfaces.evaluate",
        "hypersurfaces.gradient",
        "hypersurfaces.gauss_image",
    }
)

PRIVATE = {
    "report": {
        "_semistable_strata": "report.semistable_strata",
        "_singular_lines": "report.singular_lines",
        "_duality": "report.duality",
    }
}

METHODS = {"exact": ("RationalMatrix", ("rank", "inverse"))}


def _limit_advanced(args, result):
    return result != args[0]


def _duality_counts(args, report):
    return [report.samples, report.exact_samples, report.skipped]


# what a span keeps from its call's arguments and result
NOTES = {
    "stability.one_parameter_limit": _limit_advanced,
    "hypersurfaces.duality_sample_check": _duality_counts,
}

# span fields
PARENT, ITEM, NAME, START, END, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item: int | None = None
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, tuple[object, object]] = {}

    # -- patching

    def _targets(self):
        for layer in LAYERS:
            module = importlib.import_module(f"sixpoint.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield f"{layer}.{attr}", fn
            for attr, name in PRIVATE.get(layer, {}).items():
                yield name, getattr(module, attr)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(module, cls_name)
                for method in methods:
                    yield f"{layer}.{method}", getattr(cls, method)

    def install(self) -> None:
        if self._patches:
            return
        if not self._wrappers:
            for name, fn in self._targets():
                wrap = self._counter if name in COUNTED else self._span
                self._wrappers[name] = (fn, wrap(name, fn))
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers.values()}
        owners = [m for key, m in sys.modules.items() if key == "sixpoint" or key.startswith("sixpoint.")]
        for layer, (cls_name, _) in METHODS.items():
            owners.append(getattr(sys.modules[f"sixpoint.{layer}"], cls_name))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _span(self, name, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter_ns, NOTES.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [stack[-1] if stack else -1, self.item, name, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for i, (span, self_ns) in enumerate(zip(self.spans, selfs)):
                parent, item, name, start, end, note = span
                out.write(
                    json.dumps(
                        {"id": i, "parent": parent, "item": item, "name": name,
                         "start_ns": start, "end_ns": end, "self_ns": self_ns, "note": note}
                    )
                    + "\n"
                )

    def degeneration_steps(self) -> list[int]:
        """Advanced limits per degeneration call, in call order."""
        steps: dict[int, int] = {}
        for i, span in enumerate(self.spans):
            if span[NAME] == "strata.polystable_degeneration":
                steps[i] = 0
        for span in self.spans:
            if span[NAME] == "stability.one_parameter_limit" and span[PARENT] in steps:
                steps[span[PARENT]] += bool(span[NOTE])
        return list(steps.values())


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer, traced_items: int, kinds: dict[int, str], cli_kinds) -> dict[str, float]:
    """The per-layer metrics of a traced run, per traced item unless the
    name says otherwise."""
    n = max(traced_items, 1)
    spans = tracer.spans
    selfs = tracer.self_times()
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    for span, s in zip(spans, selfs):
        calls[span[NAME]] += 1
        self_ns[span[NAME]] += s
        durations[span[NAME]].append(span[END] - span[START])

    def child_calls(parent_name: str, child_name: str, advanced_only: bool = False) -> int:
        return sum(
            1
            for span in spans
            if span[NAME] == child_name
            and span[PARENT] >= 0
            and spans[span[PARENT]][NAME] == parent_name
            and (not advanced_only or span[NOTE])
        )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def median_ms(name: str) -> float:
        return _ms(statistics.median(durations[name])) if durations[name] else 0.0

    def layer_self_ms(prefix: str) -> float:
        return _ms(sum(v for k, v in self_ns.items() if k.startswith(prefix))) / n

    limits = child_calls("strata.polystable_degeneration", "stability.one_parameter_limit")
    advanced = child_calls("strata.polystable_degeneration", "stability.one_parameter_limit", True)
    duality = [span[NOTE] for span in spans if span[NAME] == "hypersurfaces.duality_sample_check"]
    samples = sum(d[0] for d in duality)
    m = {
        "exact.rank.calls": calls["exact.rank"] / n,
        "exact.rank.self_ms": _ms(self_ns["exact.rank"]) / n,
        "exact.inverse.self_ms": _ms(self_ns["exact.inverse"]) / n,
        "exact.integer_vector.calls": tracer.counts["exact.integer_vector"] / n,
        "stability.stability_status.calls": calls["stability.stability_status"] / n,
        "stability.stability_status.self_ms": _ms(self_ns["stability.stability_status"]) / n,
        "stability.stabilizer_dimension.self_ms": _ms(self_ns["stability.stabilizer_dimension"]) / n,
        "stability.lies_on_conic.self_ms": _ms(self_ns["stability.lies_on_conic"]) / n,
        "stability.random_transformation.tries_per_accept": ratio(
            child_calls("stability.random_transformation", "exact.rank"),
            calls["stability.random_transformation"],
        ),
        "strata.stratum_signature.self_ms": _ms(self_ns["strata.stratum_signature"]) / n,
        "strata.polystable_degeneration.self_ms": _ms(self_ns["strata.polystable_degeneration"]) / n,
        "strata.degeneration.steps_per_call": ratio(advanced, calls["strata.polystable_degeneration"]),
        "strata.degeneration.useful_limit_ratio": ratio(advanced, limits),
        "hypersurfaces.random_cubic_points.self_ms": _ms(self_ns["hypersurfaces.random_cubic_points"]) / n,
        "hypersurfaces.is_singular_point.self_ms": _ms(self_ns["hypersurfaces.is_singular_point"]) / n,
        "hypersurfaces.duality_sample_check.self_ms": _ms(self_ns["hypersurfaces.duality_sample_check"]) / n,
        "hypersurfaces.duality.exact_ratio": ratio(sum(d[1] for d in duality), samples),
        "hypersurfaces.duality.skipped_ratio": ratio(sum(d[2] for d in duality), samples + sum(d[2] for d in duality)),
        "report.build_report.ms": median_ms("report.build_report"),
        "report.semistable_strata.ms": median_ms("report.semistable_strata"),
        "report.singular_lines.ms": median_ms("report.singular_lines"),
        "report.duality.ms": median_ms("report.duality"),
        "divisors.self_ms": layer_self_ms("divisors."),
        "genus2.self_ms": layer_self_ms("genus2."),
    }
    by_kind: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        if span[NAME] == "cli.main":
            by_kind[kinds[span[ITEM]]].append(span[END] - span[START])
    for kind in cli_kinds:
        m[f"cli.main_ms.{kind}"] = _ms(statistics.median(by_kind[kind])) if by_kind[kind] else 0.0
    return m
