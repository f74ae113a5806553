"""Outside-in tracer for curlwave: spans around calls into each module.

The tracer changes no file of the package.  It replaces public functions in
the namespace where their caller looks them up (`cli.asymptotic_hopf` for the
CLI's call, `fieldlines.gauss_linking` for the calls inside fieldlines), plus
the method `FieldLine.diameter`, with wrappers that record a span: name,
start, end, parent span and the exception type if the call raised.

- Parent stacks are thread-local, and `seeds.ordered_map` is wrapped so that
  each item runs as a span under the map's span, in whichever thread runs it.
- Spans stay in memory; the caller writes them out once, at the end.
- A span's self time is its duration minus the part of it that its child
  spans cover (the union of their intervals, so overlapping children from
  worker threads are not counted twice).
- Work counters are computed from call arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

VERBS = (
    "verify-s3",
    "verify-hyperbolic",
    "linking",
    "hopf-asymptotic",
    "triangle-scan",
    "alpha-scaling",
    "m5-estimate",
)

LAYERS = ("cli", "fieldlines", "hypermc", "s3", "seeds", "frames", "hyperbolic")

# Spans whose self time is reported one by one.  The two `<caller>.<item>`
# names are the per-item functions run through seeds.ordered_map.
SELF_TIMED = (
    "cli.run",
    "cli.emit_report",
    "fieldlines.FieldLine.diameter",
    "fieldlines.close_curve",
    "fieldlines.gauss_linking",
    "fieldlines.linking_solid_angle",
    "fieldlines.trace_batch",
    "fieldlines.resample_polyline",
    "fieldlines.to_r3_polylines",
    "fieldlines.crossing_linking_oracle",
    "fieldlines.helicity_integral",
    "fieldlines.asymptotic_hopf.link_pair",
    "hypermc.pair_intersection_density",
    "hypermc.epsilon_limit_scan",
    "hypermc._triple_min_angles.one_chunk",
    "hypermc.m5_quintuple_details",
    "hypermc.parallelism_ratio",
    "hypermc.loglog_fit",
    "s3.ym_residual",
    "hyperbolic.lambda_report_row",
)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{name}.self_s", "s", "lower") for name in SELF_TIMED),
    ("fieldlines.gauss_linking.calls", "count", "lower"),
    ("fieldlines.gauss_linking.ok_ratio", "ratio", "higher"),
    ("fieldlines.gauss_linking.p50_s", "s", "lower"),
    ("fieldlines.gauss_linking.p90_s", "s", "lower"),
    ("fieldlines.segment_pairs", "count", "lower"),
    ("fieldlines.segment_pairs_per_s", "1/s", "higher"),
    ("fieldlines.closure_failures", "count", "lower"),
    ("fieldlines.resamples", "count", "lower"),
    ("hypermc.chord_pairs", "count", "lower"),
    ("hypermc.chord_pairs_per_s", "1/s", "higher"),
    ("hypermc.triples", "count", "lower"),
    ("hypermc.triples_per_s", "1/s", "higher"),
    ("s3.curl_points", "count", "lower"),
    ("s3.curl_points_per_s", "1/s", "higher"),
    ("seeds.ordered_map.calls", "count", "lower"),
    ("seeds.ordered_map.items", "count", "lower"),
    ("seeds.ordered_map.busy_frac", "ratio", "higher"),
    ("seeds.ordered_map.wait_s", "s", "lower"),
    ("seeds.ordered_map.item_p50_s", "s", "lower"),
    ("seeds.ordered_map.item_p90_s", "s", "lower"),
    ("quaternions.haar_sample.calls", "count", "lower"),
    ("quaternions.haar_sample.samples", "count", "lower"),
    ("frames.curl_eigenvalue.calls", "count", "lower"),
    *((f"cli.run_s.{verb}", "s", "lower") for verb in VERBS),
    ("cli.report_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _span_name(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    qualname = getattr(fn, "__qualname__", type(fn).__name__)
    return f"{module}.{qualname.replace('.<locals>', '')}"


class Tracer:
    """Collects spans and counters from wrapped functions; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        error = None
        t0 = time.perf_counter()
        try:
            yield sid
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, error, attrs))

    def count(self, increments: dict) -> None:
        with self._lock:
            self.counters.update(increments)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, counter=None) -> None:
        """Record a span for every call of owner.attr; counter(args, result)
        returns the work counts of one successful call."""
        original = getattr(owner, attr)
        name = _span_name(original)
        sig = inspect.signature(original) if counter else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(counter(bound.arguments, result))
            return result

        self._replace(owner, attr, traced)

    def wrap_count(self, owner, attr: str, counter) -> None:
        """Count calls of owner.attr without a span (for microsecond calls)."""
        original = getattr(owner, attr)
        sig = inspect.signature(original)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.count(counter(bound.arguments, None))
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def wrap_ordered_map(self, owner) -> None:
        """Span the map and each item; items nest under the map in any thread."""
        original = owner.ordered_map

        @functools.wraps(original)
        def ordered_map(fn, items, workers=1):
            n = len(items)
            lanes = min(workers, n) if workers > 1 and n > 1 else 1
            item_name = _span_name(fn)
            with self.span("seeds.ordered_map", lanes=lanes, items=n) as sid:

                def timed(item):
                    stack = self._stack()
                    stack.append(sid)
                    try:
                        with self.span(item_name, item=True):
                            return fn(item)
                    finally:
                        stack.pop()

                return original(timed, items, workers)

        self._replace(owner, "ordered_map", ordered_map)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _segment_pairs(args, result):
    return {"fieldlines.segment_pairs": (len(args["p"]) - 1) * (len(args["q"]) - 1)}


def _chord_pairs(args, result):
    n = int(args["N"])
    return {"hypermc.chord_pairs": n * (n - 1) // 2}


def _triples(args, result):
    return {"hypermc.triples": int(result.metadata["total"])}


def _curl_points(args, result):
    return {"s3.curl_points": 3 * int(args["n_points"])}


def _report_bytes(args, result):
    return {"cli.report_bytes": sum(os.path.getsize(p) for p in result)}


def _haar(args, result):
    return {"quaternions.haar_sample.calls": 1, "quaternions.haar_sample.samples": int(args["n"])}


def install(tracer: Tracer, cli) -> None:
    """Wrap the package's layer boundaries, given its imported cli module."""
    pkg = cli.__name__.rsplit(".", 1)[0]
    fieldlines = sys.modules[f"{pkg}.fieldlines"]
    hypermc, s3 = cli.hypermc, cli.s3
    frames, hyperbolic = cli.frames, cli.hyperbolic

    tracer.wrap(cli, "emit_report", _report_bytes)
    for attr in ("asymptotic_hopf", "helicity_integral", "gauss_linking",
                 "crossing_linking_oracle", "hopf_fiber", "circle_in_chart"):
        tracer.wrap(cli, attr)
    for attr in ("trace_batch", "close_curve", "gauss_linking", "to_r3_polylines",
                 "resample_polyline"):
        tracer.wrap(fieldlines, attr)
    tracer.wrap(fieldlines, "linking_solid_angle", _segment_pairs)
    tracer.wrap(fieldlines.FieldLine, "diameter")
    tracer.wrap(hypermc, "pair_intersection_density", _chord_pairs)
    tracer.wrap(hypermc, "epsilon_limit_scan", _triples)
    for attr in ("parallelism_ratio", "loglog_fit", "alpha_scaling", "m5_quintuple_details",
                 "build_linking_matrix", "to_r3_polylines", "resample_polyline"):
        tracer.wrap(hypermc, attr)
    tracer.wrap(s3, "ym_residual", _curl_points)
    tracer.wrap(s3, "build_frame")
    for attr in ("curl_eigenvalue", "helicity_density_algebraic", "default_fleet"):
        tracer.wrap(frames, attr)
    tracer.wrap(hyperbolic, "lambda_report_row")
    for module in (cli, fieldlines, s3):
        tracer.wrap_count(module, "haar_sample", _haar)
    for module in (fieldlines, hypermc, s3):
        tracer.wrap_ordered_map(module)


# ---------------------------------------------------------------------------
# Analysis of one traced run.
# ---------------------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {
        s.sid: (s.t1 - s.t0) - union_length(children.get(s.sid, ()), s.t0, s.t1)
        for s in spans
    }


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def summarize(spans: list[Span], counters: dict, window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (all LAYER_METRICS but overhead).

    Rates divide a work count by the time spent inside the function, summed
    over threads.  An ordered_map item's time is wall time inside the item,
    so waiting for the interpreter lock counts as busy; wait_s is the time
    the map's lanes held no item, such as a straggler's last stretch.
    """
    selfs = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        self_by_name[s.name] += selfs[s.sid]
        durations[s.name].append(s.t1 - s.t0)

    out: dict[str, float] = {name: 0.0 for name, _, _ in LAYER_METRICS}
    out.update({k: float(v) for k, v in counters.items() if k in out})
    for name, value in self_by_name.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"layer.{layer}.self_s"] += value
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = value

    gl = [s for s in spans if s.name == "fieldlines.gauss_linking"]
    if gl:
        out["fieldlines.gauss_linking.calls"] = float(len(gl))
        ok = sum(1 for s in gl if s.error != "CurvesTooClose")
        out["fieldlines.gauss_linking.ok_ratio"] = ok / len(gl)
        out["fieldlines.gauss_linking.p50_s"] = _quantile(durations["fieldlines.gauss_linking"], 0.5)
        out["fieldlines.gauss_linking.p90_s"] = _quantile(durations["fieldlines.gauss_linking"], 0.9)

    def rate(count: str, span_name: str) -> float:
        busy = sum(durations.get(span_name, ()))
        return out[count] / busy if busy > 0 else 0.0

    out["fieldlines.segment_pairs_per_s"] = rate("fieldlines.segment_pairs", "fieldlines.linking_solid_angle")
    out["hypermc.chord_pairs_per_s"] = rate("hypermc.chord_pairs", "hypermc.pair_intersection_density")
    out["hypermc.triples_per_s"] = rate("hypermc.triples", "hypermc.epsilon_limit_scan")
    out["s3.curl_points_per_s"] = rate("s3.curl_points", "s3.ym_residual")

    maps = [s for s in spans if s.name == "seeds.ordered_map"]
    if maps:
        items = [s for s in spans if s.attrs.get("item")]
        capacity = sum((s.t1 - s.t0) * s.attrs["lanes"] for s in maps)
        busy = sum(s.t1 - s.t0 for s in items)
        out["seeds.ordered_map.calls"] = float(len(maps))
        out["seeds.ordered_map.items"] = float(sum(s.attrs["items"] for s in maps))
        out["seeds.ordered_map.busy_frac"] = busy / capacity if capacity > 0 else 0.0
        out["seeds.ordered_map.wait_s"] = capacity - busy
        item_durations = [s.t1 - s.t0 for s in items]
        out["seeds.ordered_map.item_p50_s"] = _quantile(item_durations, 0.5)
        out["seeds.ordered_map.item_p90_s"] = _quantile(item_durations, 0.9)

    out["frames.curl_eigenvalue.calls"] = float(len(durations.get("frames.curl_eigenvalue", ())))
    for s in spans:
        if s.name == "cli.run":
            out[f"cli.run_s.{s.attrs['verb']}"] += s.t1 - s.t0

    lo, hi = window
    covered = union_length([(s.t0, s.t1) for s in spans if s.name != "cli.run"], lo, hi)
    out["trace.spans"] = float(len(spans))
    out["trace.run_s"] = hi - lo
    out["trace.uncovered_s"] = (hi - lo) - covered
    out["trace.uncovered_frac"] = out["trace.uncovered_s"] / (hi - lo) if hi > lo else 0.0
    return out
