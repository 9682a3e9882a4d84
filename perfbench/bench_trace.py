"""In-memory span tracer that wraps fogndt's layer entry points from outside.

Wrappers replace the names the CLI and library look up at call time (module
functions, methods, cached properties) for the duration of one operation and
put the originals back afterwards, so ``src/`` is never edited and untraced
operations run the unmodified code.  A target that no longer exists is
skipped; the metrics derived from it are then absent from the result.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "cli.main"
DOF = "dof"  # pseudo-target: present when a counting provider could be passed as dof=


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``owner`` is ``module`` or ``module:Class``."""

    span: str
    owner: str
    attr: str
    kind: str = "call"  # "call", "cached_property" or "first_call" (first call per instance)
    inject_dof: bool = False
    after: Callable | None = None  # after(counters, result, args) records counts
    alloc_peak: bool = False


def _count_messages(counters, result, args):
    counters["scheduler.messages"] += len(result)


def _array_bytes(counters, result, args):
    # Computed from array sizes, not measured traffic.
    counters["placement.bytes_computed"] += sum(
        getattr(v, "nbytes", 0) for v in vars(result).values() if hasattr(v, "dtype")
    )


def _decode_counts(counters, result, args):
    placement = args[0]
    counters["oracle.verified_bits"] += placement.cfg.num_ues * placement.file_size_bits
    counters["oracle.fronthaul_bits"] += result.fronthaul_bits
    counters["oracle.access_bits"] += sum(result.access_bits_by_coop.values())
    counters["oracle.padding_bits"] += result.padding_overhead_bits


TARGETS = (
    Target("bounds.bounds_report", "fogndt.bounds", "bounds_report", inject_dof=True),
    Target("bounds.ndt_upper", "fogndt.bounds", "ndt_upper"),
    Target("bounds.ndt_lower", "fogndt.bounds", "ndt_lower"),
    Target("bounds.limit_inf_r", "fogndt.bounds", "ndt_upper_limit_infinite_r"),
    Target("scheduler.build_schedule", "fogndt.cli", "build_schedule", inject_dof=True),
    Target("scheduler.messages", "fogndt.scheduler:GroupPlan", "messages", "cached_property",
           after=_count_messages),
    Target("scheduler.sub_messages", "fogndt.scheduler:GroupPlan", "sub_messages", "cached_property"),
    Target("scheduler.fronthaul", "fogndt.scheduler:GroupPlan", "fronthaul", "cached_property"),
    Target("scheduler.to_json", "fogndt.scheduler:DeliverySchedule", "to_json"),
    Target("placement.sample", "fogndt.cli", "sample_placement", after=_array_bytes, alloc_peak=True),
    Target("placement.cell_index", "fogndt.placement:PlacementRealization", "cell_indices", "first_call"),
    Target("oracle.execute", "fogndt.cli", "execute_schedule", after=_decode_counts),
)


class CountingDof:
    """Per-user DoF provider that counts its calls and delegates to ``base``."""

    def __init__(self, base) -> None:
        self.base = base
        self.calls = 0

    def __call__(self, m, j, cfg):
        self.calls += 1
        return self.base(m, j, cfg)


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, cls_name, None) if cls_name else obj


class Tracer:
    """Spans ``[name, start, end, parent, op]`` kept in memory, one list per run."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.counters: list[defaultdict] = []
        self.present: set[str] = set()
        self._stack = [-1]
        self._seen: set[int] = set()
        self._dof: CountingDof | None = None

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs, after=None):
        rec = [name, 0.0, 0.0, self._stack[-1], len(self.counters) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counters[-1], result, args)
        return result

    def _wrapper(self, t: Target, fn):
        span, after = t.span, t.after
        if t.kind == "first_call":
            def first_call(obj, *args, **kwargs):
                if id(obj) in self._seen:
                    return fn(obj, *args, **kwargs)
                self._seen.add(id(obj))
                return self._span(span, fn, (obj, *args), kwargs, after)
            return first_call
        dof_index = None
        if t.inject_dof and self._dof is not None:
            params = list(inspect.signature(fn).parameters)
            if "dof" in params:
                dof_index = params.index("dof")
                self.present.add(DOF)

        def call(*args, **kwargs):
            if dof_index is not None and len(args) <= dof_index and "dof" not in kwargs:
                kwargs["dof"] = self._dof
            if not t.alloc_peak:
                return self._span(span, fn, args, kwargs, after)
            tracemalloc.start()
            try:
                return self._span(span, fn, args, kwargs, after)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                counters = self.counters[-1]
                counters["placement.peak_alloc_mb"] = max(counters["placement.peak_alloc_mb"], peak)
        return call

    def _install(self) -> list[Callable[[], None]]:
        undo = []
        for t in self.targets:
            owner = _resolve(t.owner)
            current = owner.__dict__.get(t.attr) if owner is not None else None
            if t.kind == "cached_property":
                if not isinstance(current, functools.cached_property):
                    continue
                replacement = functools.cached_property(self._wrapper(t, current.func))
                replacement.__set_name__(owner, t.attr)
            elif callable(current):
                replacement = self._wrapper(t, current)
            else:
                continue
            setattr(owner, t.attr, replacement)
            undo.append(functools.partial(setattr, owner, t.attr, current))
            self.present.add(t.span)
        return undo

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as one traced operation under the root span."""
        self.counters.append(defaultdict(int))
        self._seen = set()
        try:
            from fogndt.dof import per_user_dof_default
            self._dof = CountingDof(per_user_dof_default)
        except ImportError:
            self._dof = None
        undo = self._install()
        try:
            return self._span(ROOT_SPAN, fn, args, {})
        finally:
            for restore in reversed(undo):
                restore()
            if DOF in self.present:
                self.counters[-1]["dof.provider_calls"] = self._dof.calls

    # -- analysis ----------------------------------------------------------

    def op_stats(self) -> list["OpStats"]:
        """Per-operation durations and self times (span minus its child spans)."""
        stats = [OpStats(c) for c in self.counters]
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            s = stats[op]
            duration = end - start
            s.dur[name] += duration
            s.self[name] += duration - child_time[sid]
            s.calls[name] += 1
            if name == "bounds.bounds_report":
                s.samples.append(duration)
        return stats

    def write_spans(self, path) -> None:
        """Write every span as CSV: op, span id, parent id (-1 for the root), name, start, end."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{sid},{parent},{name},{start - base:.9f},{end - base:.9f}\n")


class OpStats:
    def __init__(self, counters) -> None:
        self.counters = counters
        self.dur = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.samples: list[float] = []

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self.items() if k.split(".", 1)[0] == layer)

    def self_times_consistent(self) -> bool:
        """No negative self time, and self times add up to the root span."""
        total = sum(self.self.values())
        root = self.dur[ROOT_SPAN]
        return min(self.self.values(), default=0.0) >= -1e-9 and abs(total - root) <= 1e-6 * max(1.0, root)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name, unit, required targets, value of one operation
PER_OP_METRICS = (
    ("cli.main_s", "s", (), lambda s: s.dur[ROOT_SPAN]),
    ("cli.self_s", "s", (), lambda s: s.self[ROOT_SPAN]),
    ("bounds.calls", "count", ("bounds.bounds_report",), lambda s: s.calls["bounds.bounds_report"]),
    ("bounds.bounds_report_s", "s", ("bounds.bounds_report",), lambda s: s.dur["bounds.bounds_report"]),
    ("bounds.ndt_upper_s", "s", ("bounds.ndt_upper",), lambda s: s.dur["bounds.ndt_upper"]),
    ("bounds.ndt_lower_s", "s", ("bounds.ndt_lower",), lambda s: s.dur["bounds.ndt_lower"]),
    ("bounds.limit_inf_r_s", "s", ("bounds.limit_inf_r",), lambda s: s.dur["bounds.limit_inf_r"]),
    ("bounds.self_s", "s", (), lambda s: s.layer_self("bounds")),
    ("dof.provider_calls", "count", (DOF,), lambda s: s.counters["dof.provider_calls"]),
    ("scheduler.build_schedule_s", "s", ("scheduler.build_schedule",),
     lambda s: s.dur["scheduler.build_schedule"]),
    ("scheduler.messages", "count", ("scheduler.messages",), lambda s: s.counters["scheduler.messages"]),
    ("scheduler.messages_s", "s", ("scheduler.messages",), lambda s: s.dur["scheduler.messages"]),
    ("scheduler.structure_s", "s", ("scheduler.sub_messages", "scheduler.fronthaul"),
     lambda s: s.self["scheduler.sub_messages"] + s.self["scheduler.fronthaul"]),
    ("scheduler.to_json_s", "s", ("scheduler.to_json",), lambda s: s.dur["scheduler.to_json"]),
    ("scheduler.self_s", "s", (), lambda s: s.layer_self("scheduler")),
    ("placement.sample_s", "s", ("placement.sample",), lambda s: s.dur["placement.sample"]),
    ("placement.cell_index_s", "s", ("placement.cell_index",), lambda s: s.dur["placement.cell_index"]),
    ("placement.bytes_computed", "bytes", ("placement.sample",),
     lambda s: s.counters["placement.bytes_computed"]),
    ("placement.peak_alloc_mb", "MB", ("placement.sample",), lambda s: s.counters["placement.peak_alloc_mb"]),
    ("placement.self_s", "s", (), lambda s: s.layer_self("placement")),
    ("oracle.execute_s", "s", ("oracle.execute",), lambda s: s.dur["oracle.execute"]),
    ("oracle.self_s", "s", ("oracle.execute",), lambda s: s.self["oracle.execute"]),
    ("oracle.us_per_message", "us", ("oracle.execute", "scheduler.messages"),
     lambda s: 1e6 * _ratio(s.self["oracle.execute"], s.counters["scheduler.messages"])),
    ("oracle.bits_per_s", "bits/s", ("oracle.execute",),
     lambda s: _ratio(s.counters["oracle.verified_bits"], s.self["oracle.execute"])),
    ("oracle.fronthaul_bits", "bits", ("oracle.execute",), lambda s: s.counters["oracle.fronthaul_bits"]),
    ("oracle.access_bits", "bits", ("oracle.execute",), lambda s: s.counters["oracle.access_bits"]),
    ("oracle.padding_bits", "bits", ("oracle.execute",), lambda s: s.counters["oracle.padding_bits"]),
    ("oracle.padding_ratio", "ratio", ("oracle.execute",),
     lambda s: _ratio(s.counters["oracle.padding_bits"],
                      s.counters["oracle.fronthaul_bits"] + s.counters["oracle.access_bits"])),
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def per_layer_metrics(tracer: Tracer, untraced_s: list[float], traced_s: list[float]) -> dict:
    """Medians over traced operations, bounds_report percentiles and the tracing overhead.

    The lower median keeps counts whole when there is an even number of operations.
    """
    stats = tracer.op_stats()
    metrics = {}
    for name, unit, needs, value in PER_OP_METRICS:
        if all(n in tracer.present for n in needs):
            metrics[name] = {"value": statistics.median_low(value(s) for s in stats), "unit": unit}
    if "bounds.bounds_report" in tracer.present:
        samples = [d for s in stats for d in s.samples]
        metrics["bounds.bounds_report_us_p50"] = {"value": 1e6 * _percentile(samples, 50), "unit": "us"}
        metrics["bounds.bounds_report_us_p99"] = {"value": 1e6 * _percentile(samples, 99), "unit": "us"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
        "unit": "frac",
    }
    return metrics
