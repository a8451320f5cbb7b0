"""Spans around each layer's entry points, installed from outside the program.

The traced run wraps the functions and methods through which one layer
calls the next, at the name its caller looks up at call time: module
attributes (for ``from … import`` bindings, every loaded ``repro``
module that holds the same function object is rebound), class
attributes for methods, and the lazily built layers of
``ProbePlan``.  Nothing in ``src/`` changes; the untraced runs never
install these wrappers.

A span's *self time* is its duration minus the time its child spans
cover.  The current span lives in a ``ContextVar``, so asyncio tasks and
executor threads each keep their own stack; self times are tallied per
thread and summed at the end, so the layers' self times add up to the
total time spent inside top-level spans, counted once per thread.

:meth:`Spans.partition` splits the timed wall clock into time inside
some top-level span (of any thread), time the event loop waited with no
span open, and the rest.  When the event loop and a worker thread are
inside spans at once, the self times count that stretch twice; the
difference is reported as overlap.
"""

from __future__ import annotations

import functools
import inspect
import selectors
import sys
import threading
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer whose self time the traced run reports, in report order.
LAYERS = (
    "daemon",
    "loadgen",
    "pipeline",
    "search",
    "probe",
    "probe_cache",
    "rounding",
    "configs",
    "sparsify",
    "plan",
    "kernels",
    "models",
    "baselines",
    "observability",
)


class _Frame:
    __slots__ = ("start", "child", "parent")

    def __init__(self, start: float, parent: Optional["_Frame"]) -> None:
        self.start = start
        self.child = 0.0
        self.parent = parent


class _Tally:
    """One thread's accumulators (only its own thread writes them)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.roots: List[Tuple[float, float]] = []


class Spans:
    """Span recorder: per-layer self time, call counts, root intervals."""

    def __init__(self) -> None:
        self._current: ContextVar[Optional[_Frame]] = ContextVar(
            "perfbench_span", default=None
        )
        self._local = threading.local()
        self._tallies: List[_Tally] = []
        self._lock = threading.Lock()
        #: intervals the event loop spent blocked waiting for I/O or timers
        self.loop_waits: List[Tuple[float, float]] = []

    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            with self._lock:
                self._tallies.append(tally)
            self._local.tally = tally
        return tally

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        total = dict.fromkeys(LAYERS, 0.0)
        for tally in self._tallies:
            for layer, seconds in tally.self_s.items():
                total[layer] += seconds
        return total

    def calls(self) -> Dict[str, int]:
        total = dict.fromkeys(LAYERS, 0)
        for tally in self._tallies:
            for layer, n in tally.calls.items():
                total[layer] += n
        return total

    def partition(self, windows: List[Tuple[float, float]]) -> Tuple[float, float]:
        """``(covered, idle)`` seconds of the timed ``windows``.

        ``covered`` is the time some thread was inside a top-level span;
        ``idle`` the time the event loop waited for I/O or timers while
        no span was open.  The two are disjoint, so the rest of the
        windows' time is in neither.
        """
        busy = _union(interval for tally in self._tallies for interval in tally.roots)
        covered = idle = 0.0
        for start, end in windows:
            covered += _covered(busy, start, end)
        for wait_start, wait_end in self.loop_waits:
            for start, end in windows:
                lo, hi = max(start, wait_start), min(end, wait_end)
                if hi > lo:
                    idle += (hi - lo) - _covered(busy, lo, hi)
        return covered, idle


class _Span:
    __slots__ = ("spans", "layer", "frame", "token")

    def __init__(self, spans: Spans, layer: str) -> None:
        self.spans = spans
        self.layer = layer

    def __enter__(self) -> "_Span":
        current = self.spans._current
        self.frame = _Frame(perf_counter(), current.get())
        self.token = current.set(self.frame)
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = perf_counter()
        self.spans._current.reset(self.token)
        frame = self.frame
        duration = end - frame.start
        tally = self.spans._tally()
        tally.self_s[self.layer] += duration - frame.child
        tally.calls[self.layer] += 1
        if frame.parent is None:
            tally.roots.append((frame.start, end))
        else:
            frame.parent.child += duration


def _union(intervals) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _covered(merged: List[Tuple[float, float]], start: float, end: float) -> float:
    import bisect

    i = max(0, bisect.bisect_right(merged, (start, float("inf"))) - 1)
    covered = 0.0
    while i < len(merged) and merged[i][0] < end:
        lo, hi = max(start, merged[i][0]), min(end, merged[i][1])
        if hi > lo:
            covered += hi - lo
        i += 1
    return covered


class TimedSelector(selectors.DefaultSelector):
    """The event loop's selector, recording how long each wait blocked."""

    def __init__(self, spans: Optional[Spans] = None) -> None:
        super().__init__()
        self.spans = spans

    def select(self, timeout=None):
        if self.spans is None:
            return super().select(timeout)
        start = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.spans.loop_waits.append((start, perf_counter()))


# -- installing the wrappers -------------------------------------------------


def _wrapper(fn: Callable, layer: str, spans: Spans, hook=None) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            with spans.span(layer):
                return await fn(*args, **kwargs)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = perf_counter()
        with spans.span(layer):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(args, kwargs, start, perf_counter())
        return result

    return traced


def _rebind_function(module_name: str, name: str, layer: str, spans: Spans, missing: List[str]) -> None:
    """Wrap ``module.name`` in every loaded ``repro`` module that binds it."""
    module = sys.modules.get(module_name)
    fn = getattr(module, name, None) if module is not None else None
    if fn is None:
        missing.append(f"{module_name}.{name}")
        return
    traced = _wrapper(fn, layer, spans)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, traced)


def _rebind_method(cls, name: str, layer: str, spans: Spans, missing: List[str], hook=None) -> None:
    """Wrap method ``name`` on the class of ``cls``'s MRO that defines it."""
    for owner in cls.__mro__:
        if name in owner.__dict__:
            setattr(owner, name, _wrapper(owner.__dict__[name], layer, spans, hook))
            return
    missing.append(f"{cls.__name__}.{name}")


def _rebind_plan_layers(plan_cls, spans: Spans) -> None:
    """Wrap every lazily built ``ProbePlan`` layer (``cached_property``)."""
    for name, attr in list(vars(plan_cls).items()):
        if isinstance(attr, functools.cached_property):
            layer = functools.cached_property(_wrapper(attr.func, "plan", spans))
            layer.__set_name__(plan_cls, name)
            setattr(plan_cls, name, layer)


class Probes:
    """What the wrappers observe beyond time: kernel cells, run times."""

    def __init__(self) -> None:
        self.kernel_cells = 0
        #: pipeline run (start, end) per request name
        self.runs: Dict[str, Tuple[float, float]] = {}
        self._lock = threading.Lock()

    def kernel_call(self, args, kwargs, start, end) -> None:
        counts = args[1] if len(args) > 1 else kwargs["counts"]
        cells = 1
        for c in counts:
            cells *= int(c) + 1
        with self._lock:
            self.kernel_cells += cells

    def pipeline_run(self, args, kwargs, start, end) -> None:
        request = args[1] if len(args) > 1 else kwargs["request"]
        self.runs[request.name] = (start, end)


def install(spans: Spans, probes: Probes) -> List[str]:
    """Wrap every layer's entry points; returns the names not found."""
    from repro.core import executor, probe_cache
    from repro.core.kernels.auto import AutoKernel
    from repro.dptable.plan import ProbePlan
    from repro.models import get_model, model_names
    from repro.observability import ServiceMetrics, Tracer
    from repro.service.daemon import SchedulingService
    from repro.service.pipeline import ProbePipeline

    missing: List[str] = []
    for module_name, name, layer in (
        ("repro.core.baselines", "best_baseline", "baselines"),
        ("repro.core.ptas", "ptas_schedule", "search"),
        ("repro.core.quarter_split", "quarter_split_search", "search"),
        ("repro.core.bisection", "bisection_search", "search"),
        ("repro.core.search_common", "finalize_search", "search"),
        ("repro.core.ptas", "probe_target", "probe"),
        ("repro.core.rounding", "round_instance", "rounding"),
        ("repro.core.configs", "enumerate_configurations", "configs"),
        ("repro.core.sparsify", "sparsify_configurations", "sparsify"),
        ("repro.dptable.plan", "build_probe_plan", "plan"),
        ("repro.core.ptas", "_emit_probe_trace", "observability"),
    ):
        _rebind_function(module_name, name, layer, spans, missing)
    for cls, name, layer, hook in (
        (ProbePipeline, "run", "pipeline", probes.pipeline_run),
        (executor.SequentialExecutor, "run_round", "search", None),
        (probe_cache.ProbeCache, "rounding", "probe_cache", None),
        (probe_cache.ProbeCache, "configurations", "probe_cache", None),
        (probe_cache.ProbeCache, "dp", "probe_cache", None),
        (probe_cache.ProbeCache, "geometry", "probe_cache", None),
        (probe_cache.PlanCache, "plan", "probe_cache", None),
        (AutoKernel, "__call__", "kernels", probes.kernel_call),
        (Tracer, "merge", "observability", None),
        (ServiceMetrics, "record_latency", "observability", None),
        (SchedulingService, "submit", "daemon", None),
        (SchedulingService, "_compute_bound", "daemon", None),
        (SchedulingService, "_deliver_bound", "daemon", None),
        (SchedulingService, "_finish_entry", "daemon", None),
        (SchedulingService, "_stamp", "daemon", None),
    ):
        _rebind_method(cls, name, layer, spans, missing, hook)
    for cls in {type(get_model(name)) for name in model_names()}:
        if "assemble" in cls.__dict__:
            _rebind_method(cls, "assemble", "models", spans, missing)
    _rebind_plan_layers(ProbePlan, spans)
    return missing
