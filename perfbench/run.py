"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload identical-fill --seed 1 --seconds 30 --trace 0

Each run builds a ``BatchScheduler(workers=1)`` and one
``SchedulingService(workers=1)`` per service phase on the production
path (``auto`` backend, default caches, quarter search), warms each on
instances drawn from ``--seed``, then times the workload's corpus in
rounds, each slice through the service phases and then the batch
front-end, and measures set-up in fresh interpreters.
Every answer passes the correctness gate (``check.py``); any violation
prints ``"correct": false`` and exits 1.  ``README.md`` defines every
metric.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
measured trace twice on identically warmed front-ends, untraced and then
with spans around every layer (``layers.py``), and prints the per-layer
metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from check import Gate, check_digest, digest
from drive import NoSpans, percentile, play, rss_mb, run_batch, serve_kinds
from layers import LAYERS, Probes, Spans, TimedSelector, install
from workloads import WORKLOADS, Workload, make_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

#: fresh interpreters started per run to measure set-up
SETUP_PROBES = 6

#: consecutive slices of the trace; each round runs every phase on one
ROUNDS = 24


@dataclass
class Round:
    """One slice of the trace through every service phase, then the batch."""

    chunk: list
    phases: list
    report: object


@dataclass
class Pass:
    """The measured trace through both front-ends, timed end to end."""

    rounds: List[Round]
    #: (start, end) of each timed phase
    windows: list
    rss_start_mb: float
    rss_end_mb: float
    peak_rss_mb: float
    front: "Front"
    #: service counters and cache tallies when timing started
    before: dict

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    @property
    def reports(self) -> list:
        return [r.report for r in self.rounds]

    def phases(self, kind: str) -> list:
        return [phase for r in self.rounds for phase in r.phases if phase.kind == kind]

    @property
    def timed(self) -> list:
        """The phases the bound and generator figures come from: the open loop if any."""
        return self.phases(serve_kinds(self.front.workload)[0])


def measure_setup() -> tuple[float, float]:
    """``(process wall, import time)`` of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return time.perf_counter() - start, float(done.stdout.strip().splitlines()[-1])


def tallies(front: "Front") -> dict:
    """Counters and cache tallies that outlive one pass, for deltas."""

    def copy(stats) -> dict:
        return {kind: dict(getattr(stats, kind)) for kind in ("hits", "misses", "evictions")}

    counters: Dict[str, float] = {}
    for service in front.services.values():
        for name, value in service.tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
    pipelines = [service.pipeline for service in front.services.values()]
    return {
        "counters": counters,
        "caches": [copy(owner.cache.stats) for owner in [front.scheduler, *pipelines]],
        "plans": [copy(owner.plan_cache.stats) for owner in [front.scheduler, *pipelines]],
    }


class Front:
    """A batch scheduler and one started service per service phase.

    Each phase gets its own service, so no phase is answered from caches
    an earlier phase filled with the same requests; every front-end is
    warmed only by the warm-up requests.
    """

    def __init__(self, workload: Workload, loop: asyncio.AbstractEventLoop) -> None:
        from repro.service import BatchScheduler, SchedulingService

        self.workload = workload
        self.loop = loop
        self.scheduler = BatchScheduler(workers=1, eps=workload.eps)
        self.services = {
            kind: SchedulingService(workers=1, eps=workload.eps)
            for kind in serve_kinds(workload)
        }
        for service in self.services.values():
            loop.run_until_complete(service.start())

    def play(self, trace, spans, rounds: int = 1, collect: bool = False) -> tuple:
        """Play ``trace`` in ``rounds`` slices; returns the rounds and windows.

        Each round hands its slice to every service phase, then to the
        batch, so every metric samples the whole run rather than one
        stretch of it.  With ``collect`` each round starts from a full
        garbage collection (not timed), so where the collector's full
        passes fall inside a round does not depend on what ran before it.
        """
        played, windows = [], []
        size = math.ceil(len(trace) / rounds)
        for chunk in (trace[i : i + size] for i in range(0, len(trace), size)):
            if collect:
                gc.collect()
            phases = []
            for kind, service in self.services.items():
                start = time.perf_counter()
                phases.append(
                    self.loop.run_until_complete(play(service, chunk, self.workload, kind, spans))
                )
                windows.append((start, time.perf_counter()))
            start = time.perf_counter()
            report = run_batch(self.scheduler, chunk, self.workload.eps)
            windows.append((start, time.perf_counter()))
            played.append(Round(chunk, phases, report))
        return played, windows

    def measure(self, trace, spans) -> Pass:
        before = tallies(self)
        rss_start, _ = rss_mb()
        rounds, windows = self.play(trace, spans, rounds=ROUNDS, collect=True)
        rss_end, peak = rss_mb()
        return Pass(rounds, windows, rss_start, rss_end, peak, self, before)

    def close(self) -> None:
        for service in self.services.values():
            self.loop.run_until_complete(service.shutdown())
        self.scheduler.close()


def check_pass(gate, run: Pass) -> Dict[int, int]:
    """Gate one pass; returns the makespan of each corpus instance."""
    makespans: Dict[int, int] = {}
    for r in run.rounds:
        gate.batch(r.report, r.chunk, makespans)
        for phase in r.phases:
            gate.serve(phase, len(r.chunk), makespans)
    return makespans


def end_to_end(run: Pass, setup_s: float) -> Dict[str, tuple]:
    solve_ms = [item.wall_s * 1e3 for report in run.reports for item in report.results]
    bursts = run.phases("burst")
    refined_ms = [ms for phase in bursts for ms in phase.refined_ms()]
    bound_ms = [ms for phase in run.timed for ms in phase.bound_ms()]
    return {
        "setup_s": (setup_s, "s"),
        "solve_rate": (len(solve_ms) / sum(report.wall_s for report in run.reports), "req/s"),
        "solve_p50_ms": (percentile(solve_ms, 50), "ms"),
        "solve_p90_ms": (percentile(solve_ms, 90), "ms"),
        "refined_p50_ms": (percentile(refined_ms, 50), "ms"),
        "refined_p90_ms": (percentile(refined_ms, 90), "ms"),
        "bound_p50_ms": (percentile(bound_ms, 50), "ms"),
        "capacity_rps": (len(refined_ms) / sum(phase.wall_s for phase in bursts), "req/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "rss_growth_mb": (run.rss_end_mb - run.rss_start_mb, "MB"),
    }


def per_layer(run: Pass, untraced_wall: float, spans, probes, import_s: float, gate) -> Dict[str, tuple]:
    after = tallies(run.front)
    counters: Dict[str, float] = {}
    for report in run.reports:
        for name, value in report.tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
    for name, value in after["counters"].items():
        counters[name] = counters.get(name, 0) + value - run.before["counters"].get(name, 0)

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    def tally(group: str, field: str, kind: str) -> float:
        return float(
            sum(
                now[field].get(kind, 0) - then[field].get(kind, 0)
                for now, then in zip(after[group], run.before[group])
            )
        )

    def rate(group: str, kind: str) -> float:
        hits = tally(group, "hits", kind)
        total = hits + tally(group, "misses", kind)
        return hits / total if total else 0.0

    self_s = spans.self_seconds()
    calls = spans.calls()
    covered, idle = spans.partition(run.windows)

    deliveries = [d for r in run.rounds for phase in r.phases for d in phase.deliveries]
    timed = [d for phase in run.timed for d in phase.deliveries]
    refined_ms = [ms for phase in run.timed for ms in phase.refined_ms()]
    waits, lags = [], []
    for d in timed:
        ran = probes.runs.get(f"{run.timed[0].kind}{d.arrival.index}")
        if ran is not None and not d.coalesced:
            waits.append((ran[0] - d.bound_at) * 1e3)
            lags.append((d.refined_at - ran[1]) * 1e3)
    requests = calls["pipeline"] or 1
    sparsified = counter("sparsify.kept") + counter("sparsify.dropped")
    cells = float(probes.kernel_cells)
    metrics = {
        "import.s": (import_s, "s"),
        "traced_wall.s": (run.wall_s, "s"),
        "daemon.queue_wait_ms_p50": (percentile(waits, 50), "ms"),
        "daemon.queue_wait_ms_p99": (percentile(waits, 99), "ms"),
        "daemon.coalesced_share": (sum(d.coalesced for d in deliveries) / len(deliveries), "share"),
        "daemon.delivery_lag_ms_p50": (percentile(lags, 50), "ms"),
        "daemon.refined_worse_share": (gate.refined_worse / max(1, gate.refined_total), "share"),
        "loadgen.lag_ms_p99": (percentile([ms for p in run.timed for ms in p.lag_ms()], 99), "ms"),
        "loadgen.refined_p50_ms": (percentile(refined_ms, 50), "ms"),
        "loadgen.refined_p99_ms": (percentile(refined_ms, 99), "ms"),
        "baselines.calls": (calls["baselines"], "count"),
        "pipeline.runs": (calls["pipeline"], "count"),
        "pipeline.degraded": (counter("resilience.degraded"), "count"),
        "search.iterations_per_request": (counter("search.iterations") / requests, "count"),
        "search.probes_per_request": (calls["probe"] / requests, "count"),
        "ptas.probe.calls": (calls["probe"], "count"),
        "probe_cache.rounding.hit_rate": (rate("caches", "rounding"), "share"),
        "probe_cache.rounding.evictions": (tally("caches", "evictions", "rounding"), "count"),
        "probe_cache.configs.hit_rate": (rate("caches", "configs"), "share"),
        "probe_cache.dp.hit_rate": (rate("caches", "dp"), "share"),
        "probe_cache.warmstart.hit_rate": (rate("caches", "warmstart"), "share"),
        "plan_cache.hit_rate": (rate("plans", "plan"), "share"),
        "plan_cache.evictions": (tally("plans", "evictions", "plan"), "count"),
        "rounding.calls": (calls["rounding"], "count"),
        "configs.calls": (calls["configs"], "count"),
        "configs.vectors": (counter("configs.vectors"), "count"),
        "sparsify.calls": (calls["sparsify"], "count"),
        "sparsify.kept_share": (counter("sparsify.kept") / sparsified if sparsified else 0.0, "share"),
        "plan.builds": (calls["plan"], "count"),
        "kernels.fills": (calls["kernels"], "count"),
        "kernels.cells": (cells, "count"),
        "kernels.config_passes": (
            counter("dp.decision.config_passes")
            + counter("dp.vectorized.config_passes")
            + counter("dp.sweep.config_passes"),
            "count",
        ),
        "kernels.choice.decision": (counter("kernel.auto.decision"), "count"),
        "kernels.choice.vectorized": (counter("kernel.auto.vectorized"), "count"),
        "kernels.warm_cells_share": (counter("warmstart.cells_reused") / cells if cells else 0.0, "share"),
        "models.assemble.calls": (calls["models"], "count"),
        "observability.probe_events_retained": (
            sum(len(report.tracer.probes) for report in run.reports)
            + sum(len(service.tracer.probes) for service in run.front.services.values()),
            "count",
        ),
        "observability.trace_overhead_share": ((run.wall_s - untraced_wall) / untraced_wall, "share"),
        "resilience.retries": (counter("resilience.retry"), "count"),
        "parallel.fabric.fills": (counter("fabric.fill.calls"), "count"),
        "failed_share": (gate.failed / max(1, gate.attempted), "share"),
        "idle.s": (idle, "s"),
        "overlap.s": (sum(self_s.values()) - covered, "s"),
        "unattributed.s": (run.wall_s - covered - idle, "s"),
    }
    names = {
        "baselines": "baselines.s",
        "pipeline": "pipeline.s",
        "probe": "ptas.probe.self_s",
        "models": "models.assemble.self_s",
    }
    for layer in LAYERS:
        metrics[names.get(layer, f"{layer}.self_s")] = (self_s[layer], "s")
    return metrics


def run(workload: Workload, seed: int, seconds: int, traced: bool) -> dict:
    trace = make_trace(workload, seconds, seed)
    warm = make_trace(workload, seconds, seed, warmup=True)
    selector = TimedSelector()
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    gate = Gate()
    fronts = [Front(workload, loop) for _ in range(2 if traced else 1)]
    for front in fronts:
        front.play(warm, NoSpans())
    # Set-up is sampled on both sides of the timed pass, never during it.
    setups = [measure_setup() for _ in range(SETUP_PROBES // 2)]
    untraced = fronts[0].measure(trace, NoSpans())
    setups += [measure_setup() for _ in range(SETUP_PROBES - len(setups))]
    setup_s = statistics.median(wall for wall, _ in setups)
    import_s = statistics.median(imported for _, imported in setups)
    makespans = check_pass(gate, untraced)
    result: Dict[str, tuple]
    if traced:
        spans, probes = Spans(), Probes()
        missing = install(spans, probes)
        if missing:
            print(f"layers not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
        selector.spans = spans
        measured = fronts[1].measure(trace, spans)
        selector.spans = None
        if check_pass(gate, measured) != makespans:
            gate.violation("traced and untraced runs gave different makespans")
        result = per_layer(measured, untraced.wall_s, spans, probes, import_s, gate)
    else:
        result = end_to_end(untraced, setup_s)
    check_digest(
        gate,
        os.path.join(BUILD, "digests.json"),
        f"{workload.name}|seconds={seconds}",
        digest(makespans),
    )
    for front in fronts:
        front.close()
    loop.close()
    for reason in gate.reasons:
        print(f"correctness: {reason}", file=sys.stderr)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    # The only build step of a pure-Python package: byte-compile it, so
    # every run (the first included) times imports from compiled code.
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: byte-compiling src failed", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
