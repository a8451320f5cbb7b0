"""Drive the two public front-ends and record what a caller sees.

:func:`run_batch` hands a request list to a ``BatchScheduler`` (closed
loop: one call, results in order).  :func:`play` submits the same list
to a started ``SchedulingService``: open loop, each request submitted at
its due time whether or not earlier ones finished, or as one burst.
Refined answers are timed from the request's due time, so a stalled
generator shows as latency on the requests it delayed; the generator's
own lateness and the time ``submit`` held the caller are kept per
request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Sequence

from workloads import Arrival, Workload


@dataclass
class Delivery:
    """One service request, from due time to refined answer."""

    arrival: Arrival
    #: latency is timed from here
    due: float
    #: when the generator meant to submit; later is generator lag
    planned: float
    submitted: float = 0.0
    #: when ``submit`` returned; the bound answer is readable from then
    bound_at: float = 0.0
    refined_at: float = 0.0
    coalesced: bool = False
    bound: object = None
    refined: object = None
    #: stages in the order the handle's stream yielded them
    stages: List[str] = field(default_factory=list)


@dataclass
class ServePhase:
    """One open-loop or burst pass of a trace through the service."""

    kind: str
    deliveries: List[Delivery]
    wall_s: float

    def refined_ms(self) -> List[float]:
        """Refined-answer latency, from each request's due time."""
        return [(d.refined_at - d.due) * 1e3 for d in self.deliveries]

    def bound_ms(self) -> List[float]:
        """Time ``submit`` held its caller until the bound was readable."""
        return [(d.bound_at - d.submitted) * 1e3 for d in self.deliveries]

    def lag_ms(self) -> List[float]:
        """How late the generator submitted each request."""
        return [(d.submitted - d.planned) * 1e3 for d in self.deliveries]


def run_batch(scheduler, trace: Sequence[Arrival], eps: float):
    """One ``BatchScheduler.run`` over ``trace``; returns its report."""
    from repro.service import BatchRequest

    requests = [
        BatchRequest(instance=a.instance, eps=eps, search="quarter", name=f"b{a.index}")
        for a in trace
    ]
    return scheduler.run(requests)


async def _consume(handle, delivery: Delivery) -> None:
    async for stage, payload in handle.stream():
        delivery.stages.append(stage)
        if stage == "refined":
            delivery.refined_at = time.perf_counter()
            delivery.refined = payload


async def play(service, trace: Sequence[Arrival], workload: Workload, kind: str, spans) -> ServePhase:
    """Submit ``trace`` open loop (``kind="open"``) or as one burst.

    Open loop: each request is due, and submitted, at its arrival time,
    counted from the first arrival of ``trace``.
    Burst: every request is due when the phase starts and the client
    hands them in back to back without yielding to the event loop, so
    the service's worker starts draining only after the last
    submission: the bound stage runs with no fill competing for the
    interpreter.
    """
    from repro.service import Priority

    consumers: List[asyncio.Task] = []
    deliveries: List[Delivery] = []
    start = time.perf_counter()
    origin = trace[0].at_s
    for arrival in trace:
        due = planned = start + (arrival.at_s - origin if kind == "open" else 0.0)
        delay = planned - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        with spans.span("loadgen"):
            delivery = Delivery(
                arrival=arrival, due=due, planned=planned, submitted=time.perf_counter()
            )
            handle = await service.submit(
                arrival.instance,
                eps=workload.eps,
                search="quarter",
                tenant=arrival.tenant,
                priority=Priority(arrival.priority),
                name=f"{kind}{arrival.index}",
            )
            delivery.bound_at = time.perf_counter()
            delivery.coalesced = handle.coalesced
            if handle.bound.done():
                delivery.bound = handle.bound.result()
            deliveries.append(delivery)
        consumers.append(asyncio.ensure_future(_consume(handle, delivery)))
    await asyncio.gather(*consumers)
    return ServePhase(kind=kind, deliveries=deliveries, wall_s=time.perf_counter() - start)


def serve_kinds(workload: Workload) -> List[str]:
    """The service phases of a workload: the open loop if any, then the burst."""
    return ["open", "burst"] if workload.open_loop_hz else ["burst"]


def rss_mb() -> tuple[float, float]:
    """``(VmRSS, VmHWM)`` of this process in MB, from ``/proc/self/status``."""
    values = {}
    with open("/proc/self/status") as status:
        for line in status:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values["VmRSS"], values["VmHWM"]


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class NoSpans:
    """Stand-in for :class:`layers.Spans` in untraced runs."""

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _null = _Null()

    def span(self, layer: str):
        return self._null

