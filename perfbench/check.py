"""The correctness gate: every answer the front-ends deliver is checked.

A request fails the gate when its answer is degraded, its schedule is
infeasible for its machine model, its makespan exceeds the PTAS
guarantee ``(1 + eps) * final_target``, or (service only) its stages
arrive out of order or not at all.  Across front-ends and runs the same
corpus instance must get the same makespan: every answer for one
instance in a run agrees, and the run's makespan digest must equal the
digest any earlier run of the workload, whatever its seed, stored in
the checkout's build directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional


class Gate:
    """Tallies attempted and failed requests, keeping the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        #: service requests whose refined makespan exceeded the bound's
        self.refined_worse = 0
        self.refined_total = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def violation(self, reason: str) -> None:
        """A failure that is not tied to one attempted request."""
        self.fail(reason)
        self.attempted += 1

    def _ptas_problem(self, result) -> Optional[str]:
        from repro.errors import InvalidScheduleError
        from repro.models import verify_schedule

        if result is None:
            return "no result delivered"
        if result.degraded:
            return f"degraded: {result.error}"
        ptas = result.result
        try:
            verify_schedule(ptas.schedule)
        except InvalidScheduleError as exc:
            return f"infeasible schedule: {exc}"
        if ptas.makespan > (1.0 + ptas.eps) * ptas.final_target + 1e-9:
            return (
                f"makespan {ptas.makespan} > (1+{ptas.eps})*{ptas.final_target}"
            )
        return None

    def answer(self, makespans: Dict[int, int], corpus_id: int, makespan: int) -> None:
        """Record one answer; every answer for one instance must agree."""
        seen = makespans.setdefault(corpus_id, makespan)
        if seen != makespan:
            self.violation(f"instance {corpus_id}: makespan {makespan} != {seen}")

    def batch(self, report, trace, makespans: Dict[int, int]) -> None:
        """Check a batch report against the trace it answered."""
        if len(report.results) != len(trace):
            self.violation(f"batch returned {len(report.results)} of {len(trace)} results")
        for item, arrival in zip(report.results, trace):
            self.attempted += 1
            problem = self._ptas_problem(item)
            if problem:
                self.fail(f"{item.name}: {problem}")
                continue
            self.answer(makespans, arrival.corpus_id, item.result.makespan)

    def serve(self, phase, expected: int, makespans: Dict[int, int]) -> None:
        """Check one service phase."""
        from repro.errors import InvalidScheduleError
        from repro.models import verify_schedule

        if len(phase.deliveries) != expected:
            self.violation(
                f"{phase.kind}: {len(phase.deliveries)} of {expected} requests submitted"
            )
        for d in phase.deliveries:
            self.attempted += 1
            name = f"{phase.kind}{d.arrival.index}"
            if d.stages != ["bound", "refined"] or d.bound is None:
                self.fail(f"{name}: stages {d.stages}, bound first required")
                continue
            problem = self._ptas_problem(d.refined)
            if problem is None:
                try:
                    verify_schedule(d.bound.schedule)
                except InvalidScheduleError as exc:
                    problem = f"infeasible bound schedule: {exc}"
            if problem is None and d.refined.result.final_target > d.bound.makespan:
                # final_target <= OPT <= any feasible makespan
                problem = (
                    f"final target {d.refined.result.final_target} above the "
                    f"bound's feasible makespan {d.bound.makespan}"
                )
            if problem:
                self.fail(f"{name}: {problem}")
                continue
            self.refined_total += 1
            if d.refined.makespan > d.bound.makespan:
                self.refined_worse += 1
            self.answer(makespans, d.arrival.corpus_id, d.refined.makespan)


def digest(makespans: Dict[int, int]) -> str:
    body = ",".join(f"{key}:{makespans[key]}" for key in sorted(makespans))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def check_digest(gate: Gate, store_path: str, key: str, value: str) -> None:
    """Compare ``value`` with the digest stored under ``key``, or store it."""
    stored: Dict[str, str] = {}
    if os.path.exists(store_path):
        with open(store_path) as handle:
            stored = json.load(handle)
    if key in stored:
        if stored[key] != value:
            gate.violation(f"makespan digest {value} != {stored[key]} from an earlier run")
        return
    stored[key] = value
    os.makedirs(os.path.dirname(store_path), exist_ok=True)
    tmp = f"{store_path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
    os.replace(tmp, store_path)
