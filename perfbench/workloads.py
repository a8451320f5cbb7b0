"""The benchmark's three workloads and the seeded inputs each one runs.

Inputs are a pure function of ``(workload, seed, seconds)``: the same
arguments always produce the same instances, arrival times, tenants and
priorities.  The instances themselves come from each workload's fixed
corpus; the seed orders and repeats them and draws the arrivals.  The
program under test only ever sees the generated instances; nothing here
calls the program's own generators, so a change to the program cannot
silently change the benchmark's inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

#: Tenants and priority weights (HIGH, NORMAL, LOW) of generated
#: requests: the shape of ``repro.service.LoadProfile``'s defaults.
TENANTS = ("tenant-a", "tenant-b")
PRIORITY_MIX = (0.2, 0.6, 0.2)


@dataclass(frozen=True)
class Workload:
    """One workload: an instance family and how the front-ends see it.

    ``requests_per_s`` sizes the request list per second of
    ``--seconds``; both front-ends answer the whole list.
    ``open_loop_hz`` is the Poisson arrival rate of the service's
    open-loop phase; ``None`` means the service receives the list as one
    burst only (a client handing the daemon a whole batch).
    """

    name: str
    jobs: int
    machines: int
    eps: float
    requests_per_s: float
    #: seed of the workload's instance corpus, the same in every run
    corpus_seed: int
    open_loop_hz: Optional[float] = None
    duplicate_fraction: float = 0.0
    type_speeds: Tuple[int, ...] = ()
    machines_per_type: Tuple[int, ...] = ()
    #: warm-up requests, drawn from ``--seed``, run before timing starts
    warmup_requests: int = 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="identical-fill",
            jobs=24,
            machines=5,
            eps=0.15,
            requests_per_s=3.4,
            corpus_seed=24,
        ),
        Workload(
            name="few-types-compose",
            jobs=18,
            machines=4,
            eps=0.25,
            requests_per_s=8.0,
            corpus_seed=18,
            type_speeds=(1, 2),
            machines_per_type=(2, 2),
            warmup_requests=20,
        ),
        Workload(
            name="serve-mixed",
            jobs=30,
            machines=5,
            eps=0.3,
            requests_per_s=45.0,
            corpus_seed=30,
            open_loop_hz=100.0,
            duplicate_fraction=0.4,
            warmup_requests=200,
        ),
    )
}


@dataclass(frozen=True)
class Arrival:
    """One request of a trace: when it is due and what it asks."""

    index: int
    at_s: float
    #: which corpus instance the request asks to schedule
    corpus_id: int
    instance: object
    tenant: str
    priority: int


def _instance(workload: Workload, rng: np.random.Generator):
    from repro import Instance

    times = tuple(int(t) for t in rng.integers(1, 101, size=workload.jobs))
    if not workload.type_speeds:
        return Instance(times, workload.machines)
    return Instance(
        times,
        workload.machines,
        model="unrelated-few-types",
        type_speeds=workload.type_speeds,
        machines_per_type=workload.machines_per_type,
    )


def make_trace(workload: Workload, seconds: int, seed: int, warmup: bool = False) -> List[Arrival]:
    """The requests of a ``seconds`` run, or its warm-up requests.

    The measured requests answer the workload's fixed corpus: instance
    ``i`` is drawn from ``corpus_seed`` alone, so every run of one
    workload and length solves the same instances and must return the
    same makespan for each.  ``seed`` draws everything else: the order
    of the corpus, which arrivals repeat an earlier one (a fixed
    ``duplicate_fraction`` of them, never the first), the exponential
    gaps at ``open_loop_hz``, tenants and priorities.  The warm-up
    instances come from ``seed`` itself, so no cache entry the warm-up
    fills can serve the measured requests.

    The streams' entropy words never coincide: the corpus is
    ``[corpus_seed]``, which numpy pads to ``[corpus_seed, 0]``, and
    every stream drawn from ``seed`` ends in a nonzero tag, so a seed
    equal to a corpus seed does not replay the corpus in the warm-up.
    """
    rng = np.random.default_rng([int(seed), 1 if warmup else 2])
    total = workload.warmup_requests if warmup else max(1, math.ceil(workload.requests_per_s * seconds))
    repeats = round(workload.duplicate_fraction * (total - 1))
    fresh = total - repeats
    source = np.random.default_rng([int(seed), 3] if warmup else [workload.corpus_seed])
    corpus = [_instance(workload, source) for _ in range(fresh)]
    order = rng.permutation(fresh)
    repeat_at = set((1 + rng.choice(total - 1, size=repeats, replace=False)).tolist())
    weights = np.asarray(PRIORITY_MIX) / sum(PRIORITY_MIX)
    arrivals: List[Arrival] = []
    clock = 0.0
    fresh_taken = 0
    for i in range(total):
        if workload.open_loop_hz:
            clock += float(rng.exponential(1.0 / workload.open_loop_hz))
        if i in repeat_at:
            corpus_id = arrivals[int(rng.integers(0, len(arrivals)))].corpus_id
        else:
            corpus_id = int(order[fresh_taken])
            fresh_taken += 1
        arrivals.append(
            Arrival(
                index=i,
                at_s=clock,
                corpus_id=corpus_id,
                instance=corpus[corpus_id],
                tenant=TENANTS[i % len(TENANTS)],
                priority=int(rng.choice(3, p=weights)),
            )
        )
    return arrivals
