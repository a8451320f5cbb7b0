"""Decision-mode DP kernels: answer ``OPT(N) <= m`` without an exact fill.

The bisection/quarter-split predicate (Algorithm 1 line 11) never needs
``OPT(u)`` beyond the machine budget ``m`` — it needs a yes/no at the
corner cell, plus a backtrackable table when the answer is yes.  The
sparsification analyses of makespan PTASes (Jansen–Klein–Verschae)
make the same observation at the LP level; here it is applied to the
table fill:

* :func:`dp_decision` runs the vectorized relaxation of
  :func:`~repro.core.dp_vectorized.dp_vectorized` with every cell
  *clamped at* ``m + 1``: the table is initialised to the clamp
  instead of the unreachable sentinel, so cells whose true ``OPT``
  exceeds the budget can never receive an update (a candidate would
  have to be below the clamp) and the fixpoint arrives within
  ``min(OPT*, m+1) + 1`` rounds instead of ``OPT(N) + 1``.  Rejected
  probes — half of every bisection — stop as soon as nothing under
  the clamp changes; accepted probes additionally stop *early*, the
  moment the corner cell is provably final.
* :class:`DecisionKernel` packages the clamp as a
  :class:`~repro.core.ptas.DPSolver`: the probe driver binds the
  instance's machine count onto it (:meth:`DecisionKernel.bind_machines`)
  and the probe cache isolates its budget-dependent tables via
  :attr:`DecisionKernel.dp_cache_token`.
* :class:`FrontierDecisionKernel` is the *decision-only* extreme: the
  memory-light :func:`~repro.core.dp_frontier.dp_frontier` sweep with
  no dense table at all.  Its result answers feasibility but raises a
  clear :class:`~repro.errors.BackendError` if a schedule extraction
  touches it (the registry marks it ``decision_only`` so the runners
  refuse up front).

Correctness of the clamp (the invariants the property tests pin down):

1. Every stored value below the clamp is the length of a real
   configuration chain from the origin, hence ``>= OPT(u)``; values
   only decrease.  Cells with ``OPT(u) >= m + 1`` therefore hold
   exactly ``m + 1`` forever.
2. After ``r`` completed rounds every cell whose stored value is
   ``<= r`` is *exact* (round induction: a cell with ``OPT = j <= r``
   gains its final value in round ``j`` at the latest, and stored
   values never undercut ``OPT``).  So once the corner holds
   ``v <= min(m, r)`` the fill may stop: the backtrack walk only
   performs ``table[prev] == current - 1`` equality tests with
   ``current <= v``, and by (2) those tests pass **iff** they would
   pass on the exact table — the extracted schedule is bit-identical
   to the full fill's (tested).
3. The clamp value ``m + 1`` never satisfies an equality test
   (``current - 1 <= m - 1 < m + 1``), so saturated cells are inert
   during extraction.

One caveat narrows invariant (1): when the *load bound* already proves
the reject — ``ceil(sum(counts * sizes) / T) > m`` forces
``OPT(N) > m`` because no machine holds more than ``T`` of load — the
kernel returns the clamp-initialised table without filling at all.
Such a table still answers the corner (and any ``fits`` below the
clamp) correctly, but its interior cells all sit at the clamp even
where the true ``OPT(u)`` is small; that is sound because rejected
probes are never backtracked, and the probe cache keys decision
tables per budget so the table can never serve an accepting probe.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.configs import enumerate_configurations
from repro.core.dp_common import (
    DPResult,
    UNREACHABLE,
    empty_dp_result,
    pick_table_dtype,
    widen_table,
)
from repro.core.dp_frontier import dp_frontier
from repro.core.dp_vectorized import (
    dp_vectorized,
    note_warm_convergence,
    relax_table,
    relaxation_passes,
    seed_warm_table,
)
from repro.errors import BackendError, DPError
from repro.observability import context as obs


def dp_decision(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    machines: int,
    configs: Optional[np.ndarray] = None,
    max_rounds: Optional[int] = None,
    sparsify: bool = False,
    plan=None,
    warm_table: Optional[np.ndarray] = None,
) -> DPResult:
    """Clamped relaxation fill deciding ``OPT(N) <= machines``.

    Returns a :class:`~repro.core.dp_common.DPResult` with
    ``clamp = machines + 1``: values below the clamp are exact, cells
    at the clamp have ``OPT`` at least ``machines + 1`` (or no packing
    at all).  Check :attr:`~repro.core.dp_common.DPResult.decided_infeasible`
    before treating the corner as a machine count.  Accepted tables
    backtrack to the same schedule as an exact fill (see the module
    docstring for why).

    ``plan`` is this probe's cached
    :class:`~repro.dptable.plan.ProbePlan`, the source of the config
    processing order (see
    :func:`~repro.core.dp_vectorized.relaxation_passes`).

    ``sparsify=True`` relaxes with the dominance-pruned maximal subset
    (:mod:`repro.core.sparsify`), realised as box passes over the
    maximal subset plus per-round downward-closure sweeps (see
    :func:`~repro.core.dp_vectorized.dp_vectorized`): the cover
    fixpoint equals the partition fixpoint at every cell, invariants
    (1)–(3) survive (a stored value is still the length of a real
    cover, and round ``r`` still finalises every cell with
    ``OPT <= r`` because the sweeps run after the round's box passes),
    and the backtrack still walks the returned *full* ``configs``.

    ``warm_table`` seeds the fill from a cached same-clamp table of a
    smaller scaled budget (upper bounds on this fill's fixpoint, see
    :func:`~repro.core.dp_vectorized.seed_warm_table`).  Warm fills run
    to the no-change fixpoint — the early accept is skipped, because
    invariant (2) ("stored value <= r after r rounds is exact") does
    not cover seeded values — so a warm table *is* the exact clamped
    fixpoint and backtracks like any accepted decision table.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(class_sizes):
        raise DPError("counts and class_sizes must have equal length")
    machines = int(machines)
    if machines < 0:
        raise DPError(f"machines must be >= 0, got {machines}")
    if len(counts) == 0:
        return empty_dp_result()
    if configs is None:
        configs = enumerate_configurations(class_sizes, counts, target)

    clamp = machines + 1
    dtype = pick_table_dtype(clamp)
    shape = tuple(c + 1 for c in counts)
    # Initialise to the clamp, not the unreachable sentinel: cells
    # beyond the budget saturate there and never update, which is the
    # whole speedup.
    table = np.full(shape, clamp, dtype=dtype)
    table[(0,) * len(counts)] = 0

    if configs.shape[0] == 0:
        obs.count("dp.decision.calls")
        return DPResult(table=widen_table(table), configs=configs, clamp=clamp)

    # "Provably > m" without touching the table: every machine carries
    # at most T of load, so ceil(long_load / T) lower-bounds OPT(N).
    # When that alone exceeds the budget the clamp-initialised table
    # (origin 0, everything else saturated) already *is* the answer —
    # deadline-style probes far below the search's lower bound reject
    # in O(1) instead of a full fill.  Accepting probes can never take
    # this exit (T >= LB implies long_load <= m * T).
    long_load = sum(int(c) * int(s) for c, s in zip(counts, class_sizes))
    if long_load > machines * int(target):
        obs.count("dp.decision.calls")
        obs.count("dp.decision.load_rejects")
        obs.count("dp.decision.rejects")
        return DPResult(table=widen_table(table), configs=configs, clamp=clamp)

    warm_init = None
    if warm_table is not None:
        warm_init = seed_warm_table(table, warm_table, cap=clamp)

    if max_rounds is None:
        # Fixpoint within clamp rounds (no finite value exceeds the
        # clamp, and round r finalises every cell with OPT <= r); +2
        # headroom for the no-change detection round.
        max_rounds = min(sum(counts), clamp) + 2

    passes, order, selectors = relaxation_passes(
        configs,
        shape,
        sparsify=sparsify,
        plan=plan,
        counts=counts,
        class_sizes=class_sizes,
        target=target,
    )
    # Invariant (2): after `rounds` full rounds every stored value
    # <= rounds is exact, so once the corner holds such a value within
    # the budget it is final, and so is the whole backtrack chain below
    # it — the fill stops early.  Warm fills skip this: seeded values
    # are upper bounds, not chain lengths, so they run to the no-change
    # fixpoint.
    outcome = relax_table(
        table,
        passes,
        order,
        selectors,
        sweeps=sparsify,
        max_rounds=max_rounds,
        accept_limit=machines if warm_init is None else None,
    )
    if outcome is None:
        raise DPError(
            f"clamped relaxation did not converge within {max_rounds} rounds "
            f"(shape={shape}, |C|={configs.shape[0]}, clamp={clamp})"
        )
    rounds, early = outcome
    if early:
        obs.count("dp.decision.early_accept")

    if warm_init is not None:
        note_warm_convergence(table, warm_init)

    obs.count("dp.decision.calls")
    obs.count("dp.decision.rounds", rounds)
    obs.count("dp.decision.config_passes", rounds * passes.shape[0])
    result = DPResult(table=widen_table(table), configs=configs, clamp=clamp)
    if result.decided_infeasible:
        obs.count("dp.decision.rejects")
    return result


class DecisionKernel:
    """:class:`~repro.core.ptas.DPSolver` wrapper around :func:`dp_decision`.

    The machine budget is not part of the ``DPSolver`` call signature,
    so the kernel carries it as state: the probe driver calls
    :meth:`bind_machines` with the instance's machine count before the
    DP runs.  Unbound (e.g. called directly in a backend agreement
    test), the kernel falls back to the exact
    :func:`~repro.core.dp_vectorized.dp_vectorized` fill — same
    tables, no clamp.

    ``plan_cache`` (a :class:`~repro.core.probe_cache.PlanCache`)
    supplies the cached config processing order; plans are fetched
    lazily (``eager=False``) because the kernel needs no other layer.

    ``sparsify`` (default on — the decision kernels are the intended
    consumers of dominance pruning) relaxes with the plan's maximal
    subset via box passes and closure sweeps; results stay
    bit-identical to the dense
    fill (see :mod:`repro.core.sparsify`).  ``--no-sparsify`` and the
    service knobs thread ``sparsify=False`` through here.
    """

    #: the probe cache may seed this kernel's fills from nearby-budget
    #: cached tables (same ``dp_cache_token`` family).
    supports_warm_start = True
    #: the probe driver may toggle dominance pruning per fill.
    supports_sparsify = True

    def __init__(
        self,
        machines: Optional[int] = None,
        plan_cache=None,
        sparsify: bool = True,
    ) -> None:
        self.machines = None if machines is None else int(machines)
        self.plan_cache = plan_cache
        self.sparsify = bool(sparsify)

    def bind_machines(self, machines: Optional[int]) -> "DecisionKernel":
        """A copy of this kernel clamped at ``machines + 1``.

        ``None`` *unbinds*: fills whose tables must stay exact (the
        multi-fill models compose tables across machine types) pass it
        to force the exact fallback even on a previously-bound kernel.
        """
        return DecisionKernel(
            machines=machines, plan_cache=self.plan_cache, sparsify=self.sparsify
        )

    @property
    def dp_cache_token(self) -> Optional[tuple]:
        """Probe-cache isolation key: clamped tables are per-budget.

        ``sparsify`` does not enter the token — sparse and dense fills
        share one fixpoint, so their cached tables are interchangeable.
        """
        if self.machines is None:
            return None
        return ("decision", self.machines)

    def _plan(self, counts, class_sizes, target, configs, model_token=None):
        if self.plan_cache is None:
            return None
        return self.plan_cache.plan(
            tuple(int(c) for c in counts),
            tuple(int(s) for s in class_sizes),
            int(target),
            configs,
            eager=False,
            model_token=model_token,
        )

    def __call__(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        model_token: Optional[tuple] = None,
        sparsify: Optional[bool] = None,
        warm_table: Optional[np.ndarray] = None,
    ) -> DPResult:
        counts = tuple(int(c) for c in counts)
        if len(counts) == 0:
            return empty_dp_result()
        if configs is None:
            configs = enumerate_configurations(class_sizes, counts, target)
        effective = self.sparsify if sparsify is None else bool(sparsify)
        plan = self._plan(
            counts, class_sizes, target, configs, model_token=model_token
        )
        if self.machines is None:
            return dp_vectorized(
                counts,
                class_sizes,
                target,
                configs=configs,
                sparsify=effective,
                plan=plan,
                warm_table=warm_table,
            )
        return dp_decision(
            counts,
            class_sizes,
            target,
            machines=self.machines,
            configs=configs,
            sparsify=effective,
            plan=plan,
            warm_table=warm_table,
        )

    def __repr__(self) -> str:
        bound = "unbound" if self.machines is None else f"m={self.machines}"
        return f"DecisionKernel({bound})"


class FeasibilityResult:
    """Decision-only probe answer: ``OPT(N)`` with no table behind it.

    Quacks like a :class:`~repro.core.dp_common.DPResult` for the
    probe driver's feasibility checks, but any touch of :attr:`table`
    — i.e. any attempt to extract a schedule — raises a
    :class:`~repro.errors.BackendError` naming the fix, instead of
    the bare ``AttributeError`` this used to be.
    """

    clamp = None

    def __init__(self, opt: int, configs: np.ndarray) -> None:
        self._opt = int(opt)
        self.configs = configs

    @property
    def opt(self) -> int:
        """``OPT(N)`` — exact, or :data:`UNREACHABLE` if no packing exists."""
        return self._opt

    @property
    def feasible(self) -> bool:
        """Whether any packing of the full job vector exists."""
        return self._opt < UNREACHABLE

    @property
    def decided_infeasible(self) -> bool:
        """Frontier answers are exact — nothing is clamped away."""
        return False

    def fits(self, machines: int) -> bool:
        """``OPT(N) <= machines`` — exact, no clamp caveats."""
        return self._opt <= int(machines)

    @property
    def table(self) -> np.ndarray:
        raise BackendError(
            "the frontier-decision backend is decision-only: it answers "
            "OPT(N) <= m without materialising the DP table, so no "
            "schedule can be extracted from it — use a table-producing "
            "backend (e.g. 'vectorized', 'decision', or 'auto') when a "
            "schedule is needed"
        )

    def __repr__(self) -> str:
        shown = "UNREACHABLE" if self._opt >= UNREACHABLE else self._opt
        return f"FeasibilityResult(opt={shown})"


class FrontierDecisionKernel:
    """Decision-only solver: the windowed frontier sweep, no dense table.

    Registered as ``"frontier-decision"`` with the ``decision_only``
    capability — the runners refuse to build schedules with it, and a
    direct extraction attempt hits :attr:`FeasibilityResult.table`'s
    loud error.  Use it to answer feasibility on tables too large to
    materialise.
    """

    def __call__(
        self,
        counts: Sequence[int],
        class_sizes: Sequence[int],
        target: int,
        configs: Optional[np.ndarray] = None,
        model_token: Optional[tuple] = None,
    ) -> FeasibilityResult:
        counts = tuple(int(c) for c in counts)
        if configs is None:
            configs = enumerate_configurations(class_sizes, counts, target)
        opt = dp_frontier(counts, class_sizes, target, configs)
        return FeasibilityResult(opt=opt, configs=configs)

    def __repr__(self) -> str:
        return "FrontierDecisionKernel()"
