"""Vectorized high-dimensional DP (the library's production solver).

Equation 1 defines a shortest-path problem on the lattice
``prod(n_i + 1)``: edges subtract one configuration, all edges have
weight 1, and ``OPT(u)`` is the distance from the origin.  Instead of
walking cells one by one (Algorithm 2), this solver runs *whole-table
relaxation rounds*: for each configuration ``c`` it takes the
elementwise minimum between a shifted view of the table and the table
plus one —

    ``OPT[c_1:, ..., c_d:] = min(OPT[c_1:, ..., c_d:], OPT[:-c_1, ..., :-c_d] + 1)``

— a single numpy slice operation touching every cell at once.  Rounds
repeat until a fixpoint.  Because ``OPT`` values are machine counts, at
most ``OPT(N) + 1`` rounds are needed (each round finalises all cells
one more edge away from the origin — in practice far fewer because
in-place updates propagate within a round); each round costs
``O(|C| * sigma)`` flat numpy work with no Python-level per-cell loop,
following the vectorization idiom of the HPC guides.

The result is bit-identical to :func:`repro.core.dp_reference.dp_reference`
(tested), at orders of magnitude higher throughput.

The rounds run in the compiled loop of :mod:`repro.core.native` when it
builds (:func:`relax_table`); the NumPy loop here (:func:`relax_numpy`)
is its fallback and the reference it is tested against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.configs import enumerate_configurations
from repro.core.dp_common import (
    DPResult,
    UNREACHABLE,
    empty_dp_result,
    pick_table_dtype,
    unreachable_for,
    widen_table,
)
from repro.core.rounding import RoundedInstance
from repro.errors import DPError
from repro.observability import context as obs


def shift_selectors(
    shape: tuple[int, ...], configs: np.ndarray, order: np.ndarray
) -> tuple[tuple[tuple, tuple], ...]:
    """Slice-selector pairs for every configuration's relaxation pass.

    For each config ``c`` (visited in ``order``) the pair selects the
    destination view ``dst[u] = table[u]`` for cells ``u >= c`` and the
    source view ``src[u] = table[u - c]``.  Selectors depend only on
    ``(shape, configs, order)`` — i.e. on the probe *plan*, not on any
    concrete table — so :attr:`repro.dptable.plan.ProbePlan.shift_slices`
    caches them across probes, and a single fill builds them once
    instead of once per relaxation round (the tuple-of-slices
    construction used to dominate small-table fills).
    """
    return tuple(
        (
            tuple(slice(int(c), None) for c in configs[idx]),
            tuple(
                slice(None, s - int(c)) for s, c in zip(shape, configs[idx])
            ),
        )
        for idx in order
    )


def closure_views(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reversed-axis views of ``table`` for the downward-closure sweeps.

    Because the configuration set is downward closed, the exact table
    is coordinatewise monotone (a cover of ``v`` covers every ``u <=
    v``), so ``table[u] <= table[u + e_i]`` at the fixpoint.  View
    ``i`` reverses axis ``i``; a ``np.minimum.accumulate`` over it is
    the suffix-min sweep that propagates each cell's value to all
    dominated cells along that axis.
    """
    d = table.ndim
    return tuple(
        table[tuple(slice(None, None, -1) if a == i else slice(None) for a in range(d))]
        for i in range(d)
    )


def run_closure_sweeps(views: tuple[np.ndarray, ...]) -> None:
    """One downward-closure round: a suffix-min sweep along every axis."""
    for axis, view in enumerate(views):
        np.minimum.accumulate(view, axis=axis, out=view)


def bind_passes(
    table: np.ndarray,
    shifts: tuple[tuple[tuple, tuple], ...],
    scratch: np.ndarray,
    mask: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Materialise per-pass working views against one concrete table.

    Each entry is ``(dst, src, cand, improved)``: the two table views
    of one configuration's shift plus that pass's scratch/mask windows.
    All four are views — binding them once lets the round loop run
    pure ufunc calls with zero per-pass Python construction.  Sharing
    one scratch and one mask across passes is safe because passes run
    sequentially and every pass overwrites its windows before reading.
    """
    bound = []
    for dst_sel, src_sel in shifts:
        dst = table[dst_sel]
        src = table[src_sel]
        cand = scratch[: src.size].reshape(src.shape)
        improved = mask[: src.size].reshape(src.shape)
        bound.append((dst, src, cand, improved))
    return bound


def seed_warm_table(
    table: np.ndarray, warm_table: np.ndarray, cap: int | None = None
) -> np.ndarray:
    """Min-fold a cached table into a freshly initialised fill table.

    ``warm_table`` is a canonical int64 table from a *smaller or equal*
    scaled budget of the same table family: its values are valid upper
    bounds on this fill's fixpoint (fewer configurations can only need
    more machines), so min-folding it preserves the
    upper-bound-and-monotone-decrease invariant of every relaxation
    kernel and Bellman–Ford still converges to the same unique
    fixpoint.  Sentinels at or above :data:`UNREACHABLE` map to the
    narrow dtype's own sentinel; ``cap`` (a decision clamp) bounds the
    seed for clamped fills.  Returns a copy of the seeded table so the
    caller can count ``warmstart.cells_reused`` at the end.
    """
    warm = np.asarray(warm_table)
    if warm.shape != table.shape:
        raise DPError(
            f"warm table shape {warm.shape} does not match fill shape "
            f"{table.shape}"
        )
    sentinel = unreachable_for(table.dtype)
    seed = np.where(warm >= UNREACHABLE, sentinel, warm)
    if cap is not None:
        seed = np.minimum(seed, int(cap))
    np.minimum(table, seed.astype(table.dtype), out=table)
    return table.copy()


def note_warm_convergence(table: np.ndarray, warm_init: np.ndarray) -> None:
    """Emit the warm-start reuse counters after a warm fill converged."""
    obs.count("warmstart.fills")
    obs.count(
        "warmstart.cells_reused", int(np.count_nonzero(table == warm_init))
    )


def relaxation_passes(
    configs: np.ndarray,
    shape: tuple[int, ...],
    *,
    sparsify: bool,
    plan=None,
    counts: Sequence[int] = (),
    class_sizes: Sequence[int] = (),
    target: int = 0,
) -> tuple[np.ndarray, np.ndarray, Callable[[], tuple]]:
    """The configurations one relaxation fill passes over, and their order.

    Returns ``(pass_configs, order, selectors)``: the full set (dense
    mode) or its dominance-pruned maximal subset (``sparsify``), the
    largest-first processing order over it, and a zero-argument
    callable producing the NumPy loop's slice selectors.  A ``plan``
    (:class:`~repro.dptable.plan.ProbePlan` of this probe) supplies all
    three from its cached layers; only the NumPy fallback ever builds
    the selectors.  Without a plan they are derived here, the maximal
    subset from the probe's own constraints (``counts``,
    ``class_sizes``, ``target``).
    """
    if plan is not None:
        if sparsify:
            return (
                plan.sparse_configs,
                plan.sparse_relaxation_order,
                lambda: plan.sparse_shift_slices,
            )
        return configs, plan.relaxation_order, lambda: plan.shift_slices
    if sparsify:
        from repro.core.sparsify import sparsify_configurations

        configs, _ = sparsify_configurations(
            configs, counts, class_sizes, target
        )
    # Larger configurations first: they reach far cells in fewer
    # rounds, accelerating convergence of in-place propagation.
    order = np.argsort(-configs.sum(axis=1), kind="stable")
    return configs, order, lambda: shift_selectors(shape, configs, order)


def relax_numpy(
    table: np.ndarray,
    shifts: tuple[tuple[tuple, tuple], ...],
    *,
    sweeps: bool,
    max_rounds: int,
    accept_limit: int | None = None,
) -> tuple[int, bool] | None:
    """The relaxation rounds in NumPy: the reference for the compiled loop.

    Per round, one box pass per selector pair (``shifts``, in processing
    order), then — with ``sweeps`` — one downward-closure sweep per
    axis.  ``accept_limit`` (the decision kernel's machine budget)
    stops the fill once the corner holds a value ``v <= min(limit,
    rounds)``; otherwise the fill stops at the first round that changes
    nothing.  Returns ``(rounds, early_accept)``, or ``None`` when
    ``max_rounds`` rounds ran without converging.
    """
    # One scratch buffer (plus one bool mask) reused by every config
    # pass: each pass needs a copy of the shifted source — src may
    # alias dst — but a fresh `src + 1` allocation per pass makes the
    # allocator the bottleneck on large tables.  Every pass's views
    # are at most table-sized, so slices of these two flats suffice.
    scratch = np.empty(table.size, dtype=table.dtype)
    mask = np.empty(table.size, dtype=bool)
    bound = bind_passes(table, shifts, scratch, mask)
    if sweeps:
        views = closure_views(table)
        before = np.empty_like(table)
    for rounds in range(1, max_rounds + 1):
        changed = False
        for dst, src, cand, improved in bound:
            np.add(src, 1, out=cand)  # scratch copy; src may alias dst
            np.less(cand, dst, out=improved)
            if improved.any():
                np.copyto(dst, cand, where=improved)
                changed = True
        if sweeps:
            np.copyto(before, table)
            run_closure_sweeps(views)
            changed = changed or not np.array_equal(table, before)
        if accept_limit is not None:
            corner = int(table.flat[-1])
            if corner <= accept_limit and corner <= rounds:
                return rounds, True
        if not changed:
            return rounds, False
    return None


def relax_table(
    table: np.ndarray,
    configs: np.ndarray,
    order: np.ndarray,
    selectors: Callable[[], tuple],
    *,
    sweeps: bool,
    max_rounds: int,
    accept_limit: int | None = None,
) -> tuple[int, bool] | None:
    """Run a relaxation fill's rounds on ``table`` in place.

    The compiled loop (:mod:`repro.core.native`) runs the fill when it
    is available (``kernel.native.fills``); otherwise :func:`relax_numpy`
    does, with the selectors ``selectors()`` returns
    (``kernel.native.unavailable``).  Both give the same table and the
    same ``(rounds, early_accept)`` — see :func:`relax_numpy` for the
    arguments and the return value.
    """
    # Imported on first fill: the loader brings in ctypes, subprocess and
    # tempfile, which importing the package should not pay for.
    from repro.core import native

    loop = native.default_loop()
    if loop.available:
        obs.count("kernel.native.fills")
        return loop.relax(
            table,
            configs[order],
            sweeps=sweeps,
            max_rounds=max_rounds,
            accept_limit=accept_limit,
        )
    obs.count("kernel.native.unavailable")
    return relax_numpy(
        table,
        selectors(),
        sweeps=sweeps,
        max_rounds=max_rounds,
        accept_limit=accept_limit,
    )


def dp_vectorized(
    counts: Sequence[int],
    class_sizes: Sequence[int],
    target: int,
    configs: np.ndarray | None = None,
    max_rounds: int | None = None,
    model_token: tuple | None = None,
    sparsify: bool = False,
    plan=None,
    warm_table: np.ndarray | None = None,
) -> DPResult:
    """Fill the DP-table by repeated vectorized relaxation.

    Parameters mirror :func:`repro.core.dp_reference.dp_reference`.

    ``max_rounds`` caps the relaxation loop (defaults to the number of
    long jobs plus one, the worst-case diameter); reaching the cap
    without convergence indicates a bug and raises :class:`DPError`.

    ``plan`` is this probe's cached
    :class:`~repro.dptable.plan.ProbePlan`; it supplies the config
    processing order (and, for the NumPy loop, the slice selectors)
    that are otherwise derived locally (:func:`relaxation_passes`).

    ``sparsify=True`` relaxes with the dominance-pruned maximal subset
    only (:mod:`repro.core.sparsify`).  The cover recurrence
    ``OPT[u] = min_c OPT[clip(u - c)] + 1`` is realised as plain *box*
    passes over the maximal subset plus one downward-closure sweep per
    axis per round: for any maximal ``c``, ``clip(u - c) = v - c``
    where ``v = max(u, c)`` elementwise, so the clipped candidate at
    ``u`` is the exact box candidate at ``v`` propagated down by
    monotonicity (:func:`closure_views`).  Same unique fixpoint, so
    the returned table is bit-identical to the dense fill's and
    ``configs`` (the full set, which the backtrack walks) is returned
    unchanged.

    ``warm_table`` seeds the fill from a cached table of the same
    family at a smaller scaled budget (see :func:`seed_warm_table`);
    the fixpoint — and therefore the result — is unchanged, only the
    round count drops.

    The fill runs in the narrowest dtype that holds ``sum(counts)``
    (usually int16 — a 4x cut in memory traffic per relaxation pass)
    and is widened to the canonical int64 table at the end, so the
    result is bit-identical to the historical int64 fill.  The rounds
    run in the compiled loop when it is available (:func:`relax_table`).
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(class_sizes):
        raise DPError("counts and class_sizes must have equal length")
    if len(counts) == 0:
        return empty_dp_result()
    if model_token is not None and configs is None:
        raise DPError(
            "model-filtered probes must supply their configuration set"
        )
    if configs is None:
        configs = enumerate_configurations(class_sizes, counts, target)

    dtype = pick_table_dtype(sum(counts))
    unreach = unreachable_for(dtype)
    shape = tuple(c + 1 for c in counts)
    table = np.full(shape, unreach, dtype=dtype)
    table[(0,) * len(counts)] = 0

    if configs.shape[0] == 0:
        # No machine can take even one job within T: only the origin is
        # reachable.
        return DPResult(table=widen_table(table), configs=configs)

    warm_init = None
    if warm_table is not None:
        warm_init = seed_warm_table(table, warm_table)

    if max_rounds is None:
        max_rounds = sum(counts) + 1

    passes, order, selectors = relaxation_passes(
        configs,
        shape,
        sparsify=sparsify,
        plan=plan,
        counts=counts,
        class_sizes=class_sizes,
        target=target,
    )
    outcome = relax_table(
        table, passes, order, selectors, sweeps=sparsify, max_rounds=max_rounds
    )
    if outcome is None:
        mode = "sparse relaxation" if sparsify else "relaxation"
        raise DPError(
            f"{mode} did not converge within {max_rounds} rounds "
            f"(shape={shape}, |C|={passes.shape[0]})"
        )
    rounds, _ = outcome
    obs.count("dp.vectorized.calls")
    obs.count("dp.vectorized.rounds", rounds)
    obs.count("dp.vectorized.config_passes", rounds * passes.shape[0])
    if warm_init is not None:
        note_warm_convergence(table, warm_init)
    return DPResult(table=widen_table(table), configs=configs)


def dp_vectorized_for(rounded: RoundedInstance, configs: np.ndarray | None = None) -> DPResult:
    """Vectorized DP on a :class:`RoundedInstance`."""
    return dp_vectorized(rounded.counts, rounded.class_sizes, rounded.target, configs)
