"""Tests for the adaptive DP kernel suite (``repro.core.kernels``).

The suite's correctness contract has three layers, and each gets its
own class below:

* the **clamped decision fill** must agree with the Algorithm 2
  reference on accept/reject at every machine budget — especially the
  budgets straddling ``OPT(N)`` where the clamp is load-bearing — and
  every value it stores below the clamp must be exact;
* whatever kernel runs a probe, the **extracted schedules** must be
  bit-identical across kernels for both searches (the acceptance
  criterion of the suite: the kernels are performance choices, never
  result choices);
* the **cost model** (``choose_kernel``) and the narrow-dtype plumbing
  must make the choices and conversions they document.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_spec, resolve
from repro.core.dp_common import (
    UNREACHABLE,
    pick_table_dtype,
    unreachable_for,
    widen_table,
)
from repro.core.dp_reference import dp_reference
from repro.core.instance import Instance
from repro.core.kernels import (
    AutoKernel,
    DecisionKernel,
    FrontierDecisionKernel,
    SweepKernel,
    choose_kernel,
    dp_decision,
    dp_levelsweep,
    estimate_rounds,
)
from repro.core.ptas import probe_target, ptas_schedule
from repro.errors import BackendError, DPError

# The compiled relaxation loop; test_kernels_numpy.py reruns this suite
# on the NumPy loop.
pytestmark = pytest.mark.usefixtures("compiled_relax")


def probes():
    # Raw DP probes (post-rounding): small enough for the pure-Python
    # reference, varied enough to hit 1-3 dims and empty config sets.
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.integers(min_value=1, max_value=3),
                min_size=d, max_size=d,
            ).map(tuple),
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=d, max_size=d, unique=True,
            ).map(tuple),
            st.integers(min_value=1, max_value=14),
        )
    )


def instances():
    return st.builds(
        Instance,
        times=st.lists(
            st.integers(min_value=1, max_value=60), min_size=4, max_size=14
        ).map(tuple),
        machines=st.integers(min_value=2, max_value=4),
    )


class TestDecisionFill:
    @given(probe=probes())
    @settings(max_examples=25, deadline=None)
    def test_accept_reject_matches_reference_at_every_budget(self, probe):
        # The decision kernel's whole contract: fits(m) agrees with the
        # exact OPT(N) for the budget it was clamped at — including the
        # threshold-straddling budgets m = OPT-1, OPT, OPT+1 where the
        # clamp boundary sits exactly on the answer.
        counts, sizes, target = probe
        ref = dp_reference(counts, sizes, target)
        opt = ref.opt
        budgets = {1, sum(counts) + 1}
        if opt < UNREACHABLE:
            budgets |= {max(0, opt - 1), opt, opt + 1}
        for m in sorted(budgets):
            result = dp_decision(counts, sizes, target, machines=m)
            assert result.clamp == m + 1
            expect_reject = opt > m  # also True when opt == UNREACHABLE
            assert result.decided_infeasible == expect_reject, (probe, m)
            if not expect_reject:
                assert result.opt == opt
                assert result.fits(m)

    @given(probe=probes())
    @settings(max_examples=25, deadline=None)
    def test_values_below_clamp_are_exact(self, probe):
        # Invariant (1)/(2) of the decision module: a clamped cell
        # holds either its exact OPT(u) (when that is under the
        # budget) or exactly the clamp (when OPT(u) exceeds it or no
        # packing reaches the cell).  Load-rejected probes skip the
        # fill entirely — their interior is all clamp by design — so
        # the cell-level claim applies to the filled tables only.
        counts, sizes, target = probe
        m = 2
        load = sum(c * s for c, s in zip(counts, sizes))
        if load > m * target:
            result = dp_decision(counts, sizes, target, machines=m)
            assert result.decided_infeasible
            return
        ref = dp_reference(counts, sizes, target)
        result = dp_decision(counts, sizes, target, machines=m)
        clamp = m + 1
        below = result.table < clamp
        assert np.array_equal(result.table[below], ref.table[below])
        assert (ref.table[~below] >= clamp).all()

    def test_fits_is_undecidable_beyond_the_clamp(self):
        result = dp_decision((3,), (4,), 9, machines=1)
        with pytest.raises(DPError, match="clamped"):
            result.fits(2)

    def test_degenerate_probes(self):
        # No long jobs: the 0-d empty result, no clamp.
        empty = dp_decision((), (), 9, machines=3)
        assert empty.table.shape == () and empty.opt == 0
        # No configuration fits even one job: immediate rejection.
        blocked = dp_decision((2, 2), (5, 7), 4, machines=3)
        assert blocked.configs.shape[0] == 0
        assert blocked.decided_infeasible

    @given(probe=probes())
    @settings(max_examples=15, deadline=None)
    def test_unbound_kernel_falls_back_to_the_exact_fill(self, probe):
        # Without a machine budget there is nothing to clamp at: the
        # kernel must produce reference-identical tables (this is what
        # lets the registry agreement tests call it directly).
        counts, sizes, target = probe
        ref = dp_reference(counts, sizes, target)
        for kernel in (DecisionKernel(), AutoKernel()):
            result = kernel(counts, sizes, target)
            assert result.clamp is None, kernel
            assert np.array_equal(result.table, ref.table), kernel


class TestProbeAndScheduleIdentity:
    KERNELS = ("decision", "sweep", "auto")

    @given(inst=instances())
    @settings(max_examples=8, deadline=None)
    def test_schedules_bit_identical_across_kernels_and_searches(self, inst):
        # The suite's acceptance criterion: for both searches, every
        # kernel — including the per-probe auto selection — must yield
        # the *identical assignment*, not merely the same makespan.
        for search in ("bisection", "quarter"):
            reference = ptas_schedule(
                inst, eps=0.3, search=search, dp_solver=resolve("vectorized")
            )
            for name in self.KERNELS:
                result = ptas_schedule(
                    inst, eps=0.3, search=search, dp_solver=resolve(name)
                )
                assert result.final_target == reference.final_target, name
                assert result.makespan == reference.makespan, name
                assert (
                    result.schedule.assignment == reference.schedule.assignment
                ), (name, search)

    @given(inst=instances())
    @settings(max_examples=8, deadline=None)
    def test_probe_outcomes_agree_at_threshold_straddling_targets(self, inst):
        # Around the converged target is where accept flips to reject —
        # exactly where a clamping bug would show. Accepted probes must
        # also extract the identical schedule.
        final = ptas_schedule(inst, eps=0.3).final_target
        for target in (max(1, final - 1), final, final + 1):
            ref = probe_target(inst, target, 0.3, resolve("vectorized"))
            for name in self.KERNELS:
                probe = probe_target(inst, target, 0.3, resolve(name))
                assert probe.accepted == ref.accepted, (name, target)
                if ref.accepted:
                    assert (
                        probe.schedule.assignment == ref.schedule.assignment
                    ), (name, target)


class TestCostModel:
    # A probe big and deep enough that the table dwarfs the small-table
    # cutoff and the load bound predicts many relaxation rounds.
    BIG = dict(counts=(20, 20, 20), class_sizes=(10, 12, 14), num_configs=30)

    def test_small_tables_always_vectorize(self):
        choice = choose_kernel((2, 2), (5, 7), 9, num_configs=4, machines=3)
        assert choice.kernel == "vectorized"
        assert "small table" in choice.reason

    def test_deep_fills_still_vectorize(self):
        # load = 720 at target 30 → ~24 *nominal* rounds, but the
        # in-place relaxation converges in a handful regardless of
        # depth (updates propagate within a round), so depth alone
        # never justifies the sweep's indexed gathers.
        choice = choose_kernel(target=30, **self.BIG)
        assert choice.kernel == "vectorized"
        assert choice.est_rounds > 6  # the naive estimate, kept as evidence

    def test_known_budget_picks_the_decision_clamp(self):
        choice = choose_kernel(target=1000, machines=5, **self.BIG)
        assert choice.kernel == "decision"
        assert choice.dtype == pick_table_dtype(6)

    def test_no_budget_shallow_fill_vectorizes(self):
        choice = choose_kernel(target=1000, **self.BIG)
        assert choice.kernel == "vectorized"

    def test_memory_budget_forces_the_sweep(self):
        choice = choose_kernel(
            target=1000, machines=5, memory_budget_bytes=100, **self.BIG
        )
        assert choice.kernel == "sweep"
        assert "memory budget" in choice.reason

    def test_fill_workers_route_large_exact_fills_to_hostpar(self):
        big = dict(counts=(40, 40, 40), class_sizes=(10, 12, 14), num_configs=30)
        choice = choose_kernel(target=2000, fill_workers=4, **big)
        assert choice.kernel == "hostpar"
        assert "fill workers" in choice.reason
        # Budget-bound probes never parallelise — the decision clamp's
        # O(1) load-bound rejects beat any pool.
        bound = choose_kernel(target=2000, machines=5, fill_workers=4, **big)
        assert bound.kernel == "decision"
        # No fabric advertised → the serial exact fill.
        assert choose_kernel(target=2000, **big).kernel == "vectorized"
        # Below the work floor the single-core relaxation wins.
        small = choose_kernel(target=30, fill_workers=4, **self.BIG)
        assert small.kernel == "vectorized"

    def test_auto_fabric_route_is_reference_identical(self, monkeypatch, medium_probe):
        import repro.core.kernels.auto as auto_mod
        from repro.parallel.fabric import BlockExecutor

        # Shrink the routing floors so the medium probe takes the
        # hostpar path; the result must still be bit-identical.
        monkeypatch.setattr(auto_mod, "HOSTPAR_MIN_WORK", 1)
        monkeypatch.setattr(auto_mod, "SMALL_TABLE_CELLS", 0)
        args = (medium_probe.counts, medium_probe.class_sizes, medium_probe.target)
        assert choose_kernel(
            *args, num_configs=1, fill_workers=2
        ).kernel == "hostpar"
        with BlockExecutor(workers=2) as fabric:
            solver = AutoKernel(fill_fabric=fabric)
            result = solver(*args)
        assert np.array_equal(result.table, dp_reference(*args).table)

    def test_estimate_rounds_is_capped_by_the_clamp(self):
        unbounded = estimate_rounds((20, 20), (10, 10), 10)
        assert unbounded == 40  # load 400 / target 10
        assert estimate_rounds((20, 20), (10, 10), 10, machines=3) == 5
        assert estimate_rounds((1,), (1,), 1000) == 1  # never below one round

    @given(probe=probes())
    @settings(max_examples=15, deadline=None)
    def test_sweep_kernel_is_reference_identical(self, probe):
        counts, sizes, target = probe
        ref = dp_reference(counts, sizes, target)
        result = SweepKernel()(counts, sizes, target)
        assert np.array_equal(result.table, ref.table)
        direct = dp_levelsweep(counts, sizes, target)
        assert np.array_equal(direct.table, ref.table)


class TestDecisionOnlyBackend:
    def test_registry_flags_the_capability(self):
        assert get_spec("frontier-decision").decision_only
        for name in ("vectorized", "decision", "sweep", "auto"):
            assert not get_spec(name).decision_only, name

    def test_feasibility_answer_matches_reference(self):
        counts, sizes, target = (3, 2), (4, 7), 11
        ref = dp_reference(counts, sizes, target)
        result = FrontierDecisionKernel()(counts, sizes, target)
        assert result.opt == ref.opt
        assert result.feasible == ref.feasible
        assert result.fits(ref.opt) and not result.fits(ref.opt - 1)
        assert not result.decided_infeasible

    def test_table_access_raises_a_named_backend_error(self):
        result = resolve("frontier-decision")((3,), (4,), 9)
        with pytest.raises(BackendError, match="decision-only"):
            result.table

    def test_cli_schedule_refuses_decision_only_backends(self, capsys):
        from repro.cli import main

        code = main(
            ["schedule", "--times", "3", "4", "5", "--machines", "2",
             "--backend", "frontier-decision"]
        )
        assert code == 2
        assert "decision-only" in capsys.readouterr().err


class TestNarrowDtypes:
    def test_pick_table_dtype_tiers(self):
        assert pick_table_dtype(10) == np.dtype(np.int16)
        assert pick_table_dtype(unreachable_for(np.dtype(np.int16))) == np.dtype(
            np.int32
        )
        assert pick_table_dtype(2**40) == np.dtype(np.int64)

    def test_bound_stays_clear_of_the_sentinel(self):
        for bound in (1, 100, 10_000, 2**20, 2**40):
            dtype = pick_table_dtype(bound)
            assert bound + 2 <= unreachable_for(dtype)

    def test_widen_table_maps_the_sentinel_and_keeps_values(self):
        dtype = np.dtype(np.int16)
        narrow = np.array([0, 3, unreachable_for(dtype)], dtype=dtype)
        wide = widen_table(narrow)
        assert wide.dtype == np.int64
        assert wide[0] == 0 and wide[1] == 3
        assert wide[2] == UNREACHABLE

    def test_widen_is_identity_on_int64(self):
        table = np.array([1, UNREACHABLE], dtype=np.int64)
        assert widen_table(table) is table

    @given(probe=probes())
    @settings(max_examples=10, deadline=None)
    def test_public_tables_stay_int64(self, probe):
        # The narrow dtypes are an internal fill detail: every public
        # DPResult is widened back to the canonical int64 table.
        counts, sizes, target = probe
        for name in ("vectorized", "sweep", "auto", "frontier"):
            assert resolve(name)(counts, sizes, target).table.dtype == np.int64
        assert dp_decision(
            counts, sizes, target, machines=2
        ).table.dtype == np.int64
