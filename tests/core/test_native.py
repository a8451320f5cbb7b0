"""The compiled relaxation loop (``repro.core.native``) against the NumPy loop.

The compiled loop must reproduce :func:`repro.core.dp_vectorized.relax_numpy`
step for step — the same table after any number of rounds, the same
round count, the same early-accept point — for every table dtype, in
dense and sparse mode, from cold and warm-seeded tables.  Around it:
argument validation, identical fill counters on both paths, a visible
fallback when the build fails, and a build that happens once per loader
even when many threads make their first fills at the same time.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import resolve
from repro.core import native
from repro.core.configs import enumerate_configurations
from repro.core.dp_common import unreachable_for
from repro.core.dp_vectorized import relax_numpy, relaxation_passes
from repro.core.instance import uniform_instance
from repro.core.kernels import dp_decision
from repro.core.native import NativeLoop
from repro.core.probe_cache import ProbeCache
from repro.core.ptas import ptas_schedule
from repro.errors import DPError
from repro.observability import Tracer
from tests.conftest import MISSING_COMPILER

DTYPES = [np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)]


def probes():
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.integers(min_value=0, max_value=3), min_size=d, max_size=d
            ).map(tuple),
            st.lists(
                st.integers(min_value=1, max_value=9), min_size=d, max_size=d
            ).map(tuple),
            st.integers(min_value=1, max_value=20),
        )
    )


def _start_table(shape, dtype, limit, seed):
    """A fresh fill table: clamp- or sentinel-initialised, maybe warm."""
    fill = unreachable_for(dtype) if limit is None else limit + 1
    table = np.full(shape, fill, dtype=dtype)
    if seed is not None:
        warm = np.random.default_rng(seed).integers(0, 6, size=shape)
        np.minimum(table, warm.astype(dtype), out=table)
    table[(0,) * len(shape)] = 0
    return table


def _both(loop, table, configs, order, selectors, **kwargs):
    """Run both loops on copies of ``table``; returns both outcomes and tables."""
    ours, ref = table.copy(), table.copy()
    got = loop.relax(ours, configs[order], **kwargs)
    want = relax_numpy(ref, selectors(), **kwargs)
    return got, want, ours, ref


class TestStepForStep:
    @given(
        probe=probes(),
        dtype=st.sampled_from(DTYPES),
        sweeps=st.booleans(),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
        max_rounds=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_tables_and_outcomes_match_numpy(
        self, compiled_loop, probe, dtype, sweeps, limit, seed, max_rounds
    ):
        # Capped max_rounds compares tables mid-fill too: the loops
        # agree after every round, not only at the fixpoint.
        counts, sizes, target = probe
        configs = enumerate_configurations(sizes, counts, target)
        shape = tuple(c + 1 for c in counts)
        passes, order, selectors = relaxation_passes(
            configs, shape, sparsify=sweeps,
            counts=counts, class_sizes=sizes, target=target,
        )
        table = _start_table(shape, dtype, limit, seed)
        got, want, ours, ref = _both(
            compiled_loop, table, passes, order, selectors,
            sweeps=sweeps, max_rounds=max_rounds, accept_limit=limit,
        )
        assert got == want
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("dtype", DTYPES, ids=str)
    @pytest.mark.parametrize("sweeps", [False, True], ids=["dense", "sparse"])
    def test_degenerate_shapes(self, compiled_loop, dtype, sweeps):
        cases = [
            # 0-d table: the lone origin, one empty configuration.
            ((), np.zeros((1, 0), dtype=np.int64)),
            # empty configuration set
            ((3, 2), np.zeros((0, 2), dtype=np.int64)),
            # a single class
            ((5,), np.array([[2], [1]], dtype=np.int64)),
            # a box past the table's edge along one axis (empty), the
            # zero configuration, and one real configuration
            ((3, 2), np.array([[3, 1], [0, 0], [1, 1]], dtype=np.int64)),
        ]
        for shape, configs in cases:
            table = _start_table(shape, dtype, None, None)
            order = np.arange(configs.shape[0])
            got, want, ours, ref = _both(
                compiled_loop, table, configs, order,
                lambda: _selectors(shape, configs),
                sweeps=sweeps, max_rounds=10,
            )
            assert got == want, shape
            assert np.array_equal(ours, ref), shape

    def test_non_convergence_returns_none(self, compiled_loop):
        table = _start_table((4,), np.dtype(np.int16), None, None)
        configs = np.array([[1]], dtype=np.int64)
        assert compiled_loop.relax(table, configs, sweeps=False, max_rounds=2) is None
        assert table.tolist() == [0, 1, 2, unreachable_for(np.dtype(np.int16))]


def _selectors(shape, configs):
    from repro.core.dp_vectorized import shift_selectors

    return shift_selectors(shape, configs, np.arange(configs.shape[0]))


class TestValidation:
    def _ok(self):
        table = np.zeros((3, 2), dtype=np.int16)
        return table, np.array([[1, 0]], dtype=np.int64)

    def test_rejects_what_the_loop_cannot_take(self, compiled_loop):
        table, configs = self._ok()
        frozen = table.copy()
        frozen.setflags(write=False)
        bad_calls = [
            (table.astype(np.float64), configs),
            (table.astype(np.uint16), configs),
            (np.zeros((3, 4), dtype=np.int16)[:, ::2], configs),
            (frozen, configs),
            (np.zeros((3, 0), dtype=np.int16), np.zeros((0, 2), dtype=np.int64)),
            (table, np.array([[1, 0, 0]], dtype=np.int64)),
            (table, np.array([1, 0], dtype=np.int64)),
            (table, np.array([[-1, 0]], dtype=np.int64)),
            (table, np.array([[4, 0]], dtype=np.int64)),
        ]
        for bad_table, bad_configs in bad_calls:
            with pytest.raises(DPError):
                compiled_loop.relax(
                    bad_table, bad_configs, sweeps=False, max_rounds=3
                )

    def test_unavailable_loop_refuses_to_run(self):
        loop = NativeLoop(compiler=MISSING_COMPILER)
        table, configs = self._ok()
        with pytest.raises(DPError, match="no compiled relaxation loop"):
            loop.relax(table, configs, sweeps=False, max_rounds=3)


def _run_counters(loop, instances):
    """Counters and makespans of quarter-split PTAS runs on ``loop``."""
    previous = native.set_default_loop(loop)
    try:
        tracer = Tracer()
        makespans = []
        for inst in instances:
            for backend in ("auto", "decision", "vectorized"):
                result = ptas_schedule(
                    inst, eps=0.2, search="quarter", dp_solver=resolve(backend),
                    cache=ProbeCache(), trace=tracer,
                )
                makespans.append(result.makespan)
        # Budgets below OPT: the searches above accept every probe.
        with tracer.activate():
            for machines in range(4):
                for sparsify in (False, True):
                    result = dp_decision(
                        (3, 2, 2), (7, 9, 11), 20, machines, sparsify=sparsify
                    )
                    makespans.append(result.decided_infeasible)
        return dict(tracer.counters), makespans
    finally:
        native.set_default_loop(previous)


FILL_COUNTERS = ("dp.decision.", "dp.vectorized.", "warmstart.")


class TestPaths:
    INSTANCES = [
        uniform_instance(18, 4, low=5, high=80, seed=seed) for seed in (1, 2, 3)
    ]

    def test_fill_counters_identical_on_both_paths(self, compiled_loop):
        compiled, compiled_spans = _run_counters(compiled_loop, self.INSTANCES)
        fallback, fallback_spans = _run_counters(
            NativeLoop(compiler=MISSING_COMPILER), self.INSTANCES
        )
        assert compiled_spans == fallback_spans

        def fill(counters):
            return {
                k: v for k, v in counters.items() if k.startswith(FILL_COUNTERS)
            }

        assert fill(compiled) == fill(fallback)
        # Every counter family the kernels emit was exercised.
        for key in (
            "dp.decision.calls", "dp.decision.rounds", "dp.decision.config_passes",
            "dp.decision.early_accept", "dp.decision.rejects",
            "dp.vectorized.calls", "dp.vectorized.rounds",
            "dp.vectorized.config_passes", "warmstart.fills",
            "warmstart.cells_reused",
        ):
            assert fill(compiled).get(key, 0) > 0, key
        # Every fill ran compiled on one path and fell back on the other.
        assert compiled["kernel.native.fills"] > 0
        assert fallback["kernel.native.unavailable"] == compiled["kernel.native.fills"]
        assert "kernel.native.unavailable" not in compiled
        assert "kernel.native.fills" not in fallback

    def test_failed_build_falls_back_visibly(self, compiled_loop, capsys):
        from repro.cli import main

        from repro.service import BatchScheduler

        broken = NativeLoop(compiler=MISSING_COMPILER)
        active, detail = broken.status()
        assert not active
        assert MISSING_COMPILER in detail

        batch = [uniform_instance(20, 4, seed=seed) for seed in range(3)]
        compiled = BatchScheduler().run(batch)
        previous = native.set_default_loop(broken)
        try:
            fallback = BatchScheduler().run(batch)
            assert main(["engines", "--jobs", "14", "--machines", "3"]) == 0
        finally:
            native.set_default_loop(previous)
        assert fallback.makespans() == compiled.makespans()
        counters = fallback.as_dict()["counters"]
        assert counters["kernel.native.unavailable"] > 0
        assert "kernel.native.fills" not in counters
        out = capsys.readouterr().out
        assert "relaxation loop: NumPy fallback" in out
        assert MISSING_COMPILER in out

        assert main(["engines", "--jobs", "14", "--machines", "3"]) == 0
        assert "relaxation loop: compiled, active" in capsys.readouterr().out

    def test_import_builds_nothing(self):
        # A fresh interpreter that imports the package and builds both
        # front-ends has compiled nothing: the build waits for a fill.
        code = (
            "import repro\n"
            "from repro.core import native\n"
            "from repro.service import BatchScheduler\n"
            "from repro.service.daemon import SchedulingService\n"
            "BatchScheduler(); SchedulingService()\n"
            "print(native.default_loop().builds)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


def test_concurrent_first_fills_build_once(compiled_loop):
    # More threads than cores make their first fill at the same moment
    # on a cold loader, with the interpreter switching threads as often
    # as it can: the library is built once and every table equals the
    # NumPy loop's.
    threads_n = 8
    probes_ = [
        ((3, 2, 2, 1), (7, 9, 11, 13), 30 + i, 3 + i % 3) for i in range(threads_n)
    ]
    previous = native.set_default_loop(NativeLoop(compiler=MISSING_COMPILER))
    try:
        expected = [dp_decision(*p[:3], machines=p[3], sparsify=True) for p in probes_]
    finally:
        native.set_default_loop(previous)

    cold = NativeLoop()
    results = [None] * threads_n
    errors = []
    barrier = threading.Barrier(threads_n)

    def fill(i):
        try:
            barrier.wait(timeout=30)
            counts, sizes, target, machines = probes_[i]
            results[i] = dp_decision(
                counts, sizes, target, machines=machines, sparsify=True
            )
        except Exception as exc:  # reported below, with the thread index
            errors.append((i, exc))

    switch = sys.getswitchinterval()
    previous = native.set_default_loop(cold)
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=fill, args=(i,)) for i in range(threads_n)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(switch)
        native.set_default_loop(previous)
    assert errors == []
    assert cold.builds == 1 and cold.available
    for got, want in zip(results, expected):
        assert np.array_equal(got.table, want.table)
