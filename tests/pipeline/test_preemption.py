"""Tests for mid-phase deadline preemption.

``--time-budget`` used to be checked only at phase boundaries, so one
long dependence build could blow far past the budget.  The driver now
threads a ``check_deadline`` callback into the bitset kernel's closure
loops, the coloring worklists, and the per-block / per-region loops of
the preschedule and theorem-1 phases; these tests pin the callback
plumbing at every layer and the driver-level behavior (a budget
exhausted mid-phase aborts with exit 1 — it never degrades onto a
ladder rung).
"""

import pytest

from repro.core.coloring import DEADLINE_STRIDE, pinter_color
from repro.core.parallel_interference import build_parallel_interference_graph
from repro.deps import block_schedule_graph
from repro.deps.bitset import DependenceBitKernel
from repro.deps.false_dependence import false_dependence_graph
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import (
    EXIT_INTERNAL,
    CompilationDriver,
    DriverConfig,
)
from repro.utils import faults
from repro.utils.errors import BudgetExceededError
from repro.workloads import (
    ALL_KERNELS,
    RandomBlockConfig,
    diamond_chain,
    example1,
    random_block,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def machine():
    return two_unit_superscalar()


@pytest.fixture
def sg(machine):
    fn = ALL_KERNELS["dot4"]()
    return block_schedule_graph(fn.entry, machine=machine)


def _expired():
    raise BudgetExceededError("budget exhausted (test)")


class TestKernelCallback:
    def test_callback_is_polled(self, sg, machine):
        calls = []
        kernel = DependenceBitKernel.build(
            sg, machine, check_deadline=lambda: calls.append(1)
        )
        # Both closure loops poll at least their first iteration.
        assert len(calls) >= 2
        assert kernel is not None

    def test_callback_exception_preempts_build(self, sg, machine):
        with pytest.raises(BudgetExceededError):
            DependenceBitKernel.build(sg, machine, check_deadline=_expired)

    def test_no_callback_still_works(self, sg, machine):
        with_cb = DependenceBitKernel.build(
            sg, machine, check_deadline=lambda: None
        )
        without = DependenceBitKernel.build(sg, machine)
        assert with_cb.et_rows == without.et_rows
        assert with_cb.ef_rows == without.ef_rows

    def test_false_dependence_graph_forwards(self, sg, machine):
        with pytest.raises(BudgetExceededError):
            false_dependence_graph(sg, machine, check_deadline=_expired)

    def test_pig_build_forwards(self, machine):
        with pytest.raises(BudgetExceededError):
            build_parallel_interference_graph(
                example1(), machine, check_deadline=_expired
            )


class TestDriverMidPhase:
    def test_stalled_pig_phase_is_preempted(self, machine):
        # The stall fires *inside* the pig phase, after the boundary
        # check passed — only the in-kernel poll can catch it.
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.05)
        )
        with faults.inject("phase.pig", action="stall", seconds=0.3):
            outcome = driver.compile_function(example1())
        assert not outcome.ok
        report = outcome.report
        assert report.exit_code == EXIT_INTERNAL
        assert report.failure_kind == "internal"
        assert any("mid-phase" in d.message for d in report.diagnostics)

    def test_budget_never_degrades_to_a_rung(self, machine):
        # Even with the full ladder available (non-strict), a blown
        # budget aborts rather than retrying on a cheaper rung.
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.05, strict=False)
        )
        with faults.inject("phase.pig", action="stall", seconds=0.3):
            report = driver.compile_function(example1()).report
        assert report.status == "failed"
        assert not report.degraded
        assert not any(d.recovery for d in report.diagnostics)

    @pytest.mark.parametrize("phase", ["preschedule", "theorem1"])
    def test_budget_spent_inside_phase_aborts_mid_phase(
        self, machine, phase
    ):
        # The stall fires inside the phase, after its boundary check
        # passed: only the per-block / per-region poll can catch it
        # before the phase runs to completion.
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.5)
        )
        fn = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        with faults.inject("phase." + phase, action="stall", seconds=0.8):
            outcome = driver.compile_function(fn)
        assert not outcome.ok
        report = outcome.report
        assert report.exit_code == EXIT_INTERNAL
        (error,) = report.errors()
        assert error.phase == phase
        assert "mid-phase" in error.message

    def test_generous_budget_unaffected(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=60.0)
        )
        outcome = driver.compile_function(example1())
        assert outcome.ok
        assert outcome.report.status == "ok"


class TestColoringCallback:
    """pinter_color polls every DEADLINE_STRIDE worklist steps, the
    first step included, and the driver hands it the guard's checker."""

    def test_expired_callback_preempts_coloring(self, machine):
        pig = build_parallel_interference_graph(example1(), machine)
        with pytest.raises(BudgetExceededError):
            pinter_color(pig, 2, check_deadline=_expired)

    def test_callback_is_polled_at_the_stride(self, machine):
        fn = random_block(RandomBlockConfig(size=64, seed=64))
        pig = build_parallel_interference_graph(fn, machine)
        calls = []
        polled = pinter_color(pig, 8, check_deadline=lambda: calls.append(1))
        plain = pinter_color(pig, 8)
        # Every node is deleted and colored once, so at least 2n steps.
        assert len(calls) >= 2 * pig.graph.number_of_nodes() // DEADLINE_STRIDE
        assert polled.removed_false_edges == plain.removed_false_edges
        assert polled.coloring == plain.coloring

    def test_budget_spent_inside_color_aborts(self, machine):
        # The stall fires inside pinter_color, after the phase-boundary
        # check passed: only the worklist poll can catch it, and the
        # abort must not fall back to the Chaitin rung.
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.5, strict=False)
        )
        with faults.inject("core.pinter_color", action="stall", seconds=0.8):
            outcome = driver.compile_function(example1())
        assert not outcome.ok
        report = outcome.report
        assert report.exit_code == EXIT_INTERNAL
        assert not report.degraded
        (error,) = report.errors()
        assert error.phase == "color"
        assert "mid-phase" in error.message

    def test_compact_chaitin_polls_per_round(self):
        from repro.regalloc.compact import chaitin_allocate

        with pytest.raises(BudgetExceededError):
            chaitin_allocate(example1(), 2, check_deadline=_expired)
