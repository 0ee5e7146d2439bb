"""Tests for the hardened compilation driver (repro.pipeline.driver).

Every rung of the degradation ladder is exercised deterministically
via fault injection, matching the module's promise that fallback code
never rots unexercised.
"""

import pytest

from repro.core.parallel_interference import build_parallel_interference_graph
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    CompilationDriver,
    CompileReport,
    Diagnostic,
    DriverConfig,
    _pig_signature,
)
from repro.pipeline.strategies import GoodmanHsuIPS
from repro.sched.simulator import simulate_function
from repro.utils import faults
from repro.utils.errors import DivergenceError
from repro.workloads import example1, example2


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def machine():
    return two_unit_superscalar()


@pytest.fixture
def driver(machine):
    return CompilationDriver(machine)


def recoveries(report):
    return [d.recovery for d in report.diagnostics if d.recovery]


class TestCleanCompile:
    def test_example1_ok(self, driver):
        outcome = driver.compile_function(example1())
        assert outcome.ok
        report = outcome.report
        assert report.status == "ok"
        assert report.exit_code == EXIT_OK
        assert not report.degraded
        assert outcome.result.false_dependences == 0
        assert outcome.result.cycles > 0

    def test_phase_timings_recorded(self, driver):
        report = driver.compile_function(example1()).report
        for phase in ("verify", "preschedule", "pig", "color",
                      "assign", "theorem1", "schedule"):
            assert phase in report.phase_seconds, phase
            assert report.phase_seconds[phase] >= 0

    def test_compile_text_roundtrip(self, driver):
        outcome = driver.compile_text(
            "input a, b; x = a * b + 3; output x;"
        )
        assert outcome.ok
        assert "parse" in outcome.report.phase_seconds

    def test_report_as_dict_is_json_shaped(self, driver):
        import json

        report = driver.compile_function(example1()).report
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["status"] == "ok"
        assert payload["exit_code"] == 0
        assert payload["failure_kind"] is None

    def test_run_strategy_carries_report(self, driver):
        outcome = driver.run_strategy(GoodmanHsuIPS(), example1())
        assert outcome.ok
        assert outcome.report.strategy == outcome.result.strategy
        assert outcome.result.report is outcome.report


class TestBitsetRung:
    """Kernel failure degrades to the reference engine — and the
    reference engine builds the *identical* PIG."""

    def test_engines_agree_on_paper_examples(self, machine):
        for make in (example1, example2):
            fn = make()
            fast = build_parallel_interference_graph(
                fn, machine, engine="bitset"
            )
            slow = build_parallel_interference_graph(
                fn, machine, engine="reference"
            )
            assert _pig_signature(fast) == _pig_signature(slow)

    def test_fault_degrades_to_reference_engine(self, driver):
        clean = driver.compile_function(example1())
        with faults.inject("deps.bitset"):
            degraded = driver.compile_function(example1())
        assert degraded.ok
        assert degraded.report.status == "degraded"
        assert "reference engine" in recoveries(degraded.report)
        # Identical PIG ⇒ identical allocation and metrics.
        assert degraded.result.registers_used == clean.result.registers_used
        assert (degraded.result.false_dependences
                == clean.result.false_dependences)
        assert degraded.result.cycles == clean.result.cycles

    def test_degraded_compile_stays_off_failed_kernel(self, driver):
        # theorem1 + augmented scheduling also build dependence graphs;
        # with the kernel faulted for the whole compile they must not
        # touch it again after the pig-phase fallback.
        with faults.inject("deps.bitset"):
            outcome = driver.compile_function(example1())
        assert outcome.ok
        assert outcome.report.exit_code == EXIT_OK

    def test_divergence_error_takes_reference_rung(self, driver):
        with faults.inject("deps.bitset", error=DivergenceError):
            outcome = driver.compile_function(example1())
        assert outcome.ok
        assert "reference engine" in recoveries(outcome.report)


class TestEngineChoice:
    @pytest.mark.parametrize("engine", ["simd", "vector", "auto"])
    def test_unknown_engine_rejected(self, machine, engine):
        from repro.utils.errors import InputError

        with pytest.raises(InputError):
            CompilationDriver(machine, config=DriverConfig(engine=engine))


class TestColorRung:
    def test_fault_degrades_to_chaitin(self, driver):
        with faults.inject("core.pinter_color"):
            outcome = driver.compile_function(example1())
        assert outcome.ok
        assert "chaitin spill fallback" in recoveries(outcome.report)
        # Theorem 1 check still ran post-fallback and found example1
        # allocatable without false dependences.
        assert outcome.result.false_dependences == 0

    def test_double_fault_still_succeeds(self, driver):
        with faults.inject("deps.bitset"), faults.inject("core.pinter_color"):
            outcome = driver.compile_function(example1())
        assert outcome.ok
        got = recoveries(outcome.report)
        assert "reference engine" in got
        assert "chaitin spill fallback" in got

    def test_both_color_rungs_failing_fails_the_compile(self, driver):
        # The Chaitin loop is the last color rung: when it fails too,
        # the compile ends with an internal failure, not a traceback.
        with faults.inject("core.pinter_color"), \
                faults.inject("regalloc.chaitin"):
            outcome = driver.compile_function(example1())
        assert not outcome.ok
        report = outcome.report
        assert report.exit_code == EXIT_INTERNAL
        assert "chaitin spill fallback" in recoveries(report)
        (error,) = report.errors()
        assert error.phase == "color"
        assert "regalloc.chaitin" in error.message


class TestScheduleRung:
    def test_fault_degrades_to_list_scheduler(self, driver, machine):
        with faults.inject("sched.augmented"):
            outcome = driver.compile_function(example1())
        assert outcome.ok
        assert "list scheduler" in recoveries(outcome.report)
        assert outcome.result.cycles == simulate_function(
            outcome.result.allocated_function, machine
        ).total_cycles


class TestStrictMode:
    def test_first_phase_error_fails_the_compile(self, machine):
        driver = CompilationDriver(machine, config=DriverConfig(strict=True))
        with faults.inject("deps.bitset"):
            outcome = driver.compile_function(example1())
        assert not outcome.ok
        assert outcome.report.status == "failed"
        assert outcome.report.failure_kind == "internal"
        assert outcome.report.exit_code == EXIT_INTERNAL
        assert outcome.report.errors()

    def test_strict_clean_input_still_ok(self, machine):
        driver = CompilationDriver(machine, config=DriverConfig(strict=True))
        outcome = driver.compile_function(example1())
        assert outcome.ok
        assert outcome.report.status == "ok"


class TestParanoidMode:
    def test_cross_check_passes_on_paper_examples(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(paranoid=True)
        )
        for make in (example1, example2):
            outcome = driver.compile_function(make())
            assert outcome.ok
            assert outcome.report.status == "ok"


class TestBudgets:
    def test_instruction_budget(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(max_instrs=1)
        )
        outcome = driver.compile_function(example1())
        assert not outcome.ok
        assert outcome.report.failure_kind == "internal"
        assert outcome.report.exit_code == EXIT_INTERNAL
        assert any(
            "instruction budget exceeded" in d.message
            for d in outcome.report.errors()
        )

    def test_time_budget_caught_at_phase_boundary(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.02)
        )
        with faults.inject("phase.preschedule", action="stall", seconds=0.1):
            outcome = driver.compile_function(example1())
        assert not outcome.ok
        assert outcome.report.exit_code == EXIT_INTERNAL
        assert any(
            "wall-clock budget exhausted" in d.message
            for d in outcome.report.errors()
        )

    def test_generous_budgets_pass(self, machine):
        driver = CompilationDriver(
            machine,
            config=DriverConfig(max_instrs=10_000, time_budget=600.0),
        )
        assert driver.compile_function(example1()).ok


class TestInvalidInput:
    def test_malformed_source_is_input_failure(self, driver):
        outcome = driver.compile_text("garbage %% not a program")
        assert not outcome.ok
        assert outcome.report.failure_kind == "input"
        assert outcome.report.exit_code == EXIT_INPUT
        assert outcome.report.errors()[0].phase == "parse"

    def test_malformed_ir_is_input_failure(self, driver):
        outcome = driver.compile_text(
            "func broken {\nblock entry:\n  xyzzy q, q\n}\n", is_ir=True
        )
        assert not outcome.ok
        assert outcome.report.exit_code == EXIT_INPUT

    def test_bad_driver_options_rejected(self, machine):
        from repro.utils.errors import InputError

        with pytest.raises(InputError):
            CompilationDriver(machine, num_registers=0)
        with pytest.raises(InputError):
            CompilationDriver(machine, engine="quantum")
        with pytest.raises(InputError):
            CompilationDriver(machine, no_such_option=True)

    def test_driver_leaves_callers_config_unchanged(self, machine):
        config = DriverConfig()
        fingerprint = config.fingerprint()
        driver = CompilationDriver(machine, config=config, strict=True)
        assert driver.config.strict is True
        assert config == DriverConfig()
        assert config.fingerprint() == fingerprint


class TestReferenceEngineConfig:
    def test_reference_primary_engine(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(engine="reference")
        )
        outcome = driver.compile_function(example1())
        assert outcome.ok
        assert outcome.report.status == "ok"

    def test_reference_engine_ignores_bitset_fault(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(engine="reference")
        )
        with faults.inject("deps.bitset"):
            outcome = driver.compile_function(example1())
        assert outcome.ok
        assert outcome.report.status == "ok"  # never touched the kernel


class TestReportModel:
    def test_status_ladder(self):
        report = CompileReport()
        assert report.status == "ok"
        report.add("warning", "pig", "wobble")
        assert report.status == "degraded"
        report.failure_kind = "input"
        assert report.status == "failed"
        assert report.exit_code == EXIT_INPUT

    def test_note_recovery_targets_latest_diagnostic(self):
        report = CompileReport()
        report.add("warning", "pig", "first")
        report.add("warning", "color", "second")
        report.note_recovery("chaitin spill fallback")
        assert report.diagnostics[0].recovery is None
        assert report.diagnostics[1].recovery == "chaitin spill fallback"

    def test_diagnostic_str_mentions_recovery(self):
        diag = Diagnostic(
            severity="warning", phase="pig", message="kernel down",
            recovery="reference engine",
        )
        text = str(diag)
        assert "warning[pig]" in text
        assert "recovered: reference engine" in text
