"""Hardened end-to-end compilation driver.

The strategies in :mod:`repro.pipeline.strategies` are thin research
pipelines: any failure — malformed IR, an over-constrained coloring, a
hypothetical bitset/reference divergence — surfaces as a raw exception
and kills the run.  This module wraps the same phases in a guarded
service that **never tracebacks**: each phase runs inside a
:class:`PhaseGuard` that catches :class:`~repro.utils.errors.ReproError`,
enforces per-compile budgets (instruction-count limit, wall-clock
deadline), records :class:`Diagnostic` entries into a
:class:`CompileReport`, and applies a *degradation ladder*:

==============  ============================  ===========================
phase           primary                       fallback
==============  ============================  ===========================
``pig``         bitset dependence kernel      reference engine
``color``       combined Pinter coloring      Chaitin with spilling
``schedule``    augmented (E_f-driven)        plain list scheduler
``opt``         optimization pipeline         unoptimized program
``preschedule``  EP reordering                 input order
==============  ============================  ===========================

In ``--paranoid`` mode the ``pig`` phase additionally *cross-checks*
the bitset engine against the reference engine and degrades onto the
reference rung on divergence.  In ``--strict`` mode the ladder is
disabled: the first phase error fails the compile.

The back end has one implementation per job: the compact kernels
build G_r, run the Chaitin rung
(:func:`repro.regalloc.compact.chaitin_allocate`) and schedule
(:func:`repro.sched.augmented.compact_augmented_schedule`; the list
scheduler rung is :func:`repro.sched.list_scheduler.list_schedule`
under the simulator).  The ``color`` and ``schedule`` ladders
therefore have two rungs each; when both ``color`` rungs fail, the
compile fails with exit 1.

Outcomes map to documented exit codes:

* ``0`` — success, possibly degraded (check ``report.status``);
* ``1`` — internal failure: a budget was exhausted or every rung of a
  ladder failed;
* ``2`` — invalid input: parse/verify rejected the program (or, at the
  CLI, bad arguments).

Every rung is exercised deterministically in tests via the fault
injection registry (:mod:`repro.utils.faults`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.core.coloring import pinter_color
from repro.core.parallel_interference import (
    ParallelInterferenceGraph,
    build_parallel_interference_graph,
    region_false_graphs,
)
from repro.deps.false_dependence import (
    FalseDependenceGraph,
    false_dependence_graph,
)
from repro.deps.schedule_graph import block_schedule_graph
from repro.ir.function import Function
from repro.ir.verifier import verify_function
from repro.machine.model import MachineDescription
from repro.obs import get_metrics, get_tracer
from repro.pipeline.strategies import StrategyResult, Strategy
from repro.pipeline.verify import find_false_dependences
from repro.regalloc.assignment import apply_assignment, make_assignment
from repro.regalloc.compact import chaitin_allocate
from repro.regalloc.spill import insert_spill_code, make_cost_function
from repro.sched.prescheduler import preschedule_function
from repro.sched.simulator import simulate_function
from repro.utils import faults
from repro.utils.errors import (
    AllocationError,
    BudgetExceededError,
    DivergenceError,
    InputError,
    IRError,
    ReproError,
)

T = TypeVar("T")

#: Degradation ladder per primary engine: each rung's failure (or, in
#: paranoid mode, divergence from the reference cross-check) falls
#: through to the next; the last rung is non-recoverable.
_ENGINE_LADDER: Dict[str, Tuple[str, ...]] = {
    "bitset": ("bitset", "reference"),
    "reference": ("reference",),
}

#: Documented process exit codes.
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

#: Diagnostic severities, mildest first.
SEVERITIES = ("info", "warning", "error")


@dataclass
class Diagnostic:
    """One structured driver event.

    Attributes:
        severity: ``"info"``, ``"warning"`` (recovered / degraded), or
            ``"error"`` (phase failed terminally).
        phase: The phase that produced it (see
            :attr:`CompilationDriver.PHASES`).
        message: Human-readable description, no newlines.
        location: Optional source location or function name.
        elapsed_s: Seconds spent in the phase attempt that produced it.
        recovery: The degradation applied (e.g. ``"reference engine"``),
            or None when nothing was recovered.
    """

    severity: str
    phase: str
    message: str
    location: Optional[str] = None
    elapsed_s: float = 0.0
    recovery: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "severity": self.severity,
            "phase": self.phase,
            "message": self.message,
            "location": self.location,
            "elapsed_s": round(self.elapsed_s, 6),
            "recovery": self.recovery,
        }

    def __str__(self) -> str:
        text = "{}[{}]: {}".format(self.severity, self.phase, self.message)
        if self.location:
            text += " (at {})".format(self.location)
        if self.recovery:
            text += " -- recovered: {}".format(self.recovery)
        return text


@dataclass
class CompileReport:
    """Everything the driver observed while compiling one function.

    Attributes:
        function_name: Name of the compiled function (or input file).
        strategy: Strategy the driver ran.
        diagnostics: Ordered diagnostic records.
        phase_seconds: Wall seconds per phase (spill rounds accumulate).
        failure_kind: None on success; ``"input"`` (exit 2) or
            ``"internal"`` (exit 1) on terminal failure.
    """

    function_name: str = "?"
    strategy: str = "pinter"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    failure_kind: Optional[str] = None

    def add(
        self,
        severity: str,
        phase: str,
        message: str,
        elapsed_s: float = 0.0,
        recovery: Optional[str] = None,
    ) -> Diagnostic:
        diag = Diagnostic(
            severity=severity,
            phase=phase,
            message=message,
            location=self.function_name,
            elapsed_s=elapsed_s,
            recovery=recovery,
        )
        self.diagnostics.append(diag)
        return diag

    def note_recovery(self, recovery: str) -> None:
        """Record the degradation applied for the most recent
        diagnostic (the warning :class:`PhaseGuard` just emitted)."""
        if self.diagnostics:
            last = self.diagnostics[-1]
            last.recovery = recovery
            get_tracer().event(
                "driver.degrade",
                phase=last.phase,
                recovery=recovery,
                function=self.function_name,
            )
            get_metrics().counter("driver.degrades").inc()

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def degraded(self) -> bool:
        """True when any fallback rung was taken."""
        return any(d.recovery for d in self.diagnostics)

    @property
    def status(self) -> str:
        """``"ok"``, ``"degraded"``, or ``"failed"``."""
        if self.failure_kind is not None:
            return "failed"
        if self.degraded or self.warnings():
            return "degraded"
        return "ok"

    @property
    def exit_code(self) -> int:
        """The documented process exit code for this outcome."""
        if self.failure_kind is None:
            return EXIT_OK
        return EXIT_INPUT if self.failure_kind == "input" else EXIT_INTERNAL

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.function_name,
            "strategy": self.strategy,
            "status": self.status,
            "exit_code": self.exit_code,
            "failure_kind": self.failure_kind,
            "phase_seconds": {
                k: round(v, 6) for k, v in sorted(self.phase_seconds.items())
            },
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


@dataclass
class DriverConfig:
    """Knobs of the hardened driver (CLI flags map 1:1; ``engine``
    is ``--pig-engine``).

    Attributes:
        strict: Disable every fallback rung — the first phase error
            fails the compile.
        paranoid: Cross-check the bitset dependence engine against the
            reference engine on every PIG build.
        max_instrs: Reject functions with more instructions (budget;
            exit 1).
        time_budget: Wall-clock seconds for the whole compile; checked
            at phase boundaries and polled inside the long phases
            (per block in preschedule, per region in the PIG build and
            the theorem-1 check, inside the bitset kernel's closure
            loops and the coloring worklists), so a long phase is
            preempted mid-phase.
        optimize: Run the optimization pipeline before allocation.
        use_regions: Build false-dependence graphs over scheduling
            regions (the global form).
        max_spill_rounds: Bound on spill-and-repeat iterations.
        engine: Primary dependence engine.  ``"bitset"`` (default)
            degrades to ``"reference"``; ``"reference"`` has no rung
            below it.
        region_cache: Serve per-region dependence kernels from the
            region-grain cache (:mod:`repro.pipeline.incremental`), so
            an edit-recompile loop pays only the edited regions.  Only
            a primary ``"bitset"`` engine rung consults it; degraded
            rungs, the reference engine and fault-armed compiles always
            rebuild.
        region_cache_dir: On-disk root for the region cache (its
            ``region/`` namespace inside a shared ``--cache-dir`` is
            handled by the store); None keeps region kernels
            memory-only, which still de-duplicates within a process.
        backend: Allocator/scheduler implementation.  ``"compact"``
            (the default) is the only value: the compact kernels are
            the one back end.  The field remains so that configs
            naming it keep their fingerprints (and so their cache
            keys).
    """

    strict: bool = False
    paranoid: bool = False
    max_instrs: Optional[int] = None
    time_budget: Optional[float] = None
    optimize: bool = False
    use_regions: bool = True
    max_spill_rounds: int = 12
    engine: str = "bitset"
    region_cache: bool = False
    region_cache_dir: Optional[str] = None
    backend: str = "compact"

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of every knob.

        The compile cache folds this into its content-addressed key:
        two compiles may share a cached result only when *every*
        driver knob matches — a different engine, budget, or ladder
        mode is a different key.  Fields added to this dataclass are
        covered automatically.
        """
        import dataclasses
        import hashlib
        import json

        canonical = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class DriverResult:
    """A report plus, on success, the strategy result it describes."""

    report: CompileReport
    result: Optional[StrategyResult] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class _Abort(Exception):
    """Internal control flow: a phase failed terminally."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind  # "input" | "internal"


class _PhaseError(Exception):
    """Internal control flow: a recoverable phase attempt failed; the
    caller owns the fallback."""

    def __init__(self, phase: str, cause: ReproError) -> None:
        super().__init__(str(cause))
        self.phase = phase
        self.cause = cause


@dataclass
class _AllocMeta:
    """Provenance of the allocation the driver settled on."""

    mode: str  # "pinter" | "chaitin"
    spill_operations: int = 0
    parallelism_sacrificed: int = 0
    #: Dependence engine the compile settled on; later phases
    #: (theorem1 check, augmented scheduling) stay off a failed kernel.
    engine: str = "bitset"
    #: The final round's PIG (None on the Chaitin rung); the theorem1
    #: check reads its false graphs.
    pig: Optional[ParallelInterferenceGraph] = None


class PhaseGuard:
    """Runs phase attempts under the driver's protections.

    One guard exists per compile.  :meth:`run` executes a thunk for a
    named phase: it trips the ``phase.<name>`` fault point, checks the
    wall-clock deadline before and after (so stalled phases are caught
    at the next boundary), accumulates ``phase_seconds``, and converts
    :class:`ReproError` into either a recorded *warning* plus
    :class:`_PhaseError` (when the caller declared a fallback exists
    and strict mode is off) or a recorded *error* plus :class:`_Abort`.
    """

    def __init__(
        self,
        report: CompileReport,
        strict: bool = False,
        deadline: Optional[float] = None,
    ) -> None:
        self.report = report
        self.strict = strict
        self.deadline = deadline

    def check_deadline(self, phase: str) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.report.add(
                "error",
                phase,
                "wall-clock budget exhausted "
                "(deadline passed at phase boundary)",
            )
            raise _Abort("internal")

    def mid_phase_checker(self) -> Optional[Callable[[], None]]:
        """A zero-argument callback for long-running kernels to poll
        inside their main loops: raises
        :class:`~repro.utils.errors.BudgetExceededError` once the
        wall-clock deadline passes, so ``--time-budget`` preempts
        mid-phase instead of only at phase boundaries.  None when no
        deadline is configured (kernels then skip the poll entirely).
        """
        deadline = self.deadline
        if deadline is None:
            return None

        def check() -> None:
            if time.monotonic() > deadline:
                raise BudgetExceededError(
                    "wall-clock budget exhausted (mid-phase preemption)"
                )

        return check

    def run(
        self,
        phase: str,
        action: Callable[[], T],
        recoverable: bool = False,
        input_phase: bool = False,
    ) -> T:
        """Run *action* as an attempt of *phase*.

        Args:
            phase: Phase name for diagnostics/fault points.
            action: Zero-argument thunk.
            recoverable: The caller has a fallback: on ReproError
                record a warning and raise :class:`_PhaseError` instead
                of aborting (ignored in strict mode).
            input_phase: Failures here are the *input's* fault — the
                abort carries kind ``"input"`` (exit 2).
        """
        self.check_deadline(phase)
        tracer = get_tracer()
        metrics = get_metrics()
        start = time.perf_counter()
        try:
            with tracer.span(
                "phase." + phase, function=self.report.function_name
            ):
                faults.trip("phase." + phase)
                value = action()
        except ReproError as exc:
            elapsed = time.perf_counter() - start
            self.report.phase_seconds[phase] = (
                self.report.phase_seconds.get(phase, 0.0) + elapsed
            )
            metrics.counter("driver.phase_errors").inc()
            self._note_budget(tracer, metrics, phase)
            # An exhausted budget is not a phase defect: degrading to a
            # fallback rung would keep burning a budget that is already
            # gone, so it aborts even when a fallback exists.
            if isinstance(exc, BudgetExceededError):
                self.report.add("error", phase, str(exc), elapsed_s=elapsed)
                raise _Abort("internal") from exc
            if recoverable and not self.strict:
                self.report.add(
                    "warning", phase, str(exc), elapsed_s=elapsed
                )
                raise _PhaseError(phase, exc) from exc
            self.report.add("error", phase, str(exc), elapsed_s=elapsed)
            if input_phase or isinstance(exc, (IRError, InputError)):
                raise _Abort("input") from exc
            raise _Abort("internal") from exc
        elapsed = time.perf_counter() - start
        self.report.phase_seconds[phase] = (
            self.report.phase_seconds.get(phase, 0.0) + elapsed
        )
        metrics.histogram("phase." + phase + ".seconds").observe(elapsed)
        self._note_budget(tracer, metrics, phase)
        self.check_deadline(phase)
        return value

    def _note_budget(self, tracer, metrics, phase: str) -> None:
        """Publish the remaining wall-clock budget after a phase
        attempt (only when a deadline is configured)."""
        if self.deadline is None:
            return
        remaining = max(0.0, self.deadline - time.monotonic())
        tracer.gauge(
            "driver.budget_remaining_s", round(remaining, 6), phase=phase
        )
        metrics.gauge("driver.budget_remaining_s").set(remaining)


def _pig_signature(
    pig: ParallelInterferenceGraph,
) -> Tuple[Set[int], Set[Tuple[int, int, int]]]:
    """Order-independent identity of a PIG: web indices plus edges as
    (index, index, origin-flag) triples — the paranoid cross-check and
    the equivalence tests compare these."""
    nodes = {web.index for web in pig.graph.nodes()}
    edges = set()
    for a, b, data in pig.graph.edges(data=True):
        lo, hi = sorted((a.index, b.index))
        edges.add((lo, hi, data["origin"].value))
    return nodes, edges


class CompilationDriver:
    """Guarded end-to-end compilation service.

    Wraps the combined-Pinter pipeline (and, via :meth:`run_strategy`,
    any other strategy) in per-phase guards with the degradation
    ladder described in the module docstring.

    Args:
        machine: Target machine description.
        num_registers: r; defaults to ``machine.num_registers``.
        config: Driver knobs; keyword overrides (``strict=True`` …)
            are applied on top of *config* in the driver's own copy,
            so the caller's object is never changed.
    """

    #: Phase names in execution order.  Fault point ``phase.<name>``
    #: fires at the start of every attempt of that phase.
    PHASES = (
        "parse",
        "verify",
        "opt",
        "preschedule",
        "pig",
        "color",
        "assign",
        "schedule",
        "theorem1",
    )

    def __init__(
        self,
        machine: MachineDescription,
        num_registers: Optional[int] = None,
        config: Optional[DriverConfig] = None,
        **overrides: object,
    ) -> None:
        self.machine = machine
        self.num_registers = (
            machine.num_registers if num_registers is None else num_registers
        )
        cfg = config or DriverConfig()
        for key in overrides:
            if not hasattr(cfg, key):
                raise InputError("unknown driver option {!r}".format(key))
        cfg = dataclasses.replace(cfg, **overrides)
        if cfg.engine not in _ENGINE_LADDER:
            raise InputError(
                "unknown dependence engine {!r}".format(cfg.engine)
            )
        if cfg.backend != "compact":
            raise InputError(
                "unknown compiler backend {!r}".format(cfg.backend)
            )
        if self.num_registers < 1:
            raise InputError("need at least one register")
        self.config = cfg

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def load(
        self,
        text: str,
        is_ir: bool = False,
        name: str = "program",
    ) -> Tuple[Optional[Function], CompileReport]:
        """Guarded parse/lower + verify + instruction budget + opt.

        Returns ``(fn, report)``; *fn* is None when loading failed (the
        report then carries the structured diagnosis, exit code 2 for
        malformed input).  The returned function is already optimized
        when the config asks for it, so every strategy downstream
        shares one preprocessed program.
        """
        report = CompileReport(function_name=name, strategy="load")
        guard = self._guard(report)
        try:
            fn = guard.run(
                "parse",
                lambda: self._parse(text, is_ir, name),
                input_phase=True,
            )
            report.function_name = fn.name
            guard.run(
                "verify",
                lambda: verify_function(fn, fn.live_in),
                input_phase=True,
            )
            self._check_instr_budget(report, fn)
            if self.config.optimize:
                fn = self._optimize(fn, guard, report)
        except _Abort as abort:
            report.failure_kind = abort.kind
            return None, report
        return fn, report

    def compile_text(
        self,
        text: str,
        is_ir: bool = False,
        name: str = "program",
    ) -> DriverResult:
        """Full service: text in, allocated program or diagnosis out."""
        fn, load_report = self.load(text, is_ir=is_ir, name=name)
        if fn is None:
            load_report.strategy = "pinter"
            return DriverResult(report=load_report)
        result = self.compile_function(fn, preprocessed=True)
        # Fold load-phase timings into the compile report so one report
        # tells the whole story.
        for phase, secs in load_report.phase_seconds.items():
            result.report.phase_seconds.setdefault(phase, secs)
        result.report.diagnostics[0:0] = load_report.diagnostics
        return result

    def compile_function(
        self, fn: Function, preprocessed: bool = False
    ) -> DriverResult:
        """Run the guarded combined-Pinter pipeline on *fn*.

        Args:
            fn: Symbolic-register input function (not mutated).
            preprocessed: Skip the verify/budget/opt front phases;
                pass True when :meth:`load` already ran them.
        """
        report = CompileReport(function_name=fn.name, strategy="pinter")
        guard = self._guard(report)
        try:
            result = self._compile(fn, report, guard, preprocessed)
        except _Abort as abort:
            report.failure_kind = abort.kind
            return DriverResult(report=report)
        result.report = report
        return DriverResult(report=report, result=result)

    def run_strategy(
        self, strategy: Strategy, fn: Function, preprocessed: bool = False
    ) -> DriverResult:
        """Run an arbitrary strategy end-to-end under a single guard.

        Non-Pinter strategies have no internal ladder; the guard still
        guarantees structured diagnostics, budgets, and no traceback.
        """
        report = CompileReport(function_name=fn.name, strategy=strategy.name)
        guard = self._guard(report)
        try:
            if not preprocessed:
                guard.run(
                    "verify",
                    lambda: verify_function(fn, fn.live_in),
                    input_phase=True,
                )
                self._check_instr_budget(report, fn)
                if self.config.optimize:
                    fn = self._optimize(fn, guard, report)
            result = guard.run(
                "strategy",
                lambda: strategy.run(
                    fn, self.machine, num_registers=self.num_registers
                ),
            )
        except _Abort as abort:
            report.failure_kind = abort.kind
            return DriverResult(report=report)
        result.report = report
        return DriverResult(report=report, result=result)

    # ------------------------------------------------------------------
    # Pipeline internals
    # ------------------------------------------------------------------

    def _guard(self, report: CompileReport) -> PhaseGuard:
        deadline = None
        if self.config.time_budget is not None:
            deadline = time.monotonic() + self.config.time_budget
        return PhaseGuard(
            report, strict=self.config.strict, deadline=deadline
        )

    def _parse(self, text: str, is_ir: bool, name: str) -> Function:
        if is_ir:
            from repro.ir.parser import parse_function

            return parse_function(text)
        from repro.frontend.lower import compile_source

        return compile_source(text, name=name)

    def _check_instr_budget(self, report: CompileReport, fn: Function) -> None:
        limit = self.config.max_instrs
        if limit is None:
            return
        count = sum(len(block) for block in fn.blocks())
        if count > limit:
            report.add(
                "error",
                "verify",
                "instruction budget exceeded: {} instructions > "
                "max_instrs={}".format(count, limit),
            )
            raise _Abort("internal")

    def _compile(
        self,
        fn: Function,
        report: CompileReport,
        guard: PhaseGuard,
        preprocessed: bool,
    ) -> StrategyResult:
        if not preprocessed:
            guard.run(
                "verify",
                lambda: verify_function(fn, fn.live_in),
                input_phase=True,
            )
            self._check_instr_budget(report, fn)
            if self.config.optimize:
                fn = self._optimize(fn, guard, report)

        work = self._preschedule(fn.copy(), guard, report)
        prepared, assignment, meta = self._allocate(work, guard, report)
        allocated = guard.run(
            "assign", lambda: apply_assignment(assignment)
        )
        violations = guard.run(
            "theorem1",
            lambda: find_false_dependences(
                prepared, allocated, self.machine,
                false_graphs=self._false_graphs(prepared, meta, guard),
                check_deadline=guard.mid_phase_checker(),
            ),
        )
        self._judge_theorem1(report, meta, len(violations))
        cycles = self._schedule(allocated, guard, report, meta.engine)

        return StrategyResult(
            strategy="pinter",
            registers_used=assignment.num_registers_used,
            spill_operations=meta.spill_operations,
            false_dependences=len(violations),
            cycles=cycles,
            allocated_function=allocated,
            prepared_function=prepared,
        )

    def _optimize(
        self, work: Function, guard: PhaseGuard, report: CompileReport
    ) -> Function:
        """Optimize a copy; a failing optimizer degrades to the
        unoptimized program instead of poisoning *work* mid-rewrite."""

        def attempt() -> Function:
            from repro.opt import optimize

            candidate = work.copy()
            opt_report = optimize(candidate)
            report.add("info", "opt", str(opt_report))
            return candidate

        try:
            return guard.run("opt", attempt, recoverable=True)
        except _PhaseError:
            report.note_recovery("unoptimized program")
            return work

    def _preschedule(
        self, work: Function, guard: PhaseGuard, report: CompileReport
    ) -> Function:
        def attempt() -> Function:
            return preschedule_function(
                work.copy(), self.machine,
                check_deadline=guard.mid_phase_checker(),
            )

        try:
            return guard.run("preschedule", attempt, recoverable=True)
        except _PhaseError:
            report.note_recovery("input order retained")
            return work.copy()

    def _false_graphs(
        self, prepared: Function, meta: _AllocMeta, guard: PhaseGuard
    ) -> List[FalseDependenceGraph]:
        """The E_f the allocation was colored from, for the theorem1
        check: the final PIG's false graphs.  The Chaitin rung built no
        PIG, so its program's graphs are derived here, with the engine
        the compile settled on."""
        if meta.pig is not None:
            return meta.pig.false_graphs
        cfg = self.config
        _, false_graphs = region_false_graphs(
            prepared, self.machine,
            use_regions=cfg.use_regions,
            engine=meta.engine,
            region_cache=self._region_cache(meta.engine),
            config_fingerprint=cfg.fingerprint(),
            check_deadline=guard.mid_phase_checker(),
        )
        return false_graphs

    # -- region cache gating -------------------------------------------

    def _region_cache(self, engine: str):
        """The region-kernel cache for a build with *engine*, or None
        when any honesty gate trips.

        The gates mirror the whole-compile cache's "only clean
        primary-rung successes" rule at region grain: the cache is
        consulted only for the config's **primary** engine (a ladder
        fallback rung is a degraded result that must not be stored or
        replayed), only for the bitset engine (the only one with a
        wire-row kernel), and never while fault injection is armed.
        """
        cfg = self.config
        if (
            not cfg.region_cache
            or engine != cfg.engine
            or engine != "bitset"
            or faults.active_specs()
        ):
            return None
        from repro.pipeline.incremental import region_cache_for

        return region_cache_for(cfg.region_cache_dir)

    # -- pig -----------------------------------------------------------

    def _build_pig(
        self,
        work: Function,
        guard: PhaseGuard,
        report: CompileReport,
        engine: str,
    ) -> Tuple[ParallelInterferenceGraph, str]:
        """One PIG build with the engine ladder.

        The rung sequence comes from :data:`_ENGINE_LADDER`:
        ``bitset`` degrades to ``reference``.  A rung fails on any
        phase error or — in paranoid mode — on divergence from the
        reference cross-check; in strict mode the first failure
        aborts.  Returns the graph plus the engine that actually
        produced it, so the degradation sticks for the rest of the
        compile.
        """
        cfg = self.config
        mid_phase = guard.mid_phase_checker()

        def build(target: str) -> ParallelInterferenceGraph:
            return build_parallel_interference_graph(
                work, self.machine,
                use_regions=cfg.use_regions, engine=target,
                region_cache=self._region_cache(target),
                config_fingerprint=cfg.fingerprint(),
                check_deadline=mid_phase,
            )

        ladder = _ENGINE_LADDER[engine]
        for pos, target in enumerate(ladder):
            last = pos == len(ladder) - 1
            if last:
                return guard.run("pig", lambda: build(target)), target

            def rung(target: str = target) -> ParallelInterferenceGraph:
                fast = build(target)
                if cfg.paranoid:
                    slow = build("reference")
                    if _pig_signature(fast) != _pig_signature(slow):
                        raise DivergenceError(
                            "{} and reference engines disagree on "
                            "{!r} (paranoid cross-check)".format(
                                target, work.name
                            )
                        )
                return fast

            try:
                return guard.run("pig", rung, recoverable=True), target
            except _PhaseError:
                report.note_recovery("{} engine".format(ladder[pos + 1]))
        raise AssertionError("unreachable")  # pragma: no cover

    # -- color ---------------------------------------------------------

    def _allocate(
        self, work: Function, guard: PhaseGuard, report: CompileReport
    ):
        """PIG build + combined coloring with spill rounds.

        Returns ``(prepared_fn, assignment, _AllocMeta)``.  Any failure
        of the combined procedure (kernel included) degrades to the
        classic Chaitin-with-spilling loop on the same prescheduled
        program.
        """
        original = work
        spill_ops = 0
        engine = self.config.engine
        mid_phase = guard.mid_phase_checker()
        try:
            for _round in range(self.config.max_spill_rounds + 1):
                pig, engine = self._build_pig(work, guard, report, engine)
                cost = make_cost_function(work)
                current = work
                result = guard.run(
                    "color",
                    lambda: pinter_color(
                        pig, self.num_registers, cost=cost,
                        check_deadline=mid_phase,
                    ),
                    recoverable=True,
                )
                if not result.spilled:
                    assignment = make_assignment(
                        pig.interference, result.coloring
                    )
                    return current, assignment, _AllocMeta(
                        mode="pinter",
                        spill_operations=spill_ops,
                        parallelism_sacrificed=result.parallelism_sacrificed,
                        engine=engine,
                        pig=pig,
                    )
                work, spill_report = insert_spill_code(work, result.spilled)
                spill_ops += (
                    spill_report.stores_added + spill_report.reloads_added
                )
            # Did not converge: raise inside a guard so strict/ladder
            # handling is uniform.
            def overflow():
                raise AllocationError(
                    "combined coloring did not converge within {} spill "
                    "rounds (r={})".format(
                        self.config.max_spill_rounds, self.num_registers
                    )
                )

            guard.run("color", overflow, recoverable=True)
        except _PhaseError:
            report.note_recovery("chaitin spill fallback")
            return self._chaitin_fallback(original, guard, engine)
        raise AssertionError("unreachable")  # pragma: no cover

    def _chaitin_fallback(
        self, work: Function, guard: PhaseGuard, engine: str
    ):
        """Ladder rung: classic Chaitin coloring on the interference
        graph alone, spilling until colorable
        (:func:`repro.regalloc.compact.chaitin_allocate`).  Gives up the
        spill-free Theorem 1 guarantee in exchange for always
        terminating with a correct program.  It is the last ``color``
        rung: its failure fails the compile."""
        cfg = self.config

        def attempt():
            return chaitin_allocate(
                work.copy(),
                self.num_registers,
                max_rounds=cfg.max_spill_rounds,
                check_deadline=guard.mid_phase_checker(),
            )

        prepared, assignment, spill_ops = guard.run("color", attempt)
        return prepared, assignment, _AllocMeta(
            mode="chaitin", spill_operations=spill_ops, engine=engine
        )

    def _judge_theorem1(
        self, report: CompileReport, meta: _AllocMeta, violations: int
    ) -> None:
        """Classify the Lemma 1 count against what the allocation mode
        promises: the spill-free combined coloring with no sacrificed
        edges must introduce zero false dependences (Theorem 1)."""
        if violations == 0:
            return
        if meta.mode == "pinter" and meta.parallelism_sacrificed == 0:
            diag = report.add(
                "error",
                "theorem1",
                "Theorem 1 violated: spill-free combined coloring "
                "introduced {} false dependence(s)".format(violations),
            )
            if self.config.strict:
                raise _Abort("internal")
            diag.severity = "warning"
            return
        report.add(
            "info",
            "theorem1",
            "{} false dependence(s) from {} (expected for this mode)".format(
                violations,
                "sacrificed false edges" if meta.mode == "pinter"
                else "chaitin fallback",
            ),
        )

    # -- schedule ------------------------------------------------------

    def _schedule(
        self,
        allocated: Function,
        guard: PhaseGuard,
        report: CompileReport,
        engine: str = "bitset",
    ) -> int:
        """Cycle count of the allocated program: augmented scheduling
        per block (E_f-driven), degrading to the plain list scheduler
        over the whole program."""

        mid_phase = guard.mid_phase_checker()
        cache = self._region_cache(engine)
        cfg = self.config

        def augmented() -> int:
            # Looked up at call time: the perfbench layer trace
            # patches it in its home module.
            from repro.sched.augmented import compact_augmented_schedule

            total = 0
            config_fp = cfg.fingerprint() if cache is not None else ""
            for block in allocated.blocks():
                if not block.instructions:
                    continue
                sg = block_schedule_graph(block, machine=self.machine)
                if engine == "reference":
                    from repro.deps.reference import (
                        reference_false_dependence_graph,
                    )

                    fdg = reference_false_dependence_graph(sg, self.machine)
                elif cache is not None:
                    from repro.pipeline.incremental import cached_region_fdg

                    fdg = cached_region_fdg(
                        sg, self.machine, cache,
                        config_fingerprint=config_fp,
                        check_deadline=mid_phase,
                    )
                else:
                    fdg = false_dependence_graph(
                        sg, self.machine, check_deadline=mid_phase
                    )
                schedule = compact_augmented_schedule(sg, fdg, self.machine)
                total += schedule.makespan
            return total

        def plain() -> int:
            return simulate_function(allocated, self.machine).total_cycles

        try:
            return guard.run("schedule", augmented, recoverable=True)
        except _PhaseError:
            report.note_recovery("list scheduler")
        return guard.run("schedule", plain)
