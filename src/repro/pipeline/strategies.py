"""Phase-ordering strategies — the compiler families the paper's
introduction contrasts, under one interface.

* :class:`AllocateThenSchedule` — "in some compilers, like those for
  the MIPS processors, register allocation precedes instruction
  scheduling": Chaitin coloring on the classic interference graph in
  input order, then a post-pass list scheduler that must respect the
  anti/output dependences reuse introduced.
* :class:`ScheduleThenAllocate` — "in others, like the one for the IBM
  RISC S/6000, instruction scheduling is carried out first": list-
  schedule the symbolic code, commit the scheduled order, then Chaitin
  coloring over the (stretched) live ranges.
* :class:`CombinedPinter` — the paper's framework.

Every strategy returns a :class:`StrategyResult` with the three
evaluation metrics: registers used, spill operations, false
dependences introduced, and scheduled cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.driver import CompileReport

from repro.core.edge_weights import DEFAULT_CONFIG, EdgeWeightConfig
from repro.deps.schedule_graph import block_schedule_graph
from repro.ir.function import Function
from repro.machine.model import MachineDescription
from repro.pipeline.verify import find_false_dependences
from repro.regalloc.assignment import apply_assignment
from repro.regalloc.compact import chaitin_allocate
from repro.sched.list_scheduler import list_schedule
from repro.sched.simulator import simulate_function


@dataclass
class StrategyResult:
    """The evaluation triple (plus provenance) for one strategy run.

    Attributes:
        strategy: Strategy name.
        registers_used: Distinct physical registers in the output.
        spill_operations: Spill loads + stores inserted.
        false_dependences: Count of Lemma 1 violations in the output.
        cycles: Total list-scheduled cycles of the allocated program.
        allocated_function: The final program.
        prepared_function: The symbolic program the metrics are
            relative to (post reordering / spill insertion).
        report: The :class:`~repro.pipeline.driver.CompileReport` when
            the run went through the hardened driver; None for direct
            ``Strategy.run`` calls.
    """

    strategy: str
    registers_used: int
    spill_operations: int
    false_dependences: int
    cycles: int
    allocated_function: Function
    prepared_function: Function
    report: Optional["CompileReport"] = None

    def as_row(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "registers": self.registers_used,
            "spill_ops": self.spill_operations,
            "false_deps": self.false_dependences,
            "cycles": self.cycles,
        }


class Strategy(abc.ABC):
    """A complete compile-the-block pipeline."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        fn: Function,
        machine: MachineDescription,
        num_registers: Optional[int] = None,
    ) -> StrategyResult:
        """Compile *fn* for *machine* with at most *num_registers*."""

    def _finish(
        self,
        fn: Function,
        prepared: Function,
        allocated: Function,
        machine: MachineDescription,
        registers_used: int,
        spill_operations: int,
    ) -> StrategyResult:
        violations = find_false_dependences(prepared, allocated, machine)
        timing = simulate_function(allocated, machine)
        return StrategyResult(
            strategy=self.name,
            registers_used=registers_used,
            spill_operations=spill_operations,
            false_dependences=len(violations),
            cycles=timing.total_cycles,
            allocated_function=allocated,
            prepared_function=prepared,
        )


class AllocateThenSchedule(Strategy):
    """Chaitin allocation in input order, then post-pass scheduling."""

    name = "alloc-then-sched"

    def run(self, fn, machine, num_registers=None):
        r = machine.num_registers if num_registers is None else num_registers
        prepared, assignment, spill_ops = chaitin_allocate(fn.copy(), r)
        allocated = apply_assignment(assignment)
        return self._finish(
            fn,
            prepared,
            allocated,
            machine,
            registers_used=assignment.num_registers_used,
            spill_operations=spill_ops,
        )


class ScheduleThenAllocate(Strategy):
    """List-schedule the symbolic code first, then Chaitin allocation.

    The scheduled order maximizes parallelism but stretches live
    ranges; the post-allocation measurement shows whether the extra
    registers (or spills) were worth it.
    """

    name = "sched-then-alloc"

    def run(self, fn, machine, num_registers=None):
        r = machine.num_registers if num_registers is None else num_registers
        scheduled = fn.copy()
        for block in scheduled.blocks():
            if len(block.instructions) < 2:
                continue
            sg = block_schedule_graph(block, machine=machine)
            schedule = list_schedule(sg, machine)
            block.reorder(schedule.instructions_in_order())
        prepared, assignment, spill_ops = chaitin_allocate(scheduled, r)
        allocated = apply_assignment(assignment)
        return self._finish(
            fn,
            prepared,
            allocated,
            machine,
            registers_used=assignment.num_registers_used,
            spill_operations=spill_ops,
        )


class GoodmanHsuIPS(Strategy):
    """Integrated prepass scheduling (Goodman & Hsu, the paper's [10]).

    A register-sensitive scheduler reorders the symbolic code —
    pipeline-priority while registers are plentiful, register-
    minimizing when fewer than *threshold* remain — then Chaitin
    allocation colors the committed order.
    """

    name = "goodman-hsu-ips"

    def __init__(self, threshold: int = 2) -> None:
        self.threshold = threshold

    def run(self, fn, machine, num_registers=None):
        from repro.sched.ips import ips_reorder_function

        r = machine.num_registers if num_registers is None else num_registers
        scheduled = ips_reorder_function(
            fn.copy(), machine, r, threshold=self.threshold
        )
        prepared, assignment, spill_ops = chaitin_allocate(scheduled, r)
        allocated = apply_assignment(assignment)
        return self._finish(
            fn,
            prepared,
            allocated,
            machine,
            registers_used=assignment.num_registers_used,
            spill_operations=spill_ops,
        )


class CombinedPinter(Strategy):
    """The paper's combined framework."""

    name = "pinter"

    def __init__(
        self,
        preschedule: bool = True,
        weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
        edge_policy: str = "node",
        use_regions: bool = True,
    ) -> None:
        self.preschedule = preschedule
        self.weight_config = weight_config
        self.edge_policy = edge_policy
        self.use_regions = use_regions

    def run(self, fn, machine, num_registers=None):
        # Imported here: core.allocator itself uses pipeline.verify, so
        # a module-level import would be circular.
        from repro.core.allocator import PinterAllocator

        allocator = PinterAllocator(
            machine,
            num_registers=num_registers,
            preschedule=self.preschedule,
            weight_config=self.weight_config,
            edge_policy=self.edge_policy,
            use_regions=self.use_regions,
        )
        outcome = allocator.run(fn)
        return StrategyResult(
            strategy=self.name,
            registers_used=outcome.registers_used,
            spill_operations=outcome.spill_operations,
            false_dependences=len(outcome.false_dependences),
            cycles=outcome.total_cycles,
            allocated_function=outcome.allocated_function,
            prepared_function=outcome.prepared_function,
        )


def default_strategies() -> List[Strategy]:
    """The three contenders of the evaluation, in presentation order."""
    return [AllocateThenSchedule(), ScheduleThenAllocate(), CombinedPinter()]


def extended_strategies() -> List[Strategy]:
    """Default contenders plus the Goodman–Hsu IPS baseline ([10])."""
    return default_strategies() + [GoodmanHsuIPS()]


def run_all_strategies(
    fn: Function,
    machine: MachineDescription,
    num_registers: Optional[int] = None,
    strategies: Optional[List[Strategy]] = None,
) -> List[StrategyResult]:
    """Run every strategy on *fn* and collect the comparison rows."""
    if strategies is None:
        strategies = default_strategies()
    return [s.run(fn, machine, num_registers) for s in strategies]
