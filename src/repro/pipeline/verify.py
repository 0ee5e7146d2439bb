"""Post-allocation false-dependence detection (the Lemma 1 test).

"Let (u, v) be a data dependence edge in the scheduling graph generated
after register allocation; the edge (u, v) is a false dependence edge
iff u and v can be scheduled together according to the schedule graph
for the code when presented with symbolic registers" — and Lemma 1
shows that test is exactly membership in E_f.

:func:`find_false_dependences` compares the allocated program (same
instruction uids) against the symbolic original region by region and
reports every data dependence the allocation *introduced* that lands in
E_f — i.e. every co-issue opportunity destroyed by register reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.deps.datadeps import DependenceKind, register_dependences
from repro.deps.false_dependence import FalseDependenceGraph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription
from repro.utils.errors import IRError


@dataclass(frozen=True)
class FalseDependenceViolation:
    """One false dependence introduced by register allocation.

    Attributes:
        source / target: The allocated instructions (carrying physical
            registers) between which the spurious edge runs.
        kind: The dependence kind register reuse created (anti, output,
            or an accidental flow through a reused register).
        region_index: The ``Region.index`` of the scheduling region the
            pair belongs to.
    """

    source: Instruction
    target: Instruction
    kind: DependenceKind
    region_index: int

    def __str__(self) -> str:
        return "false {} dependence: {}  ->  {}".format(
            self.kind.value, self.source, self.target
        )


def find_false_dependences(
    original: Function,
    allocated: Function,
    machine: MachineDescription,
    use_regions: bool = True,
    include_anti: bool = False,
    false_graphs: Optional[Sequence[FalseDependenceGraph]] = None,
    check_deadline: Optional[Callable[[], None]] = None,
) -> List[FalseDependenceViolation]:
    """All false dependences the allocation introduced.

    A false dependence is an introduced edge that destroys a co-issue
    opportunity — "(u, v) is a false dependence edge iff u and v can be
    scheduled together according to the schedule graph for the code
    when presented with symbolic registers".  The check walks the
    symbolic program's false-dependence graphs, one per non-empty
    scheduling region, and reports every register dependence of the
    allocated region that joins an E_f pair.  A dependence the
    symbolic program already had is an edge of G_s, so it lies in E_t
    and never in E_f: it needs no filter of its own.

    Introduced *anti* edges are excluded by default: the hardware
    reads operands before writing results, so an anti edge still
    permits same-cycle issue (this is why Theorem 1's proof can show
    "no false anti dependence is generated" under the open-interval
    reuse convention).  Pass ``include_anti=True`` for the stricter
    reordering-loss analysis.

    Args:
        original: The symbolic-register function.
        allocated: Its rewrite with physical registers — instruction
            uids must match (``apply_assignment`` preserves them).
        machine: Machine model (shapes E_t, hence E_f).
        use_regions: Derive E_f per scheduling region (the global
            form); otherwise per block.  Read only when
            *false_graphs* is None.
        include_anti: Also report introduced anti edges landing in E_f.
        false_graphs: The false-dependence graphs of *original*, as
            :func:`~repro.core.parallel_interference.
            region_false_graphs` derives them; pass a PIG's
            ``false_graphs`` to judge the allocation against the very
            E_f it was colored from.  None derives them here with the
            bitset engine (the baseline strategies, the count/assert
            helpers).
        check_deadline: Optional zero-argument callback polled before
            each region; it raises to preempt the check when the
            driver's wall-clock budget has expired mid-phase.

    Raises:
        IRError: when the two functions' instructions do not correspond.
    """
    allocated_by_uid: Dict[int, Instruction] = {
        instr.uid: instr for instr in allocated.instructions()
    }
    if set(allocated_by_uid) != {
        instr.uid for instr in original.instructions()
    }:
        raise IRError(
            "allocated function does not mirror the original "
            "(instruction uids differ)"
        )
    if false_graphs is None:
        # Imported here: repro.core imports this module.
        from repro.core.parallel_interference import region_false_graphs

        _, false_graphs = region_false_graphs(
            original, machine,
            use_regions=use_regions,
            check_deadline=check_deadline,
        )

    violations: List[FalseDependenceViolation] = []
    for fdg in false_graphs:
        if check_deadline is not None:
            check_deadline()
        allocated_instrs = [
            allocated_by_uid[instr.uid] for instr in fdg.instructions
        ]
        for dep in register_dependences(allocated_instrs):
            if dep.kind is DependenceKind.ANTI and not include_anti:
                continue  # anti edges permit same-cycle issue
            # Instructions hash by uid, so the allocated pair indexes
            # the symbolic E_f directly.
            if fdg.has_false_edge(dep.source, dep.target):
                violations.append(
                    FalseDependenceViolation(
                        source=dep.source,
                        target=dep.target,
                        kind=dep.kind,
                        region_index=fdg.region_index,
                    )
                )
    return violations


def count_false_dependences(
    original: Function,
    allocated: Function,
    machine: MachineDescription,
    use_regions: bool = True,
) -> int:
    """Convenience: just the violation count."""
    return len(
        find_false_dependences(original, allocated, machine, use_regions)
    )


def assert_no_false_dependences(
    original: Function,
    allocated: Function,
    machine: MachineDescription,
) -> None:
    """Raise :class:`IRError` listing any false dependences found —
    the executable form of Theorem 1's guarantee."""
    violations = find_false_dependences(original, allocated, machine)
    if violations:
        raise IRError(
            "allocation introduced {} false dependence(s): {}".format(
                len(violations),
                "; ".join(str(v) for v in violations[:5]),
            )
        )
