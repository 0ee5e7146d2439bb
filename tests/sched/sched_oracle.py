"""Frozen oracles for the production list and augmented schedulers.

These are the dict/graph schedulers that ran in production next to
the array-based kernels until those became the only schedulers:
every pass re-filters and re-sorts the whole ready list, and every
admission goes through :class:`~repro.machine.resources.
ReservationTable`.

* :func:`oracle_list_schedule` — the Gibbons–Muchnick list scheduler
  that :func:`repro.sched.list_scheduler.list_schedule` must match;
* :func:`oracle_augmented_schedule` — the E_f-driven scheduler that
  :func:`repro.sched.augmented.compact_augmented_schedule` must match.

They are kept as they stood (minus the fault point and the telemetry,
which belong to the production functions) so that the equivalence
suite in ``test_compact_sched.py`` and the ``backend-n2048`` rows of
``tools/bench_backend.py`` can check the production schedulers
against them: the same cycle for every instruction.

Test-only — nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.deps.false_dependence import FalseDependenceGraph
from repro.deps.schedule_graph import ScheduleGraph
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription
from repro.machine.resources import ReservationTable
from repro.sched.list_scheduler import (
    PriorityFn,
    Schedule,
    critical_path_priority,
)
from repro.utils.errors import SchedulingError


def oracle_list_schedule(
    sg: ScheduleGraph,
    machine: MachineDescription,
    priority: Optional[PriorityFn] = None,
) -> Schedule:
    """Schedule *sg* onto *machine*.

    Returns a verified :class:`Schedule` (every dependence delay and
    resource constraint respected).
    """
    sg.check_acyclic()
    if priority is None:
        priority = critical_path_priority(sg)

    table = ReservationTable(machine)
    cycle_of: Dict[Instruction, int] = {}
    ready_at: Dict[Instruction, int] = {}
    remaining_preds: Dict[Instruction, int] = {
        instr: sg.graph.in_degree(instr) for instr in sg.instructions
    }
    ready: List[Instruction] = [
        instr for instr in sg.instructions if remaining_preds[instr] == 0
    ]
    for instr in ready:
        ready_at[instr] = 0

    cycle = 0
    unscheduled = len(sg.instructions)
    guard = 0
    max_cycles = (
        sum(machine.latency_of(i) for i in sg.instructions) + len(sg.instructions) + 1
    )
    while unscheduled:
        guard += 1
        if guard > max_cycles * 2 + 10:
            raise SchedulingError("list scheduler failed to make progress")
        # Issue until the cycle saturates.  The inner repeat matters
        # for delay-0 (anti) edges: issuing u may make v ready in the
        # *same* cycle — exactly the co-issue the open-interval
        # convention allows.
        progress = True
        while progress:
            progress = False
            candidates = sorted(
                (i for i in ready if ready_at[i] <= cycle),
                key=lambda i: (-priority(i), i.uid),
            )
            for instr in candidates:
                if table.can_issue(instr, cycle):
                    table.issue(instr, cycle)
                    cycle_of[instr] = cycle
                    ready.remove(instr)
                    unscheduled -= 1
                    progress = True
                    for succ in sg.graph.successors(instr):
                        remaining_preds[succ] -= 1
                        earliest = cycle + sg.delay(instr, succ)
                        ready_at[succ] = max(ready_at.get(succ, 0), earliest)
                        if remaining_preds[succ] == 0:
                            ready.append(succ)
        cycle += 1

    schedule = Schedule(cycle_of=cycle_of, machine=machine)
    schedule.verify(sg)
    return schedule


def oracle_augmented_schedule(
    sg: ScheduleGraph,
    fdg: FalseDependenceGraph,
    machine: MachineDescription,
    priority: Optional[PriorityFn] = None,
) -> Schedule:
    """Schedule *sg* using E_f as the per-cycle availability relation.

    Args:
        sg: The (symbolic-register) schedule graph.
        fdg: Its false-dependence graph — E_f membership (bit tests
            against ``fdg.coissue_mask`` when kernel-backed) drives
            which instructions may join a started cycle.
        machine: Resource model (joint feasibility still checked).
        priority: Seed selection priority; defaults to critical path.

    Returns:
        A verified :class:`Schedule`.
    """
    sg.check_acyclic()
    if priority is None:
        priority = critical_path_priority(sg)

    table = ReservationTable(machine)
    cycle_of: Dict[Instruction, int] = {}
    ready_at: Dict[Instruction, int] = {}
    remaining_preds = {
        instr: sg.graph.in_degree(instr) for instr in sg.instructions
    }
    ready: List[Instruction] = [
        instr for instr in sg.instructions if remaining_preds[instr] == 0
    ]
    for instr in ready:
        ready_at[instr] = 0

    def issue(instr: Instruction, cycle: int) -> None:
        table.issue(instr, cycle)
        cycle_of[instr] = cycle
        ready.remove(instr)
        for succ in sg.graph.successors(instr):
            remaining_preds[succ] -= 1
            earliest = cycle + sg.delay(instr, succ)
            ready_at[succ] = max(ready_at.get(succ, 0), earliest)
            if remaining_preds[succ] == 0:
                ready.append(succ)

    cycle = 0
    guard_limit = (
        sum(machine.latency_of(i) for i in sg.instructions)
        + len(sg.instructions) + 1
    ) * 2 + 10
    guard = 0
    while len(cycle_of) < len(sg.instructions):
        guard += 1
        if guard > guard_limit:
            raise SchedulingError("augmented scheduler failed to progress")
        candidates = sorted(
            (i for i in ready if ready_at[i] <= cycle),
            key=lambda i: (-priority(i), i.uid),
        )
        if not candidates or not table.can_issue(candidates[0], cycle):
            feasible = [
                i for i in candidates if table.can_issue(i, cycle)
            ]
            if not feasible:
                cycle += 1
                continue
            candidates = feasible
        # Seed the cycle with the best candidate...
        seed = candidates[0]
        issue(seed, cycle)
        group = [seed]
        # ...then extend with the seed group's E_f availability list.
        # With a bitset kernel the group's joint availability is one
        # mask (the AND of members' E_f rows); each candidate check is
        # a single bit test instead of a has_false_edge loop.
        group_mask = fdg.coissue_mask(seed)
        if group_mask is not None:
            position = fdg.kernel.index.position

            def joins_group(i: Instruction) -> bool:
                return bool((group_mask >> position(i)) & 1)

        else:

            def joins_group(i: Instruction) -> bool:
                return all(fdg.has_false_edge(i, member) for member in group)

        progress = True
        while progress:
            progress = False
            available = sorted(
                (
                    i
                    for i in ready
                    if ready_at[i] <= cycle and joins_group(i)
                ),
                key=lambda i: (-priority(i), i.uid),
            )
            for instr in available:
                if table.can_issue(instr, cycle):
                    issue(instr, cycle)
                    group.append(instr)
                    if group_mask is not None:
                        group_mask &= fdg.coissue_mask(instr)
                    progress = True
                    break
        cycle += 1

    schedule = Schedule(cycle_of=cycle_of, machine=machine)
    schedule.verify(sg)
    return schedule
