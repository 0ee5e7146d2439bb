"""List scheduling under machine resource constraints.

The Gibbons–Muchnick-style scheduler the paper cites ([9]): walk cycles
forward; at each cycle issue, in priority order, ready instructions the
reservation table accepts.  Priority is critical-path height (longest
delay-weighted path to any sink), the standard choice; ties break on
program order for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.deps.schedule_graph import ScheduleGraph
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription
from repro.machine.resources import ReservationTable
from repro.utils.errors import SchedulingError

PriorityFn = Callable[[Instruction], float]


@dataclass
class Schedule:
    """A complete cycle assignment for one instruction sequence.

    Attributes:
        cycle_of: Instruction → issue cycle (0-based).
        machine: The machine it was scheduled for.
    """

    cycle_of: Dict[Instruction, int]
    machine: MachineDescription

    @property
    def makespan(self) -> int:
        """Completion time in cycles: latest issue plus its latency."""
        if not self.cycle_of:
            return 0
        return max(
            cycle + self.machine.latency_of(instr)
            for instr, cycle in self.cycle_of.items()
        )

    @property
    def issue_span(self) -> int:
        """Number of issue cycles used (last issue cycle + 1)."""
        if not self.cycle_of:
            return 0
        return max(self.cycle_of.values()) + 1

    def cycles(self) -> List[List[Instruction]]:
        """Instructions grouped by issue cycle (uid-ordered in a cycle)."""
        result: List[List[Instruction]] = [[] for _ in range(self.issue_span)]
        for instr, cycle in self.cycle_of.items():
            result[cycle].append(instr)
        for group in result:
            group.sort(key=lambda i: i.uid)
        return result

    def instructions_in_order(self) -> List[Instruction]:
        """Flat instruction list in (cycle, uid) order."""
        return [instr for group in self.cycles() for instr in group]

    def parallel_pairs(self) -> List[Tuple[Instruction, Instruction]]:
        """Instruction pairs issued in the same cycle."""
        pairs = []
        for group in self.cycles():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    pairs.append((a, b))
        return pairs

    def verify(self, sg: ScheduleGraph) -> None:
        """Check every dependence edge and resource constraint holds.

        Raises:
            SchedulingError: on the first violation.
        """
        for u, v in sg.edges():
            required = self.cycle_of[u] + sg.delay(u, v)
            if self.cycle_of[v] < required:
                raise SchedulingError(
                    "edge {} -> {} violated: {} < {}".format(
                        u, v, self.cycle_of[v], required
                    )
                )
        table = ReservationTable(self.machine)
        for instr, cycle in sorted(
            self.cycle_of.items(), key=lambda kv: (kv[1], kv[0].uid)
        ):
            table.issue(instr, cycle)  # raises if over-subscribed

    def format_timeline(self) -> str:
        """Human-readable cycle-by-cycle listing for the examples."""
        lines = []
        for cycle, group in enumerate(self.cycles()):
            text = "; ".join(str(i) for i in group) if group else "(stall)"
            lines.append("cycle {:>3}: {}".format(cycle, text))
        return "\n".join(lines)


def critical_path_priority(sg: ScheduleGraph) -> PriorityFn:
    """Priority = delay-weighted height above the sinks; instructions
    heading long chains schedule first."""
    height: Dict[Instruction, float] = {}
    for instr in reversed(sg.topological_order()):
        best = float(
            sg.machine.latency_of(instr) if sg.machine else instr.latency
        )
        for succ in sg.graph.successors(instr):
            best = max(best, sg.delay(instr, succ) + height[succ])
        height[instr] = best

    def priority(instr: Instruction) -> float:
        return height[instr]

    return priority


class _CompactReservation:
    """Index-domain form of :class:`ReservationTable`: unit kind,
    capacity, latency, and memory flags are precomputed into flat
    arrays, so ``can_issue`` is counter lookups instead of repeated
    machine-model dispatch.  Same admission semantics, including the
    missing-unit error and the same-address memory constraint."""

    def __init__(self, machine: MachineDescription, instructions) -> None:
        self.machine = machine
        self.instrs = list(instructions)
        self.kind = [machine.unit_for(i) for i in self.instrs]
        self.cap = [machine.unit_count(k) for k in self.kind]
        self.lat = [machine.latency_of(i) for i in self.instrs]
        self.is_mem = [i.is_memory_access for i in self.instrs]
        self.width = machine.issue_width
        self.pipelined = machine.pipelined
        self._issued: Dict[int, int] = {}
        self._unit_busy: Dict[Tuple[int, object], int] = {}
        self._mem_in_cycle: Dict[int, List[int]] = {}

    def _occupancy(self, idx: int, cycle: int):
        if self.pipelined:
            return (cycle,)
        return range(cycle, cycle + self.lat[idx])

    def can_issue(self, idx: int, cycle: int) -> bool:
        if self._issued.get(cycle, 0) >= self.width:
            return False
        if self.cap[idx] < 1:
            raise SchedulingError(
                "machine {!r} has no {} unit for {}".format(
                    self.machine.name,
                    self.kind[idx].value,
                    self.instrs[idx],
                )
            )
        busy = self._unit_busy
        kind = self.kind[idx]
        for c in self._occupancy(idx, cycle):
            if busy.get((c, kind), 0) >= self.cap[idx]:
                return False
        if self.is_mem[idx]:
            conflict = MachineDescription._same_address_conflict
            instr = self.instrs[idx]
            for other in self._mem_in_cycle.get(cycle, ()):
                if conflict(instr, self.instrs[other]):
                    return False
        return True

    def issue(self, idx: int, cycle: int) -> None:
        self._issued[cycle] = self._issued.get(cycle, 0) + 1
        kind = self.kind[idx]
        busy = self._unit_busy
        for c in self._occupancy(idx, cycle):
            busy[(c, kind)] = busy.get((c, kind), 0) + 1
        if self.is_mem[idx]:
            self._mem_in_cycle.setdefault(cycle, []).append(idx)


def list_schedule(
    sg: ScheduleGraph,
    machine: MachineDescription,
    priority: Optional[PriorityFn] = None,
) -> Schedule:
    """Schedule *sg* onto *machine*.

    Cycle by cycle, ready instructions issue in (-priority, uid) order
    while the reservation table admits them; issuing an instruction
    may make a delay-0 (anti) successor ready in the *same* cycle —
    exactly the co-issue the open-interval convention allows — so a
    cycle keeps passing over its fresh candidates until none issues.
    Candidates wait in a heap keyed by ready cycle; a candidate the
    table rejects is not retried within the cycle (occupancy only
    grows during a cycle); cycles with no ready candidate are skipped
    in one step.

    *priority* must be a pure function of the instruction (the default
    critical-path priority is); it is evaluated once per instruction.

    Returns a verified :class:`Schedule` (every dependence delay and
    resource constraint respected).
    """
    sg.check_acyclic()
    if priority is None:
        priority = critical_path_priority(sg)

    import heapq

    instrs = list(sg.instructions)
    n = len(instrs)
    if not n:
        return Schedule(cycle_of={}, machine=machine)
    pos = {instr: k for k, instr in enumerate(instrs)}
    neg_prio = [-float(priority(i)) for i in instrs]
    uids = [i.uid for i in instrs]
    succs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in sg.edges():
        ui, vi = pos[u], pos[v]
        succs[ui].append((vi, sg.delay(u, v)))
        indeg[vi] += 1

    table = _CompactReservation(machine, instrs)
    ready_at = [0] * n
    cycle_of_idx = [-1] * n
    pending: List[Tuple[int, float, int, int]] = [
        (0, neg_prio[k], uids[k], k) for k in range(n) if indeg[k] == 0
    ]
    heapq.heapify(pending)
    blocked: List[Tuple[float, int, int]] = []

    cycle = 0
    scheduled = 0
    max_cycles = sum(table.lat) + n + 1
    while scheduled < n:
        if cycle > max_cycles * 2 + 10:
            raise SchedulingError("list scheduler failed to make progress")
        batch = blocked
        blocked = []
        while pending and pending[0][0] <= cycle:
            _, negp, uid, idx = heapq.heappop(pending)
            batch.append((negp, uid, idx))
        if not batch:
            if not pending:
                raise SchedulingError(
                    "list scheduler failed to make progress"
                )
            cycle = max(cycle + 1, pending[0][0])
            continue
        batch.sort()
        current = batch
        while current:
            fresh: List[Tuple[float, int, int]] = []
            for entry in current:
                idx = entry[2]
                if not table.can_issue(idx, cycle):
                    blocked.append(entry)
                    continue
                table.issue(idx, cycle)
                cycle_of_idx[idx] = cycle
                scheduled += 1
                for s, delay in succs[idx]:
                    earliest = cycle + delay
                    if ready_at[s] < earliest:
                        ready_at[s] = earliest
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        if ready_at[s] <= cycle:
                            fresh.append((neg_prio[s], uids[s], s))
                        else:
                            heapq.heappush(
                                pending,
                                (ready_at[s], neg_prio[s], uids[s], s),
                            )
            fresh.sort()
            current = fresh
        cycle += 1

    schedule = Schedule(
        cycle_of={instrs[k]: cycle_of_idx[k] for k in range(n)},
        machine=machine,
    )
    schedule.verify(sg)
    return schedule


def inorder_issue_schedule(
    instructions: Sequence[Instruction],
    sg: ScheduleGraph,
    machine: MachineDescription,
) -> Schedule:
    """Schedule *instructions* in strict program order (no reordering).

    Models an in-order superscalar front end: each instruction issues
    at the earliest cycle >= its predecessors' requirements, resources
    permitting, and never before an earlier instruction's issue cycle.
    This is the "no scheduler" baseline — the cost of false dependences
    shows up here directly as lost dual-issue.
    """
    table = ReservationTable(machine)
    cycle_of: Dict[Instruction, int] = {}
    floor = 0
    for instr in instructions:
        earliest = floor
        for pred in sg.graph.predecessors(instr):
            if pred in cycle_of:
                earliest = max(earliest, cycle_of[pred] + sg.delay(pred, instr))
        cycle = earliest
        while not table.can_issue(instr, cycle):
            cycle += 1
        table.issue(instr, cycle)
        cycle_of[instr] = cycle
        floor = cycle  # later instructions may co-issue but not jump back
    schedule = Schedule(cycle_of=cycle_of, machine=machine)
    schedule.verify(sg)
    return schedule
