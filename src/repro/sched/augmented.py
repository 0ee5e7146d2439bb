"""List scheduling driven by the augmented parallelizable interference
graph.

The paper's augmented graph exists for exactly this: "at each node v
the edges {v, u} ∈ E_f ∩ E provide the list of available instructions
(with v) as used in list scheduling algorithms such as in [9]".  This
scheduler builds each cycle around a seed instruction and fills the
remaining issue slots only with the seed's E_f-neighbors (instructions
provably co-issueable with it), consulting the reservation table for
joint feasibility (pairwise co-issueability does not imply a whole
group fits, e.g. three fixed-point ops on two fixed units).

It produces the same class of legal schedules as the plain list
scheduler — the value is methodological: it demonstrates that E_f is
precisely the availability relation a scheduler needs, and its
makespan is asserted (in tests) to match the classic scheduler's on
the worked examples.
"""

from __future__ import annotations

from typing import List, Optional

from repro.deps.false_dependence import FalseDependenceGraph
from repro.deps.schedule_graph import ScheduleGraph
from repro.machine.model import MachineDescription
from repro.obs import get_metrics, get_tracer
from repro.sched.list_scheduler import (
    PriorityFn,
    Schedule,
    _CompactReservation,
    critical_path_priority,
)
from repro.utils.errors import SchedulingError
from repro.utils.faults import trip


def compact_augmented_schedule(
    sg: ScheduleGraph,
    fdg: FalseDependenceGraph,
    machine: MachineDescription,
    priority: Optional[PriorityFn] = None,
) -> Schedule:
    """Schedule *sg* using E_f as the per-cycle availability relation.

    Per cycle, the seed is the first ready candidate in (-priority,
    uid) order that the reservation table admits, and each extension
    step takes the first still-ready member of the group's E_f
    availability list that the table admits (pairwise co-issueability
    does not imply a whole group fits, so joint feasibility is still
    checked).  Candidates wait in a ready-cycle heap, and two
    monotonicity facts make per-cycle rejection final (table occupancy
    only grows within a cycle, and the group mask only shrinks), so
    rejected candidates are skipped instead of re-scanned every pass.

    Args:
        sg: The (symbolic-register) schedule graph.
        fdg: Its false-dependence graph — E_f membership (bit tests
            against ``fdg.coissue_mask`` when kernel-backed) drives
            which instructions may join a started cycle.
        machine: Resource model.
        priority: Seed selection priority; defaults to critical path.
            Evaluated once per instruction, so it must be pure.

    Returns:
        A verified :class:`Schedule`.
    """
    trip("sched.augmented")
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
    succs: List[tuple] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in sg.edges():
        ui, vi = pos[u], pos[v]
        succs[ui].append((vi, sg.delay(u, v)))
        indeg[vi] += 1

    table = _CompactReservation(machine, instrs)
    ready_at = [0] * n
    cycle_of_idx = [-1] * n
    pending = [
        (0, neg_prio[k], uids[k], k) for k in range(n) if indeg[k] == 0
    ]
    heapq.heapify(pending)
    #: Candidates whose ready cycle has arrived, sorted by
    #: (-priority, uid); entries leave only by issuing.
    avail: List[tuple] = []

    def drain(cycle: int) -> None:
        moved = False
        while pending and pending[0][0] <= cycle:
            _, negp, uid, idx = heapq.heappop(pending)
            avail.append((negp, uid, idx))
            moved = True
        if moved:
            avail.sort()

    def issue(idx: int, cycle: int) -> None:
        table.issue(idx, cycle)
        cycle_of_idx[idx] = cycle
        for s, delay in succs[idx]:
            earliest = cycle + delay
            if ready_at[s] < earliest:
                ready_at[s] = earliest
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(
                    pending, (ready_at[s], neg_prio[s], uids[s], s)
                )

    cycle = 0
    scheduled = 0
    max_cycles = sum(table.lat) + n + 1
    while scheduled < n:
        if cycle > max_cycles * 2 + 10:
            raise SchedulingError("augmented scheduler failed to progress")
        drain(cycle)
        if not avail:
            if not pending:
                raise SchedulingError(
                    "augmented scheduler failed to progress"
                )
            cycle = max(cycle + 1, pending[0][0])
            continue
        # Seed: first admitted candidate in priority order.
        rejected = set()  # final for this cycle (occupancy is monotone)
        seed = -1
        for negp, uid, idx in avail:
            if table.can_issue(idx, cycle):
                seed = idx
                break
            rejected.add(idx)
        if seed < 0:
            cycle += 1
            continue
        avail = [e for e in avail if e[2] != seed]
        issue(seed, cycle)
        scheduled += 1
        group = [instrs[seed]]
        group_mask = fdg.coissue_mask(instrs[seed])
        if group_mask is not None:
            position = fdg.kernel.index.position

            def joins_group(idx: int) -> bool:
                return bool((group_mask >> position(instrs[idx])) & 1)

        else:

            def joins_group(idx: int) -> bool:
                instr = instrs[idx]
                return all(
                    fdg.has_false_edge(instr, member) for member in group
                )

        # Extend with the seed group's availability list.  Group
        # membership only shrinks as the mask ANDs down, so a
        # non-member stays out for the rest of the cycle.
        while True:
            drain(cycle)
            chosen = -1
            for negp, uid, idx in avail:
                if idx in rejected:
                    continue
                if not joins_group(idx):
                    rejected.add(idx)
                    continue
                if table.can_issue(idx, cycle):
                    chosen = idx
                    break
                rejected.add(idx)
            if chosen < 0:
                break
            avail = [e for e in avail if e[2] != chosen]
            issue(chosen, cycle)
            scheduled += 1
            group.append(instrs[chosen])
            if group_mask is not None:
                group_mask &= fdg.coissue_mask(instrs[chosen])
        cycle += 1

    schedule = Schedule(
        cycle_of={instrs[k]: cycle_of_idx[k] for k in range(n)},
        machine=machine,
    )
    schedule.verify(sg)

    issued_count = n
    slots = schedule.makespan * machine.issue_width
    utilization = round(issued_count / slots, 4) if slots else 0.0
    get_tracer().event(
        "sched.block",
        cycles=schedule.makespan,
        issued=issued_count,
        slots=slots,
        utilization=utilization,
    )
    metrics = get_metrics()
    metrics.counter("sched.blocks").inc()
    metrics.counter("sched.cycles").inc(schedule.makespan)
    metrics.counter("sched.issued").inc(issued_count)
    metrics.histogram("sched.slot_utilization").observe(utilization)
    return schedule
