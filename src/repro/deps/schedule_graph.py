"""The schedule graph G_s = (V_s, E_s).

"Every vertex v ∈ V_s corresponds to an instruction ...  There exists a
directed edge (u, v) ∈ E_s from u to v if u must be executed before v.
This happens in one of the following three cases: (i) there is a data
dependence of v on u, (ii) there is a control dependence from u to v,
(iii) there is a machine constraint that enforces the precedence of u
over v."

Edges carry the *delay* the scheduler must respect: a flow edge's delay
is the producer's result latency on the given machine; ordering-only
edges (anti/output/memory/control) carry delay 1, i.e. strict
precedence without additional stall.  (The paper notes these "delay
numbers on the edges ... may be used for generating more accurate EP
numbers".)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.deps.datadeps import (
    Dependence,
    DependenceKind,
    all_dependences,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription
from repro.utils.errors import SchedulingError


@dataclass
class ScheduleGraph:
    """A precedence DAG over instructions with per-edge delays.

    Attributes:
        instructions: The underlying sequence in program order.
        graph: ``networkx.DiGraph``; nodes are :class:`Instruction`
            objects, edges have ``kind`` (:class:`DependenceKind`) and
            ``delay`` (int cycles) attributes.
        machine: The machine whose latencies parameterize the delays,
            or ``None`` for a latency-agnostic graph (all delays 1).
        boundaries: Start offsets of the underlying blocks within
            ``instructions`` when the graph was built by one of the
            canonical constructors, else ``None``.  Together with
            ``transit_positions`` this pins down the edge set without
            serializing it: every other edge is a deterministic
            function of the instruction texts and the block layout
            (see :func:`repro.cache.keys.region_digest`).
        transit_positions: Sorted ``(pos_u, pos_v)`` pairs of the
            cross-region transit edges (deps.global_deps), or ``None``
            when the graph carries edges the canonical recipe does not
            (``extra_precedence``, ``keep_control_edges``).
    """

    instructions: List[Instruction]
    graph: nx.DiGraph = field(default_factory=nx.DiGraph)
    machine: Optional[MachineDescription] = None
    boundaries: Optional[Tuple[int, ...]] = None
    transit_positions: Optional[Tuple[Tuple[int, int], ...]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def add_dependence(self, dep: Dependence) -> None:
        if dep.kind is DependenceKind.FLOW:
            delay = (
                self.machine.latency_of(dep.source)
                if self.machine is not None
                else dep.source.latency
            )
        elif dep.kind is DependenceKind.ANTI:
            # Anti dependences permit same-cycle issue: the hardware
            # reads operands before writing results, which is why the
            # open-interval convention lets a register be reused "in
            # the same statement that last uses it".  The target may
            # not execute strictly *before* the source (delay 0).
            delay = 0
        else:
            delay = 1
        self.add_edge(dep.source, dep.target, dep.kind, delay)

    def add_edge(
        self,
        source: Instruction,
        target: Instruction,
        kind: DependenceKind,
        delay: int = 1,
    ) -> None:
        """Add (or strengthen) a precedence edge.

        Parallel dependences between the same pair keep the maximum
        delay and the earliest-added kind.
        """
        if self.graph.has_edge(source, target):
            data = self.graph.edges[source, target]
            data["delay"] = max(data["delay"], delay)
            return
        self.graph.add_edge(source, target, kind=kind, delay=delay)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def predecessors(self, instr: Instruction) -> List[Instruction]:
        return list(self.graph.predecessors(instr))

    def successors(self, instr: Instruction) -> List[Instruction]:
        return list(self.graph.successors(instr))

    def delay(self, source: Instruction, target: Instruction) -> int:
        return self.graph.edges[source, target]["delay"]

    def kind(self, source: Instruction, target: Instruction) -> DependenceKind:
        return self.graph.edges[source, target]["kind"]

    def edges(self) -> List[Tuple[Instruction, Instruction]]:
        return list(self.graph.edges())

    def dependence_edges(
        self, kinds: Optional[Iterable[DependenceKind]] = None
    ) -> List[Tuple[Instruction, Instruction]]:
        """Edges filtered by dependence kind."""
        if kinds is None:
            return self.edges()
        wanted = set(kinds)
        return [
            (u, v)
            for u, v, data in self.graph.edges(data=True)
            if data["kind"] in wanted
        ]

    def check_acyclic(self) -> None:
        if not nx.is_directed_acyclic_graph(self.graph):
            cycle = nx.find_cycle(self.graph)
            raise SchedulingError(
                "schedule graph has a cycle: {}".format(
                    " -> ".join(str(u.uid) for u, _v in cycle)
                )
            )

    def topological_order(self) -> List[Instruction]:
        """A deterministic topological order (program order as tie-break)."""
        self.check_acyclic()
        position = {instr: idx for idx, instr in enumerate(self.instructions)}
        return list(
            nx.lexicographical_topological_sort(
                self.graph, key=lambda i: position.get(i, len(position))
            )
        )

    def critical_path_length(self) -> int:
        """Length in cycles of the longest delay-weighted path, counting
        one cycle for the final instruction itself — a lower bound on
        any schedule's makespan."""
        self.check_acyclic()
        finish: Dict[Instruction, int] = {}
        for instr in self.topological_order():
            earliest = 0
            for pred in self.graph.predecessors(instr):
                earliest = max(
                    earliest, finish[pred] + self.delay(pred, instr) - 1
                )
            finish[instr] = earliest + 1
        return max(finish.values(), default=0)

    def __len__(self) -> int:
        return len(self.instructions)


def build_schedule_graph(
    instructions: Sequence[Instruction],
    machine: Optional[MachineDescription] = None,
    extra_precedence: Iterable[Tuple[Instruction, Instruction]] = (),
) -> ScheduleGraph:
    """Build G_s for a straight-line instruction sequence.

    Edges added:
      * every register/memory data dependence of the sequence;
      * an ordering edge from every instruction to the trailing branch
        (if any) — the branch semantically ends the block, a machine
        precedence constraint of type (iii);
      * caller-supplied *extra_precedence* pairs (kind MACHINE), the
        hook for explicit machine-specific precedence rules.
    """
    sg = ScheduleGraph(instructions=list(instructions), machine=machine)
    for instr in instructions:
        sg.graph.add_node(instr)
    for dep in all_dependences(instructions):
        sg.add_dependence(dep)
    if instructions and instructions[-1].opcode.is_branch:
        terminator = instructions[-1]
        for instr in instructions[:-1]:
            sg.add_edge(instr, terminator, DependenceKind.CONTROL, delay=1)
    extra = list(extra_precedence)
    for source, target in extra:
        sg.add_edge(source, target, DependenceKind.MACHINE, delay=1)
    if not extra:
        # Pure single-sequence recipe: the edge set is a function of
        # the instruction texts alone.
        sg.boundaries = (0,)
        sg.transit_positions = ()
    return sg


def block_schedule_graph(
    block: BasicBlock, machine: Optional[MachineDescription] = None
) -> ScheduleGraph:
    """G_s of a single basic block."""
    return build_schedule_graph(block.instructions, machine=machine)


def region_schedule_graph(
    fn: Function,
    block_names: Sequence[str],
    machine: Optional[MachineDescription] = None,
    keep_control_edges: bool = False,
    transit_pairs: Optional[
        Sequence[Tuple[Instruction, Instruction]]
    ] = None,
) -> ScheduleGraph:
    """G_s of a multi-block region.

    Data dependences are computed over the concatenated instruction
    sequence.  Control-dependence edges between the region's blocks are
    *omitted* by default — the paper's region scheduling works "by
    logically ignoring the control dependence edges between two basic
    blocks that are considered as a single block for scheduling" — but
    each block's internal branch-last ordering is preserved, and
    branches of earlier blocks stay ordered before later blocks'
    branches (the region's control skeleton).  Pass
    ``keep_control_edges=True`` to order every earlier-block
    instruction before every later-block instruction instead (no
    cross-block motion).

    *transit_pairs* supplies the region's precomputed transit pairs
    (the region loop computes them from one shared whole-function
    dependence graph, and digests them for the region cache).
    """
    blocks = [fn.block(name) for name in block_names]
    instructions: List[Instruction] = []
    boundaries: List[int] = []
    for block in blocks:
        boundaries.append(len(instructions))
        instructions.extend(block.instructions)
    sg = build_schedule_graph(instructions, machine=machine)

    if transit_pairs is None and len(blocks) > 1:
        # Dependences between region instructions may transit blocks
        # OUTSIDE the region (a value defined before an if, copied in
        # an arm, consumed after the join).  The concatenated-sequence
        # pass above cannot see those; add them from the whole-function
        # dependence graph so the region's E_t — hence E_f — stays
        # sound (see deps.global_deps).
        from repro.deps.global_deps import transit_dependence_pairs as _tdp

        transit_pairs = _tdp(fn, instructions)
    transit_pairs = list(transit_pairs or ())
    for u, v in transit_pairs:
        sg.add_edge(u, v, DependenceKind.CONTROL, delay=1)
    position = {instr: idx for idx, instr in enumerate(instructions)}
    sg.boundaries = tuple(boundaries)
    sg.transit_positions = tuple(
        sorted((position[u], position[v]) for u, v in transit_pairs)
    )

    sequences: List[List[Instruction]] = [list(b.instructions) for b in blocks]
    if keep_control_edges:
        # The extra ordering edges are not part of the canonical
        # recipe, so the layout fields no longer pin down the edge set.
        sg.boundaries = None
        sg.transit_positions = None
        for earlier, later in zip(sequences, sequences[1:]):
            for u in earlier:
                for v in later:
                    sg.add_edge(u, v, DependenceKind.CONTROL, delay=1)
    else:
        # Keep each block's terminator before the next block's
        # terminator, and before nothing else: instructions may migrate
        # across the (plausible) block boundary.
        for earlier, later in zip(sequences, sequences[1:]):
            if not earlier or not later:
                continue
            if earlier[-1].opcode.is_branch and later[-1].opcode.is_branch:
                sg.add_edge(
                    earlier[-1], later[-1], DependenceKind.CONTROL, delay=1
                )
            # Every instruction must still come after branches that
            # guard it when those branches are conditional; for
            # control-equivalent blocks this is unnecessary, which is
            # exactly why regions are restricted to plausible pairs.
    return sg
