"""The false-dependence graph G_f = (V_f, E_f).

Construction, verbatim from the paper (Section 3):

* ``V_f = V_s`` — the instructions, presented with symbolic registers;
* ``E_t`` — the undirected transitive closure of G_s, plus "all the
  non-precedence based constraints that describe the restrictions on
  the machine capabilities" (pairs that may not share a cycle);
* ``E_f`` — the complement: ``{u, v}`` with ``u ≠ v`` and
  ``{u, v} ∉ E_t``.

Lemma 1: an edge (u, v) of a post-allocation scheduling graph is a
*false dependence* iff ``{u, v} ∈ E_f``.  "The edges in the complement
graph present the actual parallelism available to our machine for the
given program"; "the more edges are present in [E_t] the better the
results will be" — i.e. missing machine constraints only make the
allocator more conservative about sharing registers, never incorrect.

Since the bitset rewrite the relations live as big-int rows in a
:class:`~repro.deps.bitset.DependenceBitKernel`; ``et_pairs`` and
``ef_pairs`` are lazily materialized (and cached) pair-set views kept
for API compatibility.  The retained set-based construction is in
:mod:`repro.deps.reference`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.deps.bitset import DependenceBitKernel
from repro.deps.schedule_graph import ScheduleGraph, build_schedule_graph
from repro.deps.transitive import Pair, ordered_pair
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription


class FalseDependenceGraph:
    """G_f plus the intermediate E_t it was derived from.

    Backed either by a :class:`DependenceBitKernel` (the production
    path) or by explicit pair sets (the retained reference path); the
    public surface is identical in both cases.

    Attributes:
        instructions: V_f in program order.
        et_pairs: The constraint set E_t (undirected, uid-normalized).
        ef_pairs: The false-dependence edge set E_f (the complement).
        schedule_graph: The symbolic-register G_s the closure came from.
            May be *lazy*: a region-cache hit replays the kernel rows
            without ever building G_s, and supplies a factory instead;
            the first access builds and memoizes it.
        kernel: The bitset kernel, or ``None`` on the reference path.
        value_rows: Optional positional ``(ep, height)`` rows replayed
            from the region cache, so ``SchedulingValueModel`` does not
            have to force the lazy graph just to price false edges.
        region_index: The ``Region.index`` of the scheduling region the
            graph was derived for (set by :func:`~repro.core.
            parallel_interference.region_false_graphs`); ``None`` for
            a graph built outside that loop.
    """

    def __init__(
        self,
        instructions: List[Instruction],
        et_pairs: Optional[Set[Pair]] = None,
        ef_pairs: Optional[Set[Pair]] = None,
        schedule_graph: Optional[ScheduleGraph] = None,
        kernel: Optional[DependenceBitKernel] = None,
        schedule_graph_factory: Optional[
            Callable[[], ScheduleGraph]
        ] = None,
        value_rows: Optional[Tuple[List[int], List[float]]] = None,
    ) -> None:
        if kernel is None and (et_pairs is None or ef_pairs is None):
            raise ValueError(
                "FalseDependenceGraph needs a bitset kernel or explicit "
                "et_pairs/ef_pairs sets"
            )
        self.instructions = list(instructions)
        self._schedule_graph = schedule_graph
        self._schedule_graph_factory = schedule_graph_factory
        self.value_rows = value_rows
        self.region_index: Optional[int] = None
        self.kernel = kernel
        self._et_pairs = et_pairs
        self._ef_pairs = ef_pairs
        self._adjacency: Optional[Dict[int, List[Instruction]]] = None

    @property
    def schedule_graph(self) -> Optional[ScheduleGraph]:
        if (
            self._schedule_graph is None
            and self._schedule_graph_factory is not None
        ):
            self._schedule_graph = self._schedule_graph_factory()
        return self._schedule_graph

    @schedule_graph.setter
    def schedule_graph(self, sg: Optional[ScheduleGraph]) -> None:
        self._schedule_graph = sg

    # ------------------------------------------------------------------
    # Pair-set views (lazy when kernel-backed)
    # ------------------------------------------------------------------

    @property
    def et_pairs(self) -> Set[Pair]:
        if self._et_pairs is None:
            self._et_pairs = self.kernel.et_pairs()
        return self._et_pairs

    @property
    def ef_pairs(self) -> Set[Pair]:
        if self._ef_pairs is None:
            self._ef_pairs = self.kernel.ef_pairs()
        return self._ef_pairs

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_false_edge(self, a: Instruction, b: Instruction) -> bool:
        """Lemma 1 test: could *a* and *b* issue in the same cycle when
        the code is presented with symbolic registers?"""
        if self.kernel is not None:
            return self.kernel.has_false_edge(a, b)
        return ordered_pair(a, b) in self._ef_pairs

    def coissue_mask(self, instr: Instruction) -> Optional[int]:
        """E_f neighbors of *instr* as a bitmask over the kernel's
        dense indices, or ``None`` on the reference path.  The
        scheduler ANDs these masks to answer "may this instruction
        join the cycle group?" in one word op."""
        if self.kernel is None:
            return None
        return self.kernel.ef_row(instr)

    def false_neighbors(self, instr: Instruction) -> List[Instruction]:
        """Instructions co-schedulable with *instr* (its E_f neighbors,
        "the list of available instructions" for list scheduling).

        Backed by a uid-keyed adjacency index computed once for the
        whole graph; lookups are O(1) plus the result copy."""
        return list(self._adjacency_index().get(instr.uid, ()))

    def _adjacency_index(self) -> Dict[int, List[Instruction]]:
        if self._adjacency is None:
            adjacency: Dict[int, List[Instruction]] = {}
            if self.kernel is not None:
                index = self.kernel.index
                for i, instr in enumerate(index.instructions):
                    neighbors = index.select(self.kernel.ef_rows[i])
                    neighbors.sort(key=lambda n: n.uid)
                    adjacency[instr.uid] = neighbors
            else:
                for a, b in self._ef_pairs:
                    adjacency.setdefault(a.uid, []).append(b)
                    adjacency.setdefault(b.uid, []).append(a)
                for neighbors in adjacency.values():
                    neighbors.sort(key=lambda n: n.uid)
            self._adjacency = adjacency
        return self._adjacency

    @property
    def parallelism_degree(self) -> float:
        """|E_f| over all pairs: 1.0 means fully parallel, 0.0 serial."""
        n = len(self.instructions)
        total = n * (n - 1) // 2
        if not total:
            return 0.0
        if self.kernel is not None:
            return self.kernel.ef_edge_count() / total
        return len(self._ef_pairs) / total


def false_dependence_graph(
    sg: ScheduleGraph,
    machine: MachineDescription,
    check_deadline=None,
) -> FalseDependenceGraph:
    """Derive G_f from a symbolic-register schedule graph and machine.

    Follows the paper's recipe: transitive closure of G_s, directions
    removed, machine contention pairs added, then complemented — all
    in bitrow form via :meth:`DependenceBitKernel.build`.
    *check_deadline* is forwarded to the kernel so an expired
    wall-clock budget preempts the closure loops mid-phase.
    """
    kernel = DependenceBitKernel.build(
        sg, machine, check_deadline=check_deadline
    )
    return FalseDependenceGraph(
        instructions=list(sg.instructions),
        schedule_graph=sg,
        kernel=kernel,
    )


def block_false_dependence_graph(
    block: BasicBlock,
    machine: MachineDescription,
) -> FalseDependenceGraph:
    """G_f of one basic block presented with symbolic registers."""
    sg = build_schedule_graph(block.instructions, machine=machine)
    return false_dependence_graph(sg, machine)
