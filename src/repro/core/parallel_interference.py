"""The parallelizable interference graph G = (V, E) — the paper's core
construction.

Basic-block form (Section 3): ``V = V_r`` and
``E = E_r ∪ {{u, v} : {u, v} ∈ E_f and u, v ∈ V}`` — the classic
interference edges plus the false-dependence edges projected onto the
defining instructions' value nodes.  Theorem 1: every coloring of G is
a spill-free allocation whose scheduling graph has no false dependence.
Theorem 2: G is minimal with that property.

Global form: ``V`` is the web set of the global interference graph and
``E = E_Gr ∪ {{u, v} : {u_i, v_j} ∈ E_Gf, u_i ∈ u, v_j ∈ v}`` — a false
edge between any constituent definitions of two webs connects the webs
(Claim 2 guarantees constituents of one web never execute in parallel,
so no self-edge is lost).  False-dependence graphs are built per
scheduling region; instructions of different regions are never
co-issued, so no cross-region false edges exist.

Every edge records which side(s) contributed it — ``E_r`` only,
``E_f`` only, or both — because the spill/parallelism tradeoff
heuristics (Lemmas 2 and 3) key on exactly that distinction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.analysis.reaching import DefPoint
from repro.analysis.regions import Region, schedule_regions
from repro.analysis.webs import Web, web_of_definition
from repro.deps.false_dependence import (
    FalseDependenceGraph,
    false_dependence_graph,
)
from repro.deps.schedule_graph import region_schedule_graph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription
from repro.regalloc.interference import (
    InterferenceGraph,
    build_interference_graph,
)
from repro.utils.bits import iter_bits
from repro.utils.errors import AllocationError


class EdgeOrigin(enum.Flag):
    """Which constituent graph(s) an edge of G came from."""

    INTERFERENCE = enum.auto()
    FALSE = enum.auto()
    BOTH = INTERFERENCE | FALSE


@dataclass
class ParallelInterferenceGraph:
    """G together with its provenance.

    Attributes:
        graph: Undirected graph over webs; each edge carries an
            ``origin`` :class:`EdgeOrigin` attribute.
        interference: The underlying G_r.
        false_graphs: Per-region false-dependence graphs (region index
            order).
        regions: The scheduling regions used.
        function: The analyzed (symbolic-register) function.
        machine: The machine whose constraints shaped E_t.
    """

    graph: nx.Graph
    interference: InterferenceGraph
    false_graphs: List[FalseDependenceGraph]
    regions: List[Region]
    function: Function
    machine: MachineDescription

    def __post_init__(self) -> None:
        # uid → owning false-dependence graph, built once; the old
        # per-lookup scan over every region × instruction was a hot
        # spot for the scheduling-value model.
        self._fdg_by_uid: Dict[int, FalseDependenceGraph] = {
            instr.uid: fdg
            for fdg in self.false_graphs
            for instr in fdg.instructions
        }

    # ------------------------------------------------------------------
    # Edge views
    # ------------------------------------------------------------------

    @property
    def webs(self) -> List[Web]:
        return self.interference.webs

    def origin(self, a: Web, b: Web) -> EdgeOrigin:
        return self.graph.edges[a, b]["origin"]

    def _edges_with_origin(self, predicate) -> List[Tuple[Web, Web]]:
        result = [
            (a, b) if a.index <= b.index else (b, a)
            for a, b, data in self.graph.edges(data=True)
            if predicate(data["origin"])
        ]
        result.sort(key=lambda pair: (pair[0].index, pair[1].index))
        return result

    def interference_edges(self) -> List[Tuple[Web, Web]]:
        """Edges present in E_r (possibly also in E_f)."""
        return self._edges_with_origin(lambda o: bool(o & EdgeOrigin.INTERFERENCE))

    def false_only_edges(self) -> List[Tuple[Web, Web]]:
        """Edges in E − E_r: removable without risking a spill (Lemma 2)
        at the cost of parallelism."""
        return self._edges_with_origin(lambda o: o == EdgeOrigin.FALSE)

    def shared_edges(self) -> List[Tuple[Web, Web]]:
        """Edges in E_f ∩ E_r: "used by both the scheduler and the
        allocator" — keeping them distinct both prevents a spill and
        enables parallelism (Lemma 3)."""
        return self._edges_with_origin(lambda o: o == EdgeOrigin.BOTH)

    def all_edges(self) -> List[Tuple[Web, Web]]:
        return self._edges_with_origin(lambda o: True)

    def interference_degree(self, web: Web) -> int:
        """Degree counting only E_r edges — the quantity the paper's
        second simplify loop compares against r."""
        return sum(
            1
            for nbr in self.graph.neighbors(web)
            if self.graph.edges[web, nbr]["origin"] & EdgeOrigin.INTERFERENCE
        )

    def remove_false_edge(self, a: Web, b: Web) -> None:
        """Give up the parallelism between *a* and *b* (heuristic move
        under register pressure).  Only E_f − E_r edges may go.

        Raises:
            AllocationError: when the edge is absent or not false-only.
        """
        if not self.graph.has_edge(a, b):
            raise AllocationError("no edge between {} and {}".format(a, b))
        if self.graph.edges[a, b]["origin"] != EdgeOrigin.FALSE:
            raise AllocationError(
                "edge {}-{} is an interference edge; removing it risks "
                "a spill".format(a, b)
            )
        self.graph.remove_edge(a, b)

    # ------------------------------------------------------------------
    # Scheduling-side queries
    # ------------------------------------------------------------------

    def false_graph_of_instruction(
        self, instr: Instruction
    ) -> Optional[FalseDependenceGraph]:
        return self._fdg_by_uid.get(instr.uid)

    def copy(self) -> "ParallelInterferenceGraph":
        clone = ParallelInterferenceGraph(
            graph=self.graph.copy(),
            interference=self.interference,
            false_graphs=self.false_graphs,
            regions=self.regions,
            function=self.function,
            machine=self.machine,
        )
        return clone


def _web_def_masks(
    kernel, def_to_web: Dict[DefPoint, Web]
) -> Tuple[List[Web], List[int]]:
    """Per-web bitmask of defining-instruction positions in the
    kernel's dense index, index-sorted."""
    web_def_masks: Dict[Web, int] = {}
    for i, instr in enumerate(kernel.index.instructions):
        for reg in instr.defs():
            web = def_to_web.get(DefPoint(instr, reg))
            if web is not None:
                web_def_masks[web] = web_def_masks.get(web, 0) | (1 << i)
    webs = sorted(web_def_masks, key=lambda w: w.index)
    return webs, [web_def_masks[w] for w in webs]


def _splice_false_edges(
    kernel,
    def_to_web: Dict[DefPoint, Web],
    graph: nx.Graph,
) -> None:
    """Project the kernel's E_f onto web pairs and write them straight
    into *graph*'s adjacency dicts (every web already a node).

    Fused projection + insertion: each source web's row is fetched
    once, pairs are never materialized as hashed tuples, and edges
    share one attribute dict between both directions — the dominant
    cost of PIG construction before the fusion."""
    webs, masks = _web_def_masks(kernel, def_to_web)
    ef_rows = kernel.ef_rows
    adj = graph._adj
    false_flag = EdgeOrigin.FALSE
    count = len(webs)
    for a, web_u in enumerate(webs):
        neighbor_mask = 0
        for i in iter_bits(masks[a]):
            neighbor_mask |= ef_rows[i]
        if not neighbor_mask:
            continue
        row_u = adj[web_u]
        for b in range(a + 1, count):
            if neighbor_mask & masks[b]:
                web_v = webs[b]
                data = row_u.get(web_v)
                if data is None:
                    data = {"origin": false_flag}
                    row_u[web_v] = data
                    adj[web_v][web_u] = data
                else:
                    data["origin"] |= false_flag


def _insert_edges_fast(graph: nx.Graph, edges, origin: EdgeOrigin) -> None:
    """Batch edge insertion writing networkx's adjacency dicts
    directly (every endpoint must already be a node).  Falls back to
    ``add_edges_from`` if the internals are not the expected
    dict-of-dicts (exotic graph subclasses)."""
    adj = getattr(graph, "_adj", None)
    if adj is None:  # pragma: no cover - non-standard nx subclass
        graph.add_edges_from(edges, origin=origin)
        return
    for u, v in edges:
        data = {"origin": origin}
        adj[u][v] = data
        adj[v][u] = data


def build_parallel_interference_graph(
    fn: Function,
    machine: MachineDescription,
    use_regions: bool = True,
    engine: str = "bitset",
    check_deadline=None,
) -> ParallelInterferenceGraph:
    """Build G for *fn* on *machine*.

    Args:
        fn: Symbolic-register function (single- or multi-block).
        machine: Supplies latencies and the contention constraints that
            enter E_t.
        use_regions: Group control-equivalent blocks into scheduling
            regions before deriving false-dependence graphs (the global
            extension).  With False, each block is its own region
            (classic per-basic-block operation).
        engine: ``"bitset"`` (default) runs the word-parallel
            dependence kernel; ``"reference"`` runs the retained
            set-based pipeline (:mod:`repro.deps.reference`) — same
            output, used by the equivalence suite, the paranoid
            cross-check and ``repro bench``.
        check_deadline: Optional zero-argument callback polled between
            regions and inside the kernels' closure loops; it raises
            to preempt the build when the driver's wall-clock budget
            has expired mid-phase.
    """
    if engine not in ("bitset", "reference"):
        raise AllocationError("unknown PIG engine {!r}".format(engine))
    interference = build_interference_graph(fn)
    def_to_web = web_of_definition(interference.webs)

    if use_regions:
        regions = schedule_regions(fn)
    else:
        regions = [
            Region(blocks=(name,), index=i)
            for i, name in enumerate(fn.block_names())
        ]

    graph = nx.Graph()
    graph.add_nodes_from(interference.webs)
    _insert_edges_fast(
        graph, list(interference.graph.edges()), EdgeOrigin.INTERFERENCE
    )

    false_graphs: List[FalseDependenceGraph] = []
    for region in regions:
        if check_deadline is not None:
            check_deadline()
        sg = region_schedule_graph(fn, region.blocks, machine=machine)
        if not sg.instructions:
            continue
        if engine == "bitset":
            fdg = false_dependence_graph(
                sg, machine, check_deadline=check_deadline
            )
            false_graphs.append(fdg)
            _splice_false_edges(fdg.kernel, def_to_web, graph)
        else:
            from repro.deps.reference import (
                reference_false_dependence_graph,
                reference_project_false_pairs_to_webs,
            )

            fdg = reference_false_dependence_graph(sg, machine)
            false_graphs.append(fdg)
            projected = reference_project_false_pairs_to_webs(
                fdg, def_to_web
            )
            for web_a, web_b in projected:
                if graph.has_edge(web_a, web_b):
                    graph.edges[web_a, web_b]["origin"] |= EdgeOrigin.FALSE
                else:
                    graph.add_edge(web_a, web_b, origin=EdgeOrigin.FALSE)

    return ParallelInterferenceGraph(
        graph=graph,
        interference=interference,
        false_graphs=false_graphs,
        regions=regions,
        function=fn,
        machine=machine,
    )


def augmented_parallel_interference_graph(
    pig: ParallelInterferenceGraph,
) -> nx.Graph:
    """The paper's augmented variant: ``V = V_s`` (every instruction,
    including stores and branches), ``E = E_s ∪ E_f`` projected onto
    instructions.

    "In this graph an edge between two nodes means that the two
    operations may be scheduled at the same cycle or the two nodes
    represent live ranges that are not disjoint.  Thus, at each node v
    the edges {v, u} ∈ E_f ∩ E provide the list of available
    instructions (with v) as used in list scheduling algorithms."

    Edges carry ``kind`` = ``"false"`` or ``"schedule"``; the augmented
    graph informs the scheduler and takes no part in coloring.
    """
    graph = nx.Graph()
    for fdg in pig.false_graphs:
        for instr in fdg.instructions:
            graph.add_node(instr)
        for u, v in fdg.schedule_graph.edges():
            graph.add_edge(u, v, kind="schedule")
        for u, v in fdg.ef_pairs:
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, kind="false")
    return graph
