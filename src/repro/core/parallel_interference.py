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
from typing import Dict, List, Optional, Set, Tuple

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
from repro.utils.errors import AllocationError, ReproError


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


def _project_false_pairs_to_webs(
    fdg: FalseDependenceGraph,
    def_to_web: Dict[DefPoint, Web],
) -> Set[Tuple[Web, Web]]:
    """Map instruction-level E_f pairs to web pairs (defs only; nodes
    like stores and branches have no value to allocate and only appear
    in the augmented graph).

    On the bitset path each web gets a mask of its defining
    instructions' positions; two webs are connected iff the OR of one
    web's E_f rows intersects the other's definition mask — pure word
    ops, never materializing E_f tuples.  The reference path iterates
    the tuple set (:mod:`repro.deps.reference`).
    """
    kernel = fdg.kernel
    if kernel is None:
        from repro.deps.reference import reference_project_false_pairs_to_webs

        return reference_project_false_pairs_to_webs(fdg, def_to_web)

    pairs: Set[Tuple[Web, Web]] = set()
    webs, masks = _web_def_masks(kernel, def_to_web)
    ef_rows = kernel.ef_rows
    count = len(webs)
    for a, web_u in enumerate(webs):
        neighbor_mask = 0
        for i in iter_bits(masks[a]):
            neighbor_mask |= ef_rows[i]
        if not neighbor_mask:
            continue
        for b in range(a + 1, count):
            if neighbor_mask & masks[b]:
                pairs.add((web_u, webs[b]))
    return pairs


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


def _splice_false_edges_vector(
    kernel,
    def_to_web: Dict[DefPoint, Web],
    graph: nx.Graph,
    inter_graph: nx.Graph,
    check_deadline=None,
) -> None:
    """Vectorized variant of :func:`_splice_false_edges`: pair
    detection runs on the kernel's packed uint64 E_f matrix
    (:func:`repro.deps.vector.web_pair_hits`), insertion shares one
    attribute dict across all false-only edges of the call and goes
    through C-speed ``dict.fromkeys`` + ``update`` bulk writes.

    Sharing one dict is safe because false-only origins are only ever
    *read* after construction (interference-overlap edges get
    ``origin`` OR-ed into their private dict instead), and
    ``Graph.copy()`` gives every edge a fresh dict.  A false edge seen
    again from a later region overwrites (both directions, so they
    stay consistent) with an equal-valued dict — a no-op by value.

    *inter_graph* is the function's E_r graph over webs; its (few)
    edges are the only entries that may need the OR treatment, so the
    common all-fresh row skips the per-key existence probing entirely.
    """
    from repro.deps.vector import web_pair_hits

    webs, masks = _web_def_masks(kernel, def_to_web)
    if len(webs) < 2:
        return
    hits = web_pair_hits(
        kernel.ef_rows,
        masks,
        len(kernel.index),
        packed_ef=getattr(kernel, "packed_ef", None),
        check_deadline=check_deadline,
        as_arrays=True,
    )
    ordinal = {web: i for i, web in enumerate(webs)}
    inter_sets: Dict[int, set] = {}
    for web_a, web_b in inter_graph.edges():
        a = ordinal.get(web_a)
        b = ordinal.get(web_b)
        if a is None or b is None:
            continue
        if a > b:
            a, b = b, a
        inter_sets.setdefault(a, set()).add(b)
    false_flag = EdgeOrigin.FALSE
    _insert_false_rows_numpy(
        hits, webs, graph._adj, inter_sets, {"origin": false_flag},
        false_flag, check_deadline,
    )


def _insert_false_rows_numpy(
    hits,
    webs: List[Web],
    adj,
    inter_sets: Dict[int, set],
    shared: dict,
    false_flag: EdgeOrigin,
    check_deadline=None,
) -> None:
    """Numpy-batched insertion of the false-edge hit lists into the
    graph adjacency *adj* (the hot half of the vector splice).

    The forward direction (row ``a`` gains every matched ``b``) is
    already grouped by ``a``; the reverse direction used to pay one
    interpreted dict store per edge.  Here all (a, b) ordinal pairs
    are accumulated as int arrays, stably argsorted by ``b``, and each
    target row then takes a single C-speed ``dict.fromkeys``+``update``
    over an object-array fancy-indexed slice — per-row work instead of
    per-edge work.  E_r-overlap pairs (the only preexisting edges)
    were already OR-ed and excluded, so every batched key is fresh.
    """
    import numpy as np

    webs_obj = np.array(webs, dtype=object)
    a_chunks = []
    b_chunks = []
    stride = 0
    for a, matched in enumerate(hits):
        if len(matched) == 0:
            continue
        stride += 1
        if check_deadline is not None and not stride % 64:
            check_deadline()
        b_arr = np.asarray(matched, dtype=np.intp)
        inter = inter_sets.get(a)
        if inter:
            inter_arr = np.fromiter(inter, dtype=np.intp, count=len(inter))
            overlap = np.isin(b_arr, inter_arr)
            if overlap.any():
                row_u = adj[webs[a]]
                for b in b_arr[overlap].tolist():
                    row_u[webs[b]]["origin"] |= false_flag
                b_arr = b_arr[~overlap]
                if b_arr.size == 0:
                    continue
        a_chunks.append(np.full(b_arr.size, a, dtype=np.intp))
        b_chunks.append(b_arr)
        web_u = webs[a]
        fresh = dict.fromkeys(webs_obj[b_arr].tolist(), shared)
        # An empty adjacency row can take the fromkeys dict wholesale
        # (plain nx.Graph rows are unaliased), skipping the copy pass.
        if adj[web_u]:
            adj[web_u].update(fresh)
        else:
            adj[web_u] = fresh
    if not b_chunks:
        return
    all_a = np.concatenate(a_chunks)
    all_b = np.concatenate(b_chunks)
    order = np.argsort(all_b, kind="stable")
    all_a = all_a[order]
    all_b = all_b[order]
    boundaries = np.flatnonzero(all_b[1:] != all_b[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(all_b)]))
    for i, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
        if check_deadline is not None and not (i + 1) % 64:
            check_deadline()
        web_v = webs[all_b[s]]
        fresh = dict.fromkeys(webs_obj[all_a[s:e]].tolist(), shared)
        if adj[web_v]:
            adj[web_v].update(fresh)
        else:
            adj[web_v] = fresh


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


def interference_for_backend(fn: Function, backend: str):
    """G_r for *fn* under the driver's back-end knob: ``"compact"``
    builds on bitrows (:mod:`repro.regalloc.compact`) and materializes
    the identical networkx graph; ``"reference"`` is the retained
    builder.  A compact failure costs only the fast path — the
    reference builder is the in-place fallback."""
    if backend == "compact":
        try:
            from repro.regalloc.compact import build_compact_interference

            return build_compact_interference(fn).to_reference()
        except ReproError:
            from repro.obs import get_metrics

            get_metrics().counter("interference.compact_fallback").inc()
    return build_interference_graph(fn)


def build_parallel_interference_graph(
    fn: Function,
    machine: MachineDescription,
    use_regions: bool = True,
    engine: str = "bitset",
    check_deadline=None,
    backend: str = "reference",
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
            dependence kernel; ``"vector"`` runs the packed-uint64
            kernel (:mod:`repro.deps.vector`) with the vectorized web
            splice; ``"reference"`` runs the retained set-based
            pipeline (:mod:`repro.deps.reference`) — same output, used
            by the equivalence suite and ``repro bench``.
        check_deadline: Optional zero-argument callback polled between
            regions and inside the kernels' closure loops; it raises
            to preempt the build when the driver's wall-clock budget
            has expired mid-phase.
        backend: ``"compact"`` builds the embedded interference graph
            on bitrows (identical edges, bulk-inserted); ``"reference"``
            keeps the classic builder.
    """
    if engine not in ("vector", "bitset", "reference"):
        raise AllocationError("unknown PIG engine {!r}".format(engine))
    interference = interference_for_backend(fn, backend)
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
    interference_edges = list(interference.graph.edges())
    if engine in ("vector", "bitset"):
        _insert_edges_fast(graph, interference_edges, EdgeOrigin.INTERFERENCE)
    else:
        for a, b in interference_edges:
            graph.add_edge(a, b, origin=EdgeOrigin.INTERFERENCE)

    false_graphs: List[FalseDependenceGraph] = []
    for region in regions:
        if check_deadline is not None:
            check_deadline()
        sg = region_schedule_graph(fn, region.blocks, machine=machine)
        if not sg.instructions:
            continue
        if engine in ("vector", "bitset"):
            fdg = false_dependence_graph(
                sg, machine, check_deadline=check_deadline, engine=engine
            )
        else:
            from repro.deps.reference import reference_false_dependence_graph

            fdg = reference_false_dependence_graph(sg, machine)
        false_graphs.append(fdg)
        if engine == "vector":
            _splice_false_edges_vector(
                fdg.kernel, def_to_web, graph,
                check_deadline=check_deadline,
                inter_graph=interference.graph,
            )
        elif engine == "bitset":
            _splice_false_edges(fdg.kernel, def_to_web, graph)
        else:
            projected = _project_false_pairs_to_webs(fdg, def_to_web)
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
