"""Compact (index-based) interference and coloring kernels.

The reference back half of the pipeline walks object graphs: the
interference builder inserts edges one ``networkx`` call at a time and
the Chaitin engine re-sorts the remaining nodes every simplify pass.
This module is the compact twin, mirroring the PR 1/6 kernel-versus-
reference pattern: webs are referred to only by their dense ``index``,
adjacency is one big-int bitrow per web (bit j of row i = webs i and j
interfere), degrees live in a flat list, and simplify/spill/select run
as a heap-backed worklist with O(1) degree decrement and neighbor-color
bitmask selection.

Equivalence contract (pinned by ``tests/regalloc/test_compact.py``):

* :func:`build_compact_interference` produces exactly the edge set of
  :func:`repro.regalloc.interference.build_interference_graph` —
  the interval extraction and stabbing logic are shared, only the edge
  sink differs (bitrows, bulk-set with numpy, instead of
  ``Graph.add_edge``).
* :func:`compact_chaitin_color` reproduces the worklist reference
  :func:`repro.regalloc.chaitin.chaitin_color` node for node — same
  stack, same spill sequence, same colors — under the fixed tie-break
  (lowest index among eligible nodes; spill victims minimize
  ``(metric, index)``).
* :func:`compact_chaitin_allocate` is the driver's compact rung of the
  Chaitin fallback: identical spill rounds and assignment to
  :func:`repro.pipeline.strategies._chaitin_allocate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.analysis.defuse import DefUseChains, shared_def_use_chains
from repro.analysis.liveness import (
    LiveInterval,
    LivenessInfo,
    block_live_intervals,
    live_variables,
)
from repro.analysis.reaching import DefPoint, reaching_definitions
from repro.analysis.webs import Web, build_webs, web_of_definition
from repro.ir.function import Function
from repro.ir.operands import Register
from repro.regalloc.interference import InterferenceGraph, _interval_owner
from repro.utils.errors import AllocationError
from repro.utils.faults import trip

__all__ = [
    "CompactColoring",
    "CompactGraph",
    "CompactInterference",
    "build_compact_interference",
    "compact_chaitin_allocate",
    "compact_chaitin_color",
    "compact_classic_h",
    "compact_graph_from_nx",
]


# ----------------------------------------------------------------------
# The adjacency-bitrow graph
# ----------------------------------------------------------------------


@dataclass
class CompactGraph:
    """An undirected graph over nodes ``0..n-1`` as big-int bitrows.

    Attributes:
        n: Node count.
        adj: ``adj[i]`` has bit j set iff {i, j} is an edge.
        degree: Row popcounts (kept in sync by :meth:`add_edge`).
    """

    n: int
    adj: List[int] = field(default_factory=list)
    degree: List[int] = field(default_factory=list)

    @classmethod
    def empty(cls, n: int) -> "CompactGraph":
        return cls(n=n, adj=[0] * n, degree=[0] * n)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "CompactGraph":
        adj = list(rows)
        return cls(n=len(adj), adj=adj, degree=[r.bit_count() for r in adj])

    def add_edge(self, i: int, j: int) -> None:
        if i == j:
            return
        if not (self.adj[i] >> j) & 1:
            self.adj[i] |= 1 << j
            self.adj[j] |= 1 << i
            self.degree[i] += 1
            self.degree[j] += 1

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def neighbors(self, i: int) -> List[int]:
        return _bit_indices(self.adj[i])

    def edge_list(self) -> List[Tuple[int, int]]:
        """Edges as (lo, hi) pairs in lexicographic order."""
        edges: List[Tuple[int, int]] = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            base = i + 1
            while row:
                lsb = row & -row
                edges.append((i, base + lsb.bit_length() - 1))
                row ^= lsb
        return edges

    def number_of_edges(self) -> int:
        return sum(self.degree) // 2


def _bit_indices(mask: int) -> List[int]:
    out: List[int] = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def compact_graph_from_nx(graph) -> Tuple[CompactGraph, List]:
    """Adapt a ``networkx`` graph: nodes ordered by the reference
    tie-break key (webs by index, else by ``str``) become indices
    ``0..n-1``.  Returns the compact graph plus the node list, so
    results map back (``nodes[i]`` is compact node i)."""
    from repro.regalloc.chaitin import _node_sort_key

    nodes = sorted(graph.nodes(), key=_node_sort_key)
    position = {node: i for i, node in enumerate(nodes)}
    compact = CompactGraph.empty(len(nodes))
    for a, b in graph.edges():
        compact.add_edge(position[a], position[b])
    return compact, nodes


# ----------------------------------------------------------------------
# Interference construction
# ----------------------------------------------------------------------


@dataclass
class CompactInterference:
    """G_r in compact form, with enough provenance to materialize the
    reference :class:`InterferenceGraph` (``make_assignment`` and the
    PIG splice consume the networkx form).

    Attributes:
        graph: Bitrow adjacency over web indices.
        webs: All webs in deterministic order (``webs[i].index == i``).
        liveness: The liveness solution the build consumed.
        intervals_of: Per web, the live intervals it spans (same
            contents and order as the reference builder's).
        chains: Def-use chains (reused by assignment rewriting).
        function: The analyzed function.
    """

    graph: CompactGraph
    webs: List[Web]
    liveness: LivenessInfo
    intervals_of: Dict[Web, List[LiveInterval]]
    chains: DefUseChains
    function: Function

    def to_reference(self) -> InterferenceGraph:
        """The networkx :class:`InterferenceGraph` with the identical
        edge set (bulk-inserted, already deduplicated by the bitrows)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.webs)
        webs = self.webs
        graph.add_edges_from(
            (webs[i], webs[j]) for i, j in self.graph.edge_list()
        )
        return InterferenceGraph(
            graph=graph,
            webs=webs,
            intervals_of=self.intervals_of,
            chains=self.chains,
            function=self.function,
        )


def _reach_in_defs_for(
    fn: Function,
) -> Dict[str, Dict[Register, List[DefPoint]]]:
    """Reaching definitions at each block entry, grouped per register —
    the live-in pseudo-interval owner lookup of the reference builder."""
    reach = reaching_definitions(fn)
    reach_in_defs: Dict[str, Dict[Register, List[DefPoint]]] = {}
    for block in fn.blocks():
        per_reg: Dict[Register, List[DefPoint]] = {}
        for point in sorted(
            reach.reach_in[block.name], key=lambda p: p.instruction.uid
        ):
            per_reg.setdefault(point.register, []).append(point)
        reach_in_defs[block.name] = per_reg
    return reach_in_defs


def _block_owned_spans(
    block,
    liveness: LivenessInfo,
    def_to_web: Dict[DefPoint, Web],
    reach_in_defs: Dict[str, Dict[Register, List[DefPoint]]],
    intervals_of: Dict[Web, List[LiveInterval]],
    closed_end: bool,
) -> Tuple[List[int], List[int], List[int]]:
    """One block's conflict spans as parallel (start, hi, web-index)
    lists — the exact spans the reference stabbing loop builds."""
    intervals = block_live_intervals(
        block,
        live_out=liveness.live_out[block.name],
        live_in=liveness.live_in[block.name],
        include_live_in=True,
    )
    starts: List[int] = []
    his: List[int] = []
    widx: List[int] = []
    for interval in intervals:
        web = _interval_owner(interval, def_to_web, reach_in_defs)
        if web is None:
            continue  # dead live-in with no reaching def web
        intervals_of[web].append(interval)
        hi = interval.end if closed_end else interval.end - 1
        starts.append(interval.start)
        his.append(max(hi, interval.start))
        widx.append(web.index)
    return starts, his, widx


def _stab_pairs_numpy(
    starts: List[int], his: List[int], widx: List[int]
) -> Tuple["object", "object"]:
    """Vectorized stabbing for one block: returns the conflicting web
    index pair arrays (one direction; the caller mirrors them)."""
    s = _np.asarray(starts, dtype=_np.int64)
    h = _np.asarray(his, dtype=_np.int64)
    w = _np.asarray(widx, dtype=_np.int64)
    order = _np.argsort(s, kind="stable")
    sorted_starts = s[order]
    lo = _np.searchsorted(sorted_starts, s, side="left")
    hi = _np.searchsorted(sorted_starts, h, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        return None, None
    ii = _np.repeat(_np.arange(len(s)), counts)
    # Concatenated ranges lo[i]..hi[i]: a flat arange minus each
    # range's replayed base offset.
    bases = _np.repeat(_np.cumsum(counts) - counts - lo, counts)
    jj = order[_np.arange(total) - bases]
    wa = w[ii]
    wb = w[jj]
    keep = wa != wb
    return wa[keep], wb[keep]


def build_compact_interference(
    fn: Function, closed_end: bool = False
) -> CompactInterference:
    """Build G_r for *fn* on bitrows.

    Same construction as the reference builder — shared liveness,
    shared interval extraction, shared owner lookup, shared stabbing
    query — with the edge sink swapped for bitrow bulk insertion
    (numpy ``bitwise_or.at`` over a packed uint64 matrix), and the
    reaching-definition pass skipped when no block is entered with a
    locally-defined register live (the only case the owner lookup
    consults it).

    Args:
        fn: The function (single- or multi-block).
        closed_end: Closed-interval convention (as in the reference).
    """
    liveness = live_variables(fn)
    chains = shared_def_use_chains(fn)
    webs = build_webs(fn, chains)
    def_to_web = web_of_definition(webs)

    # The reference builder always runs reaching definitions, but its
    # result is only read for live-in pseudo-intervals of registers
    # that have at least one definition (others cannot resolve to a
    # web).  Skip the pass when no such register is live into any
    # block — notably every single-entry straight-line function.
    defined = {point.register for point in def_to_web}
    needs_reach = any(
        not defined.isdisjoint(liveness.live_in[block.name])
        for block in fn.blocks()
    )
    reach_in_defs = _reach_in_defs_for(fn) if needs_reach else {}

    n = len(webs)
    adj = [0] * n
    intervals_of: Dict[Web, List[LiveInterval]] = {web: [] for web in webs}

    pair_a: List["object"] = []
    pair_b: List["object"] = []
    for block in fn.blocks():
        starts, his, widx = _block_owned_spans(
            block, liveness, def_to_web, reach_in_defs, intervals_of,
            closed_end,
        )
        if not starts:
            continue
        wa, wb = _stab_pairs_numpy(starts, his, widx)
        if wa is not None:
            pair_a.append(wa)
            pair_b.append(wb)

    if pair_a:
        a = _np.concatenate(pair_a)
        b = _np.concatenate(pair_b)
        words = (n + 63) // 64
        packed = _np.zeros((n, words), dtype=_np.uint64)
        rows_idx = _np.concatenate([a, b])
        cols = _np.concatenate([b, a])
        _np.bitwise_or.at(
            packed,
            (rows_idx, cols >> 6),
            _np.left_shift(_np.uint64(1), (cols & 63).astype(_np.uint64)),
        )
        # Little-endian words, so each row's bytes are its big-int row.
        data = packed.astype("<u8", copy=False).tobytes()
        nbytes = words * 8
        adj = [
            int.from_bytes(data[off:off + nbytes], "little")
            for off in range(0, len(data), nbytes)
        ]

    return CompactInterference(
        graph=CompactGraph.from_rows(adj),
        webs=webs,
        liveness=liveness,
        intervals_of=intervals_of,
        chains=chains,
        function=fn,
    )


# ----------------------------------------------------------------------
# Worklist Chaitin/Briggs coloring
# ----------------------------------------------------------------------


@dataclass
class CompactColoring:
    """Outcome of one compact coloring round (index-domain twin of
    :class:`repro.regalloc.chaitin.ColoringResult`).

    Attributes:
        colors: Per node, its color or None (spilled).
        spilled: Spill victims in spill order.
        selection_order: Reverse deletion order used when selecting.
    """

    colors: List[Optional[int]]
    spilled: List[int]
    selection_order: List[int]

    @property
    def has_spills(self) -> bool:
        return bool(self.spilled)

    def coloring_dict(self, nodes: Sequence) -> Dict:
        """Map back to node objects (``nodes[i]`` is compact node i)."""
        return {
            nodes[i]: c for i, c in enumerate(self.colors) if c is not None
        }

    def to_result(self, nodes: Sequence):
        """The reference :class:`ColoringResult` over *nodes*."""
        from repro.regalloc.chaitin import ColoringResult

        return ColoringResult(
            coloring=self.coloring_dict(nodes),
            spilled=[nodes[i] for i in self.spilled],
            selection_order=[nodes[i] for i in self.selection_order],
        )


def compact_classic_h(
    graph: CompactGraph, cost: Optional[Sequence[float]] = None
) -> List[float]:
    """The spill metric ``h(v) = cost(v) / deg(v)`` over the original
    degrees, as a flat list (infinite at degree 0 — never spilled)."""
    inf = float("inf")
    return [
        (1.0 if cost is None else cost[i]) / d if d else inf
        for i, d in enumerate(graph.degree)
    ]


def compact_chaitin_color(
    graph: CompactGraph,
    num_colors: int,
    spill_metric: Optional[Sequence[float]] = None,
    allow_spill: bool = True,
    optimistic: bool = False,
) -> CompactColoring:
    """One round of Chaitin (or, with *optimistic*, Briggs) coloring.

    The worklist discipline matches the reference engines' fixed
    tie-break: among simplifiable nodes the lowest index is removed
    first (a min-heap with lazy invalidation — degrees decrement in
    O(1) against the live-neighbor bitrow); when blocked, the victim
    minimizes ``(metric, index)`` over the remaining nodes.  Selection
    walks the stack in reverse keeping one member bitmask per color, so
    the used-color set of a node is ``num_colors`` AND tests instead of
    a neighbor loop.

    Args:
        graph: The compact conflict graph (not mutated).
        num_colors: The register count r.
        spill_metric: Per-node badness; defaults to
            :func:`compact_classic_h` of the original degrees.
        allow_spill: When False, raise instead of spilling.
        optimistic: Push blocked victims on the stack (Briggs) instead
            of spilling at simplify time; they spill only if selection
            finds no free color.
    """
    import heapq

    n = graph.n
    if spill_metric is None:
        spill_metric = compact_classic_h(graph)
    adj = graph.adj
    deg = list(graph.degree)
    alive_mask = (1 << n) - 1
    stack: List[int] = []
    spilled: List[int] = []
    inf = float("inf")

    heap = [i for i in range(n) if deg[i] < num_colors]
    heapq.heapify(heap)
    removed = 0

    def remove(node: int) -> None:
        nonlocal alive_mask, removed
        alive_mask &= ~(1 << node)
        removed += 1
        row = adj[node] & alive_mask
        while row:
            lsb = row & -row
            nbr = lsb.bit_length() - 1
            deg[nbr] -= 1
            if deg[nbr] == num_colors - 1:
                heapq.heappush(heap, nbr)
            row ^= lsb

    while removed < n:
        while heap:
            node = heapq.heappop(heap)
            if (alive_mask >> node) & 1 and deg[node] < num_colors:
                stack.append(node)
                remove(node)
        if removed == n:
            break
        # Blocked: every remaining node has degree >= r.
        if not allow_spill:
            raise AllocationError(
                "graph needs more than {} colors and spilling is "
                "disabled (stuck at {} nodes)".format(num_colors, n - removed)
            )
        victim = -1
        best = inf
        live = alive_mask
        while live:
            lsb = live & -live
            node = lsb.bit_length() - 1
            metric = spill_metric[node]
            if metric < best:
                best = metric
                victim = node
            live ^= lsb
        if victim < 0:
            raise AllocationError(
                "irreducible register pressure: {} unspillable values "
                "exceed {} colors".format(n - removed, num_colors)
            )
        if optimistic:
            stack.append(victim)
        else:
            spilled.append(victim)
        remove(victim)

    colors: List[Optional[int]] = [None] * n
    members = [0] * num_colors
    full = (1 << num_colors) - 1
    for node in reversed(stack):
        row = adj[node]
        used = 0
        for c in range(num_colors):
            if row & members[c]:
                used |= 1 << c
        free = ~used & full
        if not free:
            if optimistic:
                spilled.append(node)
                continue
            raise AllocationError(
                "no free color for node {} among {}".format(node, num_colors)
            )
        color = (free & -free).bit_length() - 1
        colors[node] = color
        members[color] |= 1 << node

    return CompactColoring(
        colors=colors, spilled=spilled, selection_order=stack
    )


# ----------------------------------------------------------------------
# The compact Chaitin allocation loop (driver fallback rung)
# ----------------------------------------------------------------------


def compact_chaitin_allocate(
    fn: Function,
    num_registers: int,
    max_rounds: int = 12,
    paranoid: bool = False,
    check_deadline: Optional[Callable[[], None]] = None,
):
    """Compact twin of the strategies' Chaitin spill-until-colorable
    loop: compact interference + worklist coloring, spill code between
    rounds, reference :func:`make_assignment` at the end.

    With *paranoid*, every round cross-checks edges, spill set, and
    coloring against the reference path and raises
    :class:`~repro.utils.errors.DivergenceError` on any mismatch (the
    driver then degrades to the reference backend rung).
    *check_deadline*, when given, is polled once per spill round and
    raises to preempt a compile whose budget ran out.

    Returns ``(prepared_fn, assignment, spill_operations)``.
    """
    from repro.regalloc.assignment import make_assignment
    from repro.regalloc.spill import insert_spill_code, make_cost_function

    trip("regalloc.compact")
    work = fn
    spill_ops = 0
    for _round in range(max_rounds + 1):
        if check_deadline is not None:
            check_deadline()
        compact = build_compact_interference(work)
        cost_fn = make_cost_function(work)
        cost = [cost_fn(web) for web in compact.webs]
        metric = compact_classic_h(compact.graph, cost)
        result = compact_chaitin_color(
            compact.graph, num_registers, spill_metric=metric
        )
        if paranoid:
            _cross_check_round(work, num_registers, compact, result)
        if not result.has_spills:
            reference = compact.to_reference()
            assignment = make_assignment(
                reference, result.coloring_dict(compact.webs)
            )
            return work, assignment, spill_ops
        work, report = insert_spill_code(
            work, [compact.webs[i] for i in result.spilled]
        )
        spill_ops += report.stores_added + report.reloads_added
    raise AllocationError(
        "Chaitin spilling did not converge within {} rounds".format(max_rounds)
    )


def _cross_check_round(
    work: Function,
    num_registers: int,
    compact: CompactInterference,
    result: CompactColoring,
) -> None:
    """Paranoid-mode guard: one allocation round of the compact path
    must match the reference path bit for bit."""
    from repro.pipeline.strategies import _chaitin_allocate  # noqa: F401
    from repro.regalloc.chaitin import chaitin_color, classic_h
    from repro.regalloc.interference import build_interference_graph
    from repro.regalloc.spill import make_cost_function
    from repro.utils.errors import DivergenceError

    reference = build_interference_graph(work)
    ref_edges = {
        (a.index, b.index) for a, b in reference.edge_list()
    }
    if set(compact.graph.edge_list()) != ref_edges:
        raise DivergenceError(
            "compact and reference interference disagree on {!r} "
            "(paranoid cross-check)".format(work.name)
        )
    cost = make_cost_function(work)
    ref_result = chaitin_color(
        reference.graph,
        num_registers,
        spill_metric=classic_h(reference.graph, cost),
    )
    if [w.index for w in ref_result.spilled] != result.spilled or {
        w.index: c for w, c in ref_result.coloring.items()
    } != {
        i: c for i, c in enumerate(result.colors) if c is not None
    }:
        raise DivergenceError(
            "compact and reference coloring disagree on {!r} "
            "(paranoid cross-check)".format(work.name)
        )
