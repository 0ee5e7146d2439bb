"""Frozen oracles for the production interference builder, the
Chaitin/Briggs colorers and the Chaitin spill loop.

These are the networkx implementations that ran in production next to
the compact kernels of :mod:`repro.regalloc.compact` until the
compact kernels became the only back end:

* :func:`oracle_build_interference_graph` — the sorted-span bisect
  stabbing builder, one ``Graph.add_edge`` per conflict;
* :func:`oracle_chaitin_color` and :func:`oracle_briggs_color` — the
  heap-worklist simplify drain over a mutated graph copy, the
  ``(metric, sort key)`` victim scan and the neighbour-loop
  :func:`select_colors`;
* :func:`oracle_chaitin_allocate` — the spill-until-colorable loop the
  baseline strategies ran, rebuilt on the three oracles above.

They are kept as they stood (minus the fault point, which belongs to
the production functions) so that the equivalence suites and the
``backend-n2048`` rows of ``tools/bench_backend.py`` can check the
production code against them: same edges, same intervals, same stack,
spills and colors, same prepared program and register map.

Test-only — nothing under ``src/`` may import it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.defuse import shared_def_use_chains
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
from repro.regalloc.assignment import make_assignment
from repro.regalloc.chaitin import (
    ColoringResult,
    Node,
    _node_sort_key,
    classic_h,
    uniform_cost,
)
from repro.regalloc.interference import InterferenceGraph, _interval_owner
from repro.regalloc.spill import insert_spill_code, make_cost_function
from repro.utils.errors import AllocationError


def oracle_build_interference_graph(
    fn: Function,
    closed_end: bool = False,
) -> InterferenceGraph:
    """Build G_r for *fn*.

    Args:
        fn: The function (single- or multi-block).
        closed_end: Use the closed-interval convention (the last-use
            statement counts as part of the interval, forbidding reuse
            in that statement).  The paper — and the default — uses the
            open convention.
    """
    liveness: LivenessInfo = live_variables(fn)
    chains = shared_def_use_chains(fn)
    webs = build_webs(fn, chains)
    def_to_web = web_of_definition(webs)

    reach = reaching_definitions(fn)
    reach_in_defs: Dict[str, Dict[Register, List[DefPoint]]] = {}
    for block in fn.blocks():
        per_reg: Dict[Register, List[DefPoint]] = {}
        for point in sorted(
            reach.reach_in[block.name], key=lambda p: p.instruction.uid
        ):
            per_reg.setdefault(point.register, []).append(point)
        reach_in_defs[block.name] = per_reg

    graph = nx.Graph()
    for web in webs:
        graph.add_node(web)
    intervals_of: Dict[Web, List[LiveInterval]] = {web: [] for web in webs}

    for block in fn.blocks():
        live_out = liveness.live_out[block.name]
        live_in = liveness.live_in[block.name]
        intervals = block_live_intervals(
            block, live_out=live_out, live_in=live_in, include_live_in=True
        )
        owned: List[Tuple[LiveInterval, Web]] = []
        for interval in intervals:
            web = _interval_owner(interval, def_to_web, reach_in_defs)
            if web is None:
                continue  # dead live-in with no reaching def web
            owned.append((interval, web))
            intervals_of[web].append(interval)
        # Two intervals conflict exactly when one's definition
        # statement falls inside the other's conflict span
        # [start, hi] (LiveInterval.covers_definition_at, with the
        # degenerate hi<=start span collapsing to the def statement
        # itself).  That is an interval-stabbing query: sort the def
        # positions once, then each interval finds its conflicting
        # partners as one binary search plus a contiguous slice —
        # O(k log k + hits) per block instead of the all-pairs O(k^2)
        # scan, which dominated PIG construction on large blocks.
        spans: List[Tuple[int, int, Web]] = []
        for interval, web in owned:
            hi = interval.end if closed_end else interval.end - 1
            spans.append((interval.start, max(hi, interval.start), web))
        order = sorted(range(len(spans)), key=lambda k: spans[k][0])
        def_positions = [spans[k][0] for k in order]
        for i, (start, hi, web_a) in enumerate(spans):
            for k in range(bisect_left(def_positions, start),
                           bisect_right(def_positions, hi)):
                j = order[k]
                if j == i:
                    continue
                web_b = spans[j][2]
                if web_a is not web_b:
                    graph.add_edge(web_a, web_b)

    return InterferenceGraph(
        graph=graph,
        webs=webs,
        intervals_of=intervals_of,
        chains=chains,
        function=fn,
    )


def _simplify_worklist(work: nx.Graph, num_colors: int, stack: List[Node]) -> None:
    """Drain every simplifiable node of *work* onto *stack*.

    Heap-backed worklist over the sort key: the node with the lowest
    key among those of degree < r is removed first, and a removal that
    drops a neighbor below r pushes that neighbor — O((n + e) log n)
    per drain, replacing the old full re-sort of ``work.nodes()`` on
    every pass (O(n² log n) on large graphs).  The removal *set* it
    produces is the same as the pass-based scan's (eligibility is
    monotone under removals), so spill decisions are unchanged.
    """
    import heapq

    seq = 0  # heap tiebreak: nodes themselves may not be comparable
    heap = []
    for node in work.nodes():
        if work.degree(node) < num_colors:
            heap.append((_node_sort_key(node), seq, node))
            seq += 1
    heapq.heapify(heap)
    while heap:
        _, _, node = heapq.heappop(heap)
        if not work.has_node(node):
            continue
        neighbors = list(work.neighbors(node))
        stack.append(node)
        work.remove_node(node)
        for nbr in neighbors:
            if work.degree(nbr) == num_colors - 1:
                heapq.heappush(heap, (_node_sort_key(nbr), seq, nbr))
                seq += 1


def select_colors(
    graph: nx.Graph,
    stack: Sequence[Node],
    num_colors: int,
) -> Dict[Node, int]:
    """Color nodes in reverse deletion order ("this is done by
    rebuilding G a node at a time"), choosing the lowest free color.

    Raises:
        AllocationError: if some node finds no free color — cannot
            happen when the stack came from a valid simplify pass.
    """
    coloring: Dict[Node, int] = {}
    for node in reversed(list(stack)):
        used = {
            coloring[nbr]
            for nbr in graph.neighbors(node)
            if nbr in coloring
        }
        color = next(
            (c for c in range(num_colors) if c not in used), None
        )
        if color is None:
            raise AllocationError(
                "no free color for {} among {}".format(node, num_colors)
            )
        coloring[node] = color
    return coloring


def oracle_chaitin_color(
    graph: nx.Graph,
    num_colors: int,
    spill_metric: Optional[Callable[[Node], float]] = None,
    allow_spill: bool = True,
) -> ColoringResult:
    """One round of Chaitin coloring on *graph* with *num_colors*.

    Args:
        graph: Undirected conflict graph (not mutated).
        num_colors: The register count r.
        spill_metric: Node badness — the *minimum* is spilled when no
            node has degree < r.  Defaults to ``h(v) = 1/deg(v)``
            (i.e. spill the highest-degree node).
        allow_spill: When False, raise instead of spilling.

    Returns:
        A :class:`ColoringResult`; when spills occur the caller is
        expected to insert spill code and re-run on the rewritten
        program, as the paper's procedure does.
    """
    work = graph.copy()
    metric = spill_metric or classic_h(graph, uniform_cost)
    stack: List[Node] = []
    spilled: List[Node] = []

    while work.number_of_nodes():
        # Simplify: remove any node with degree < r (worklist drain —
        # lowest sort key first, O(1) eligibility updates).
        _simplify_worklist(work, num_colors, stack)
        if not work.number_of_nodes():
            break
        # Blocked: every remaining node has degree >= r.  Spill the
        # node minimizing the metric; infinite-metric nodes (spill
        # temporaries) are never victims.  Ties break on the sort key,
        # as the old sorted-candidates scan did.
        if not allow_spill:
            raise AllocationError(
                "graph needs more than {} colors and spilling is "
                "disabled (stuck at {} nodes)".format(
                    num_colors, work.number_of_nodes()
                )
            )
        victim = None
        best = None
        for node in work.nodes():
            value = metric(node)
            if value == float("inf"):
                continue
            if victim is None or (value, _node_sort_key(node)) < best:
                victim = node
                best = (value, _node_sort_key(node))
        if victim is None:
            raise AllocationError(
                "irreducible register pressure: {} unspillable values "
                "exceed {} colors".format(work.number_of_nodes(), num_colors)
            )
        spilled.append(victim)
        work.remove_node(victim)

    coloring = select_colors(graph.subgraph(stack), stack, num_colors)
    return ColoringResult(
        coloring=coloring, spilled=spilled, selection_order=list(stack)
    )


def oracle_briggs_color(
    graph: nx.Graph,
    num_colors: int,
    spill_metric: Optional[Callable[[Node], float]] = None,
) -> ColoringResult:
    """One round of Briggs optimistic coloring.

    Same contract as :func:`oracle_chaitin_color`: ``spilled`` lists
    nodes that found no color and must be rewritten to memory before
    re-running.  Never spills more nodes than Chaitin's pessimistic
    rule would.
    """
    work = graph.copy()
    metric = spill_metric or classic_h(graph, uniform_cost)
    stack: List[Node] = []

    while work.number_of_nodes():
        _simplify_worklist(work, num_colors, stack)
        if not work.number_of_nodes():
            break
        # Optimism: push the would-be spill candidate anyway (same
        # (metric, sort key) victim choice as the Chaitin engine).
        victim = None
        best = None
        for node in work.nodes():
            value = metric(node)
            if value == float("inf"):
                continue
            if victim is None or (value, _node_sort_key(node)) < best:
                victim = node
                best = (value, _node_sort_key(node))
        if victim is None:
            raise AllocationError(
                "irreducible register pressure: {} unspillable values "
                "exceed {} colors".format(work.number_of_nodes(), num_colors)
            )
        stack.append(victim)
        work.remove_node(victim)

    coloring: Dict[Node, int] = {}
    spilled: List[Node] = []
    for node in reversed(stack):
        used = {
            coloring[nbr]
            for nbr in graph.neighbors(node)
            if nbr in coloring
        }
        color = next((c for c in range(num_colors) if c not in used), None)
        if color is None:
            spilled.append(node)
        else:
            coloring[node] = color
    return ColoringResult(
        coloring=coloring, spilled=spilled, selection_order=list(stack)
    )


def oracle_chaitin_allocate(
    fn: Function,
    num_registers: int,
    max_rounds: int = 12,
):
    """Shared Chaitin spill-until-colorable loop.

    Returns (prepared_fn, assignment, spill_operations).
    """
    work = fn
    spill_ops = 0
    for _round in range(max_rounds + 1):
        graph = oracle_build_interference_graph(work)
        cost = make_cost_function(work)
        metric = classic_h(graph.graph, cost)
        result = oracle_chaitin_color(
            graph.graph, num_registers, spill_metric=metric
        )
        if not result.has_spills:
            assignment = make_assignment(graph, result.coloring)
            return work, assignment, spill_ops
        work, report = insert_spill_code(work, result.spilled)
        spill_ops += report.stores_added + report.reloads_added
    raise AllocationError(
        "Chaitin spilling did not converge within {} rounds".format(max_rounds)
    )
