"""Chaitin-style graph coloring (simplify / select / spill).

The baseline allocator of [5] (Chaitin et al.), which both the paper's
procedure and our combined variant embed: repeatedly remove nodes of
degree < r (they are trivially colorable), spill the cheapest node when
stuck, then color in reverse deletion order.

The entry points take ``networkx`` graphs over any node type (webs of
the classic interference graph or of the PIG, or plain ints) and run
the worklist kernel of :mod:`repro.regalloc.compact` on an index copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

import networkx as nx

from repro.regalloc.compact import compact_chaitin_color, compact_graph_from_nx
from repro.utils.errors import AllocationError

Node = Hashable
CostFn = Callable[[Node], float]


def uniform_cost(_node: Node) -> float:
    """Every node costs 1 — degree alone drives spill choice."""
    return 1.0


def classic_h(graph: nx.Graph, cost: CostFn) -> Callable[[Node], float]:
    """The customary spill metric ``h(v) = cost(v) / deg(v)``.

    Nodes of degree 0 never need spilling; they get infinite h.
    """

    def metric(node: Node) -> float:
        degree = graph.degree(node)
        if degree == 0:
            return float("inf")
        return cost(node) / degree

    return metric


def _node_sort_key(node: Node):
    """Deterministic tie-break: webs by index, else by str()."""
    index = getattr(node, "index", None)
    if index is not None:
        return (0, index)
    return (1, str(node))


@dataclass
class ColoringResult:
    """Outcome of one coloring round.

    Attributes:
        coloring: node → color (0-based).  Spilled nodes are absent.
        spilled: Nodes chosen for spilling, in spill order.
        selection_order: Reverse deletion order used when selecting.
    """

    coloring: Dict[Node, int]
    spilled: List[Node]
    selection_order: List[Node] = field(default_factory=list)

    @property
    def num_colors_used(self) -> int:
        return len(set(self.coloring.values())) if self.coloring else 0

    @property
    def has_spills(self) -> bool:
        return bool(self.spilled)

    def color_of(self, node: Node) -> int:
        try:
            return self.coloring[node]
        except KeyError:
            raise AllocationError("{} was spilled, has no color".format(node))


def chaitin_color(
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
    return _color_via_kernel(graph, num_colors, spill_metric, allow_spill)


def _color_via_kernel(
    graph: nx.Graph,
    num_colors: int,
    spill_metric: Optional[Callable[[Node], float]] = None,
    allow_spill: bool = True,
    optimistic: bool = False,
) -> ColoringResult:
    """Color a ``networkx`` graph with the worklist kernel
    :func:`repro.regalloc.compact.compact_chaitin_color`.

    Nodes become indices in :func:`_node_sort_key` order, which is the
    kernel's tie-break (lowest index first among simplifiable nodes;
    spill victims minimize ``(metric, index)``).  A callable metric is
    evaluated once per node; infinite values are never spilled.
    *optimistic* selects Briggs' rule (see
    :func:`repro.regalloc.briggs.briggs_color`).
    """
    compact, nodes = compact_graph_from_nx(graph)
    metric = None
    if spill_metric is not None:
        metric = [spill_metric(node) for node in nodes]
    result = compact_chaitin_color(
        compact,
        num_colors,
        spill_metric=metric,
        allow_spill=allow_spill,
        optimistic=optimistic,
    )
    return result.to_result(nodes)


def greedy_chromatic_upper_bound(graph: nx.Graph) -> int:
    """Colors used by largest-degree-first greedy — a quick χ upper
    bound for sizing experiments."""
    if graph.number_of_nodes() == 0:
        return 0
    order = sorted(
        graph.nodes(), key=lambda n: (-graph.degree(n),) + (_node_sort_key(n),)
    )
    coloring: Dict[Node, int] = {}
    for node in order:
        used = {coloring[n] for n in graph.neighbors(node) if n in coloring}
        color = 0
        while color in used:
            color += 1
        coloring[node] = color
    return max(coloring.values()) + 1


def exact_chromatic_number(graph: nx.Graph, node_limit: int = 40) -> int:
    """The exact chromatic number by backtracking.

    Intended for the paper's worked examples and property tests
    ("optimal coloring of the parallelizable interference graph"), so
    it refuses graphs beyond *node_limit* nodes.

    Raises:
        AllocationError: when the graph is too large for exact search.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return 0
    if n > node_limit:
        raise AllocationError(
            "exact coloring limited to {} nodes, got {}".format(node_limit, n)
        )
    nodes = sorted(graph.nodes(), key=lambda v: -graph.degree(v))
    neighbors = {v: set(graph.neighbors(v)) for v in nodes}

    def colorable(k: int) -> bool:
        assignment: Dict[Node, int] = {}

        def backtrack(idx: int) -> bool:
            if idx == len(nodes):
                return True
            node = nodes[idx]
            used = {
                assignment[nbr] for nbr in neighbors[node] if nbr in assignment
            }
            # Symmetry break: only allow one brand-new color.
            ceiling = min(k, (max(assignment.values()) + 2) if assignment else 1)
            for color in range(ceiling):
                if color in used:
                    continue
                assignment[node] = color
                if backtrack(idx + 1):
                    return True
                del assignment[node]
            return False

        return backtrack(0)

    lower = 1
    if graph.number_of_edges():
        lower = 2
    for k in range(lower, n + 1):
        if colorable(k):
            return k
    return n


def validate_coloring(graph: nx.Graph, coloring: Dict[Node, int]) -> None:
    """Raise :class:`AllocationError` on any monochromatic edge."""
    for a, b in graph.edges():
        if a in coloring and b in coloring and coloring[a] == coloring[b]:
            raise AllocationError(
                "nodes {} and {} share color {}".format(a, b, coloring[a])
            )
