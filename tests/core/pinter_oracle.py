"""Frozen oracle for :func:`repro.core.coloring.pinter_color`.

This is the networkx implementation of the paper's Section 4 coloring
procedure as it stood before the worklist rewrite: every false-edge
sacrifice rescans all nodes and reruns whole index-order simplify
sweeps, and every spill pick re-walks each survivor's neighbourhood.
It is kept verbatim (minus the fault point and the telemetry, which
belong to the production function) so that the equivalence suite in
``test_pinter_oracle.py`` and the ``pinter-n128`` row of
``tools/bench_backend.py`` can check the production function against
it: same selection stack, same sacrificed edges in the same order and
orientation, same spills, coloring, reduced edge set and errors.

:class:`FrozenValueModel` freezes the matching per-edge pricing (the
pre-rewrite ``SchedulingValueModel._contributing_pairs`` and
``edge_value``) over a production model's EP and height tables, so a
pricing change cannot hide behind the oracle.

Slow by design: above n≈100 a single call takes seconds.  Test-only —
nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx

from repro.analysis.webs import Web
from repro.core.coloring import EdgePolicy, PinterColoringResult
from repro.core.edge_weights import (
    DEFAULT_CONFIG,
    EdgeWeightConfig,
    h_star_metric,
)
from repro.core.parallel_interference import (
    EdgeOrigin,
    ParallelInterferenceGraph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.deps.transitive import ordered_pair
from repro.ir.instructions import Instruction
from repro.utils.errors import AllocationError


class FrozenValueModel:
    """The pre-rewrite edge pricing, over *model*'s EP/height tables."""

    def __init__(self, model: SchedulingValueModel) -> None:
        self.model = model
        self._edge_cache: Dict[Tuple[int, int], float] = {}

    def _contributing_pairs(
        self, web_a: Web, web_b: Web
    ) -> List[Tuple[Instruction, Instruction]]:
        pairs = []
        defs_a = sorted(web_a.definitions, key=lambda d: d.instruction.uid)
        defs_b = sorted(web_b.definitions, key=lambda d: d.instruction.uid)
        for point_a in defs_a:
            fdg = self.model._fdg_of.get(point_a.instruction.uid)
            if fdg is None:
                continue
            for point_b in defs_b:
                if fdg.has_false_edge(point_a.instruction, point_b.instruction):
                    pairs.append(
                        ordered_pair(point_a.instruction, point_b.instruction)
                    )
        return pairs

    def edge_value(self, web_a: Web, web_b: Web) -> float:
        cache = self._edge_cache
        key = (
            (web_a.index, web_b.index)
            if web_a.index <= web_b.index
            else (web_b.index, web_a.index)
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
        pairs = self._contributing_pairs(web_a, web_b)
        value = (
            max(self.model.pair_value(u, v) for u, v in pairs)
            if pairs
            else 0.0
        )
        cache[key] = value
        return value


def _false_only_edges_at(graph: nx.Graph, node: Web) -> List[Tuple[Web, Web]]:
    return [
        (node, nbr)
        for nbr in sorted(graph.neighbors(node), key=lambda w: w.index)
        if graph.edges[node, nbr]["origin"] == EdgeOrigin.FALSE
    ]


def oracle_pinter_color(
    pig: ParallelInterferenceGraph,
    num_registers: int,
    cost: Optional[Callable[[Web], float]] = None,
    weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
    edge_policy: EdgePolicy = "node",
    value_model=None,
    optimistic: bool = False,
    bias: Optional[Dict[Web, List[Web]]] = None,
) -> PinterColoringResult:
    """The pre-rewrite ``pinter_color``; *value_model* defaults to a
    :class:`FrozenValueModel`."""
    if cost is None:
        cost = lambda _web: 1.0  # noqa: E731 - simple default
    if value_model is None:
        value_model = FrozenValueModel(SchedulingValueModel.build(pig))

    # The output graph: false-edge removals apply here and to the
    # working copy; selection colors against this graph.
    reduced = pig.graph.copy()
    work = pig.graph.copy()
    stack: List[Web] = []
    spilled: List[Web] = []
    removed: List[Tuple[Web, Web]] = []
    simplified = 0
    optimistic_pushes = 0

    # h* is evaluated against the *current* working graph: in(v) is the
    # live neighbor set at spill time.
    reduced_pig = pig.copy()
    reduced_pig.graph = work
    metric = h_star_metric(reduced_pig, cost, weight_config)

    # Incremental degree bookkeeping: ideg counts edges carrying the
    # INTERFERENCE flag, fdeg counts false-only edges; total degree is
    # their sum.  Maintaining counters (instead of rescanning neighbor
    # edge attributes) is what keeps large blocks tractable.
    ideg: Dict[Web, int] = {node: 0 for node in work.nodes()}
    fdeg: Dict[Web, int] = {node: 0 for node in work.nodes()}
    for a, b, data in work.edges(data=True):
        if data["origin"] & EdgeOrigin.INTERFERENCE:
            ideg[a] += 1
            ideg[b] += 1
        else:
            fdeg[a] += 1
            fdeg[b] += 1

    def remove_node(node: Web) -> None:
        for nbr in work.neighbors(node):
            if work.edges[node, nbr]["origin"] & EdgeOrigin.INTERFERENCE:
                ideg[nbr] -= 1
            else:
                fdeg[nbr] -= 1
        work.remove_node(node)
        del ideg[node]
        del fdeg[node]

    # Sorted once: nodes are only ever removed, so every index-ordered
    # scan below walks this list and skips dead entries (``node in
    # ideg`` — the counters double as the alive set) instead of
    # re-sorting the survivors on every pass.
    ordered_nodes = sorted(work.nodes(), key=lambda w: w.index)

    def simplify() -> None:
        nonlocal simplified
        progress = True
        while progress:
            progress = False
            for node in ordered_nodes:
                if node not in ideg:
                    continue
                if ideg[node] + fdeg[node] < num_registers:
                    stack.append(node)
                    remove_node(node)
                    simplified += 1
                    progress = True

    def sacrificial_candidates() -> List[Web]:
        """Nodes blocked only by false edges: interference degree < r
        but total degree >= r."""
        return [
            node
            for node in ordered_nodes
            if node in ideg
            and ideg[node] < num_registers <= ideg[node] + fdeg[node]
        ]

    def remove_one_false_edge() -> bool:
        if edge_policy == "global":
            candidates = [
                (a, b)
                for a, b, data in work.edges(data=True)
                if data["origin"] == EdgeOrigin.FALSE
            ]
        else:
            # "with respect to a selected node": pick the first blocked
            # node and shed its least valuable false edge.
            nodes = sacrificial_candidates()
            candidates = []
            if nodes:
                candidates = _false_only_edges_at(work, nodes[0])
        if not candidates:
            return False
        victim = min(
            candidates,
            key=lambda edge: (
                value_model.edge_value(edge[0], edge[1]),
                edge[0].index,
                edge[1].index,
            ),
        )
        work.remove_edge(*victim)
        fdeg[victim[0]] -= 1
        fdeg[victim[1]] -= 1
        if reduced.has_edge(*victim):
            reduced.remove_edge(*victim)
        removed.append(victim)
        return True

    lazy = edge_policy == "lazy"
    while work.number_of_nodes():
        simplify()
        if not work.number_of_nodes():
            break
        if lazy:
            # Lazy mode: nodes whose pressure comes from false edges
            # are pushed optimistically; selection decides whether any
            # parallelism must actually be given up.
            lazy_candidates = sacrificial_candidates()
            if lazy_candidates:
                node = lazy_candidates[0]
                stack.append(node)
                remove_node(node)
                optimistic_pushes += 1
                continue
        else:
            # Second loop: relieve pressure that is due to false edges
            # only — a sacrificial candidate always owns a removable
            # false edge, so this loop is guaranteed to progress.
            while work.number_of_nodes() and sacrificial_candidates():
                if not remove_one_false_edge():
                    break
                simplify()
        if not work.number_of_nodes():
            break
        # Every remaining node now has interference degree >= r: the
        # pressure is real, spill the node minimizing h*.  Nodes with
        # infinite metric (spill temporaries) are never victims —
        # re-spilling a one-statement range cannot reduce pressure.
        candidates = [
            node
            for node in ordered_nodes
            if node in ideg and metric(node) != float("inf")
        ]
        if not candidates:
            raise AllocationError(
                "irreducible register pressure: {} values including "
                "spill temporaries exceed r={}".format(
                    work.number_of_nodes(), num_registers
                )
            )
        victim = min(candidates, key=metric)
        if optimistic or lazy:
            stack.append(victim)  # may still find a color at select time
            optimistic_pushes += 1
        else:
            spilled.append(victim)
        remove_node(victim)

    from repro.regalloc.coalesce import choose_biased_color

    if optimistic or lazy:
        coloring = {}
        for node in reversed(stack):
            used = {
                coloring[nbr]
                for nbr in reduced.neighbors(node)
                if nbr in coloring
            }
            free = [c for c in range(num_registers) if c not in used]
            color = choose_biased_color(free, node, coloring, bias)
            if color is None and lazy:
                # Fall back to interference-only constraints: give up
                # exactly the false edges the chosen color violates.
                hard = {
                    coloring[nbr]
                    for nbr in reduced.neighbors(node)
                    if nbr in coloring
                    and reduced.edges[node, nbr]["origin"]
                    & EdgeOrigin.INTERFERENCE
                }
                color = next(
                    (c for c in range(num_registers) if c not in hard),
                    None,
                )
                if color is not None:
                    for nbr in sorted(
                        reduced.neighbors(node), key=lambda w: w.index
                    ):
                        if (
                            nbr in coloring
                            and coloring[nbr] == color
                            and reduced.edges[node, nbr]["origin"]
                            == EdgeOrigin.FALSE
                        ):
                            removed.append(
                                (node, nbr)
                                if node.index <= nbr.index
                                else (nbr, node)
                            )
            if color is None:
                spilled.append(node)
            else:
                coloring[node] = color
        for a, b in removed:
            if reduced.has_edge(a, b):
                reduced.remove_edge(a, b)
    else:
        colorable = reduced.subgraph(stack)
        coloring = {}
        for node in reversed(stack):
            used = {
                coloring[nbr]
                for nbr in colorable.neighbors(node)
                if nbr in coloring
            }
            free = [c for c in range(num_registers) if c not in used]
            color = choose_biased_color(free, node, coloring, bias)
            if color is None:
                raise AllocationError(
                    "no free color for {} among {}".format(
                        node, num_registers
                    )
                )
            coloring[node] = color
    return PinterColoringResult(
        coloring=coloring,
        spilled=spilled,
        selection_order=list(stack),
        removed_false_edges=removed,
        reduced_graph=reduced,
    )
