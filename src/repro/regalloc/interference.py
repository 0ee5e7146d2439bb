"""The classic interference graph G_r = (V_r, E_r).

"Every vertex v ∈ V_r corresponds to a distinct program interval in
which a definition of a variable's value is live.  There exists an
(undirected) edge {u, v} ∈ E_r if one definition is live ... in a
statement where the other is defined (the two intervals intersect)."

Vertices are :class:`~repro.analysis.webs.Web` objects: for symbolic
single-assignment straight-line code each web is one definition (Claim
1's V_r ⊆ V_s); for multi-block programs the right-number-of-names
analysis has already combined def-use chains reaching a common use
(Figure 6), so a web may own several intervals — "a node v in G_r as
representing all the live intervals of the definitions v_i".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.analysis.defuse import DefUseChains
from repro.analysis.liveness import LiveInterval
from repro.analysis.reaching import DefPoint
from repro.analysis.webs import Web
from repro.ir.function import Function
from repro.ir.operands import Register
from repro.utils.errors import AllocationError


@dataclass
class InterferenceGraph:
    """G_r with its provenance.

    Attributes:
        graph: Undirected ``networkx.Graph`` whose nodes are webs.
        webs: All webs in deterministic order.
        intervals_of: Per web, the live intervals it spans.
        chains: The def-use chains the webs were built from (reused by
            assignment rewriting).
        function: The analyzed function.
    """

    graph: nx.Graph
    webs: List[Web]
    intervals_of: Dict[Web, List[LiveInterval]]
    chains: DefUseChains
    function: Function

    def interferes(self, a: Web, b: Web) -> bool:
        return self.graph.has_edge(a, b)

    def neighbors(self, web: Web) -> List[Web]:
        return sorted(self.graph.neighbors(web), key=lambda w: w.index)

    def degree(self, web: Web) -> int:
        return self.graph.degree(web)

    def edge_list(self) -> List[Tuple[Web, Web]]:
        """Edges normalized by web index (deterministic)."""
        return sorted(
            (
                (a, b) if a.index <= b.index else (b, a)
                for a, b in self.graph.edges()
            ),
            key=lambda pair: (pair[0].index, pair[1].index),
        )

    def web_by_register_name(self, name: str) -> Web:
        """The unique web of a register name (single-assignment code).

        Raises:
            AllocationError: when the name is unknown or ambiguous.
        """
        matches = [w for w in self.webs if str(w.register) == name]
        if len(matches) != 1:
            raise AllocationError(
                "register name {!r} maps to {} webs".format(name, len(matches))
            )
        return matches[0]

    @property
    def max_clique_lower_bound(self) -> int:
        """A cheap lower bound on the chromatic number: the largest
        simultaneous overlap found per block during construction is
        not stored, so fall back to greedy clique growth from the
        highest-degree node."""
        if not self.webs:
            return 0
        seed = max(self.webs, key=lambda w: self.graph.degree(w))
        clique = [seed]
        for web in sorted(
            self.graph.neighbors(seed), key=lambda w: -self.graph.degree(w)
        ):
            if all(self.graph.has_edge(web, member) for member in clique):
                clique.append(web)
        return len(clique)


def _interval_owner(
    interval: LiveInterval,
    def_to_web: Dict[DefPoint, Web],
    reach_in_defs: Dict[str, Dict[Register, List[DefPoint]]],
) -> Optional[Web]:
    """Map an interval to its owning web.

    Definition intervals map through their defining instruction; live-in
    pseudo-intervals map through any definition of the register reaching
    the block entry (all such defs share a web when the value is used —
    that is what web construction guarantees).
    """
    if interval.defining_instruction is not None:
        point = DefPoint(interval.defining_instruction, interval.register)
        return def_to_web.get(point)
    reaching = reach_in_defs.get(interval.block, {}).get(interval.register, [])
    for point in reaching:
        web = def_to_web.get(point)
        if web is not None:
            return web
    return None


def build_interference_graph(
    fn: Function,
    closed_end: bool = False,
) -> InterferenceGraph:
    """Build G_r for *fn*.

    The edges come from the bitrow builder
    (:func:`repro.regalloc.compact.build_compact_interference`) and are
    bulk-inserted into the ``networkx`` form that assignment and the
    PIG consume.

    Args:
        fn: The function (single- or multi-block).
        closed_end: Use the closed-interval convention (the last-use
            statement counts as part of the interval, forbidding reuse
            in that statement).  The paper — and the default — uses the
            open convention.
    """
    # Imported here: the compact builder imports this module.
    from repro.regalloc.compact import build_compact_interference

    return build_compact_interference(fn, closed_end=closed_end).to_reference()
