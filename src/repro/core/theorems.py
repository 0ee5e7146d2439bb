"""Executable forms of the paper's theorems.

These helpers let tests and benchmarks *demonstrate* the formal claims
on concrete programs:

* **Theorem 1** — every coloring of the parallelizable interference
  graph G yields a spill-free allocation whose scheduling graph has no
  false dependence.
* **Theorem 2** — G is minimal: for any edge {u, v} ∈ E, coloring
  G − {u,v} with C(u) = C(v) yields an allocation with either a spill
  (the edge was in E_r) or a false dependence (the edge was in E_f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Tuple

from repro.analysis.webs import Web
from repro.core.parallel_interference import (
    EdgeOrigin,
    ParallelInterferenceGraph,
)
from repro.pipeline.verify import find_false_dependences
from repro.regalloc.assignment import apply_assignment, make_assignment


def check_theorem1(
    pig: ParallelInterferenceGraph,
    coloring: Dict[Web, int],
) -> List:
    """Verify Theorem 1 for a concrete coloring of *pig*.

    Args:
        pig: The parallelizable interference graph of a function.
        coloring: A proper coloring of ``pig.graph`` covering every web.

    Returns:
        The (expected-empty) list of
        :class:`~repro.pipeline.verify.FalseDependenceViolation`.

    Raises:
        AllocationError: if *coloring* is not proper or incomplete —
            Theorem 1 only speaks about actual colorings of G.
    """
    from repro.regalloc.chaitin import validate_coloring
    from repro.utils.errors import AllocationError

    missing = [w for w in pig.webs if w not in coloring]
    if missing:
        raise AllocationError(
            "coloring misses webs: {}".format(
                ", ".join(str(w) for w in missing)
            )
        )
    validate_coloring(pig.graph, coloring)
    assignment = make_assignment(pig.interference, coloring)
    allocated = apply_assignment(assignment)
    return find_false_dependences(
        pig.function, allocated, pig.machine, false_graphs=pig.false_graphs
    )


@dataclass(frozen=True)
class Theorem2Witness:
    """What goes wrong when an edge of G is dropped and its endpoints
    share a register.

    Attributes:
        edge: The removed edge (u, v).
        outcome: ``"spill"`` when the merged nodes interfere (a live
            value loses its register), ``"false_dependence"`` when the
            merge destroys a real co-issue opportunity.
        violations: The concrete false dependences observed (empty for
            the spill case).
    """

    edge: Tuple[Web, Web]
    outcome: Literal["spill", "false_dependence"]
    violations: Tuple = ()


def check_theorem2_edge(
    pig: ParallelInterferenceGraph,
    edge: Tuple[Web, Web],
    coloring: Dict[Web, int],
) -> Theorem2Witness:
    """Demonstrate Theorem 2 on one edge.

    Takes a proper coloring of G − {edge} with the endpoints merged
    (``coloring[u] == coloring[v]``) and shows the resulting allocation
    is defective.

    Raises:
        AllocationError: if the endpoints are not actually merged, or
            the coloring violates some *other* edge (the theorem's
            premise is a legal coloring of G′).
    """
    from repro.utils.errors import AllocationError

    u, v = edge
    if coloring.get(u) != coloring.get(v):
        raise AllocationError(
            "Theorem 2 premise violated: endpoints {} and {} differ".format(u, v)
        )
    for a, b in pig.graph.edges():
        if (a, b) in ((u, v), (v, u)):
            continue
        if coloring.get(a) == coloring.get(b):
            raise AllocationError(
                "coloring violates a retained edge {}-{}".format(a, b)
            )

    origin = pig.origin(u, v)
    if origin & EdgeOrigin.INTERFERENCE:
        # The endpoints' live ranges intersect: one register for both
        # clobbers a live value — "a spill is introduced".
        return Theorem2Witness(edge=edge, outcome="spill")

    # E_f-only edge: apply the merged assignment and exhibit the
    # concrete false dependence Lemma 1 predicts.
    assignment = make_assignment(pig.interference, coloring)
    allocated = apply_assignment(assignment)
    violations = find_false_dependences(
        pig.function, allocated, pig.machine, false_graphs=pig.false_graphs
    )
    involved = [
        viol
        for viol in violations
        if {viol.source.uid, viol.target.uid}
        & {d.instruction.uid for d in u.definitions | v.definitions}
    ]
    if not involved:
        raise AllocationError(
            "Theorem 2 expected a false dependence after merging {} and "
            "{}, found none".format(u, v)
        )
    return Theorem2Witness(
        edge=edge, outcome="false_dependence", violations=tuple(involved)
    )
