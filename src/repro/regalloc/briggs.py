"""Briggs-style optimistic coloring.

Chaitin's simplify phase is pessimistic: a node of degree >= r is
spilled even though its neighbors may end up sharing colors.  Briggs'
variant pushes such nodes on the stack *optimistically* and only
spills those that really find no free color during selection.  The
paper's procedure is Chaitin-based; this module provides the drop-in
optimistic variant used by the coloring ablation (an "implement
existing heuristics in this framework" extension).
"""

from __future__ import annotations

from typing import Callable, Optional

import networkx as nx

from repro.regalloc.chaitin import ColoringResult, Node, _color_via_kernel


def briggs_color(
    graph: nx.Graph,
    num_colors: int,
    spill_metric: Optional[Callable[[Node], float]] = None,
) -> ColoringResult:
    """One round of Briggs optimistic coloring.

    Same contract as :func:`~repro.regalloc.chaitin.chaitin_color`:
    ``spilled`` lists nodes that found no color and must be rewritten
    to memory before re-running.  Never spills more nodes than
    Chaitin's pessimistic rule would.
    """
    return _color_via_kernel(
        graph, num_colors, spill_metric, optimistic=True
    )
