"""The paper's coloring procedure on the parallelizable interference
graph (Section 4, "Coloring procedure").

Structure, following the pseudo-code:

1. **Simplify** — repeatedly delete nodes of degree < r (pushing them
   on the selection stack).
2. **Sacrifice parallelism** — while some remaining node has degree < r
   *when only interference edges are considered*, remove one false-
   dependence edge not in E_r, chosen by scheduling considerations (the
   edge whose co-issue "contributes the least"), from both the working
   graph and the output graph; then simplify again.  "The second while
   loop guarantees that the convergence property of the algorithm will
   be similar to the one proved for the original algorithm" — pressure
   caused purely by false edges is always relieved before any spill.
3. **Spill** — if still stuck, choose v minimizing
   ``h*(v) = cost(v)/Σ w({u,v})`` and put it on the spill list.
4. **Select** — color in reverse deletion order on the (edge-reduced)
   graph; if the spill list is non-empty the caller inserts spill code
   and repeats the whole procedure.

The procedure runs on worklists over dense web positions (webs sorted
by ``Web.index``) instead of rescanning the graph.  Two invariants make
that exact:

* **Degrees only fall.**  Nodes and false-only edges are removed, never
  added, so "degree < r" and "interference degree < r" hold for good
  once true.  A node enters the simplify worklist, or the min-heap of
  sacrificial candidates, once — at the moment its count drops below r.
* **The two-heap sweep is the index-order sweep.**  Simplify deletes, in
  index order, every node whose degree is below r, and starts another
  pass while the last one deleted anything.  The worklist keeps the
  current pass's cursor and two min-heaps: a node that becomes
  simplifiable past the cursor joins ``cur`` (this pass reaches it), one
  at or before the cursor joins ``nxt`` (the next pass does).  Popping
  ``cur`` until it drains, then swapping in ``nxt``, deletes the same
  nodes in the same order as the repeated sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Literal, Optional, Tuple

import networkx as nx

from repro.analysis.webs import Web
from repro.core.edge_weights import DEFAULT_CONFIG, EdgeWeightConfig
from repro.core.parallel_interference import (
    EdgeOrigin,
    ParallelInterferenceGraph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.obs import get_metrics, get_tracer
from repro.utils.errors import AllocationError
from repro.utils.faults import trip

EdgePolicy = Literal["node", "global", "lazy"]

#: Worklist steps (node deletions, edge sacrifices, spill picks and
#: colored nodes) between two polls of ``check_deadline``; the first
#: step polls too, so an expired budget stops even a tiny graph.
DEADLINE_STRIDE = 64

_FALSE = EdgeOrigin.FALSE.value
_BOTH = EdgeOrigin.BOTH.value


@dataclass
class PinterColoringResult:
    """Outcome of one run of the combined coloring procedure.

    Attributes:
        coloring: web → color for every non-spilled web.
        spilled: Spill victims in choice order.
        selection_order: Deletion order (colored in reverse).
        removed_false_edges: Parallelism given up under pressure, in
            removal order — each entry is a (web, web) pair.
        reduced_graph: The output graph after false-edge removals (the
            graph the selection phase colored against).
            :func:`pinter_color` returns a read-only view of the PIG
            that hides ``removed_false_edges``.
    """

    coloring: Dict[Web, int]
    spilled: List[Web]
    selection_order: List[Web]
    removed_false_edges: List[Tuple[Web, Web]]
    reduced_graph: nx.Graph

    @property
    def num_colors_used(self) -> int:
        return len(set(self.coloring.values())) if self.coloring else 0

    @property
    def has_spills(self) -> bool:
        return bool(self.spilled)

    @property
    def parallelism_sacrificed(self) -> int:
        return len(self.removed_false_edges)


def pinter_color(
    pig: ParallelInterferenceGraph,
    num_registers: int,
    cost: Optional[Callable[[Web], float]] = None,
    weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
    edge_policy: EdgePolicy = "node",
    value_model: Optional[SchedulingValueModel] = None,
    optimistic: bool = False,
    bias: Optional[Dict[Web, List[Web]]] = None,
    check_deadline: Optional[Callable[[], None]] = None,
) -> PinterColoringResult:
    """Run the combined coloring procedure.

    Args:
        pig: The parallelizable interference graph (not mutated).
        num_registers: r, the machine's register count.
        cost: Spill cost per web; defaults to uniform cost 1.
        weight_config: Edge prices for the h* denominator.  h* is
            computed from per-class edge counts, which equals the
            per-edge sum exactly for integer prices (the shipped
            configs).
        edge_policy: How to pick the sacrificed false edge — ``"node"``
            removes the least-valuable false edge at a node that would
            become simplifiable ("with respect to a selected node");
            ``"global"`` removes the globally least-valuable false edge;
            ``"lazy"`` (extension) removes nothing up front — nodes
            blocked by false edges are pushed optimistically, and only
            a node that finds no color at selection time falls back to
            interference-only constraints, sacrificing exactly the
            false edges its color then violates.
        value_model: Precomputed scheduling values (built on the first
            sacrifice when omitted).
        optimistic: Briggs-style optimism — push the h*-chosen victim
            on the selection stack and spill only nodes that actually
            find no color.  The PIG's false edges make it much denser
            than the interference graph, so pessimistic degree counting
            over-spills badly; optimism recovers most of it (extension
            beyond the paper's Chaitin-based procedure).
        bias: Optional mov-coalescing bias (web → mov partners); when
            several colors are legal, a partner's color is preferred so
            the mov becomes an identity move.  Never affects
            colorability (see :mod:`repro.regalloc.coalesce`).
        check_deadline: Optional callback polled every
            :data:`DEADLINE_STRIDE` worklist steps; it raises
            (typically :class:`~repro.utils.errors.BudgetExceededError`)
            to preempt a compile whose budget ran out mid-phase.

    Returns:
        A :class:`PinterColoringResult`.  When ``spilled`` is non-empty
        the caller must insert spill code and re-run on the rewritten
        program.
    """
    trip("core.pinter_color")
    if cost is None:
        cost = lambda _web: 1.0  # noqa: E731 - simple default
    graph = pig.graph
    r = num_registers
    lazy = edge_policy == "lazy"

    # Dense positions in Web.index order: every index-ordered scan of
    # the procedure becomes position order, and the state below lives
    # in lists instead of Web-keyed dicts.
    webs = sorted(graph.nodes(), key=lambda w: w.index)
    n = len(webs)
    position = {web.index: p for p, web in enumerate(webs)}
    # adj is the *reduced* graph (sacrificed edges are deleted from
    # it); the working graph is adj restricted to alive nodes.  Each
    # entry holds the edge's EdgeOrigin value.
    adj: List[Dict[int, int]] = [{} for _ in range(n)]
    for a, b, origin in graph.edges(data="origin"):
        pa, pb = position[a.index], position[b.index]
        adj[pa][pb] = adj[pb][pa] = origin.value
    alive = [True] * n
    live = n
    # Per-node counts of alive edges: total degree, interference degree
    # (E_r, shared edges included), false-only and shared edges.
    deg = [len(row) for row in adj]
    nfalse = [0] * n
    nboth = [0] * n
    for p, row in enumerate(adj):
        for origin in row.values():
            if origin == _FALSE:
                nfalse[p] += 1
            elif origin == _BOTH:
                nboth[p] += 1
    ideg = [deg[p] - nfalse[p] for p in range(n)]

    stack: List[int] = []
    spilled: List[int] = []
    removed: List[Tuple[Web, Web]] = []
    sacrificed_value = 0.0
    simplified = sweeps = spill_picks = optimistic_pushes = 0
    steps = 0
    stride_mask = DEADLINE_STRIDE - 1

    def step() -> None:
        nonlocal steps
        if check_deadline is not None and not (steps & stride_mask):
            check_deadline()
        steps += 1

    # Simplify worklist: cur holds simplifiable positions past the
    # cursor of the current index-order pass, nxt those at or before it.
    cur = [p for p in range(n) if deg[p] < r]
    nxt: List[int] = []
    cursor = -1
    # Sacrificial candidates (interference degree < r), lazily pruned
    # of dead positions; valid right after simplify, when every alive
    # node has total degree >= r.
    blocked = [p for p in range(n) if ideg[p] < r]

    def drop_degree(q: int) -> None:
        d = deg[q] - 1
        deg[q] = d
        if d == r - 1:
            heappush(cur if q > cursor else nxt, q)

    def remove_node(p: int) -> None:
        nonlocal live
        alive[p] = False
        live -= 1
        for q, origin in adj[p].items():
            if not alive[q]:
                continue
            drop_degree(q)
            if origin == _FALSE:
                nfalse[q] -= 1
                continue
            if origin == _BOTH:
                nboth[q] -= 1
            i = ideg[q] - 1
            ideg[q] = i
            if i == r - 1:
                heappush(blocked, q)

    def simplify() -> None:
        nonlocal cur, nxt, cursor, simplified, sweeps
        while cur or nxt:
            if not cur:
                cur, nxt = nxt, cur
                cursor = -1
            sweeps += 1
            while cur:
                step()
                p = heappop(cur)
                cursor = p
                stack.append(p)
                remove_node(p)
                simplified += 1
        cursor = -1

    def first_blocked() -> Optional[int]:
        while blocked and not alive[blocked[0]]:
            heappop(blocked)
        return blocked[0] if blocked else None

    def sacrifice(pa: int, pb: int, value: float) -> None:
        nonlocal sacrificed_value
        step()
        del adj[pa][pb], adj[pb][pa]
        for p in (pa, pb):
            nfalse[p] -= 1
            drop_degree(p)
        removed.append((webs[pa], webs[pb]))
        sacrificed_value += value

    def edge_value(a: Web, b: Web) -> float:
        # The model is built on first use: a round that sacrifices no
        # edge never pays for EP numbers and heights.
        nonlocal value_model
        if value_model is None:
            value_model = SchedulingValueModel.build(pig)
        return value_model.edge_value(a, b)

    # Per-node lazy min-heaps of false-only edges keyed
    # (edge_value, neighbour position), built on first use; entries go
    # stale when the neighbour dies or the edge is sacrificed.
    false_heaps: Dict[int, List[Tuple[float, int]]] = {}

    def shed_at_first_blocked() -> bool:
        p = first_blocked()
        heap = false_heaps.get(p)
        if heap is None:
            web = webs[p]
            heap = [
                (edge_value(web, webs[q]), q)
                for q, origin in adj[p].items()
                if origin == _FALSE and alive[q]
            ]
            heapify(heap)
            false_heaps[p] = heap
        row = adj[p]
        while heap:
            value, q = heappop(heap)
            if alive[q] and q in row:
                sacrifice(p, q, value)
                return True
        return False

    # One lazy min-heap of all false-only edges keyed
    # (value, a.index, b.index), built on first use and oriented as
    # networkx iterates the edges (the orientation is the tie-break).
    global_heap: Optional[List[Tuple[float, int, int, int, int]]] = None

    def shed_global_min() -> bool:
        nonlocal global_heap
        if global_heap is None:
            global_heap = []
            for a, b, origin in graph.edges(data="origin"):
                pa, pb = position[a.index], position[b.index]
                if alive[pa] and alive[pb] and adj[pa].get(pb) == _FALSE:
                    global_heap.append(
                        (edge_value(a, b), a.index, b.index, pa, pb)
                    )
            heapify(global_heap)
        while global_heap:
            value, _, _, pa, pb = heappop(global_heap)
            if alive[pa] and alive[pb] and pb in adj[pa]:
                sacrifice(pa, pb, value)
                return True
        return False

    shed = shed_at_first_blocked
    if edge_policy == "global":
        shed = shed_global_min
    w_interference = weight_config.interference_weight
    w_false = weight_config.parallelism_weight
    w_both = weight_config.shared_weight
    costs: List[Optional[float]] = [None] * n
    inf = float("inf")

    while live:
        simplify()
        if not live:
            break
        if lazy:
            # Lazy mode: nodes whose pressure comes from false edges
            # are pushed optimistically; selection decides whether any
            # parallelism must actually be given up.
            p = first_blocked()
            if p is not None:
                step()
                stack.append(p)
                remove_node(p)
                optimistic_pushes += 1
                continue
        else:
            # Second loop: relieve pressure that is due to false edges
            # only — a sacrificial candidate always owns a removable
            # false edge, so this loop is guaranteed to progress.
            while live and first_blocked() is not None:
                if not shed():
                    break
                simplify()
        if not live:
            break
        # Every remaining node now has interference degree >= r: the
        # pressure is real, spill the node minimizing h*.  Nodes with
        # infinite metric (spill temporaries) are never victims —
        # re-spilling a one-statement range cannot reduce pressure.
        step()
        victim = None
        best = inf
        for p in range(n):
            if not alive[p]:
                continue
            total = (
                (ideg[p] - nboth[p]) * w_interference
                + nfalse[p] * w_false
                + nboth[p] * w_both
            )
            if total <= 0.0:
                continue
            spill_cost = costs[p]
            if spill_cost is None:
                spill_cost = costs[p] = cost(webs[p])
            metric = spill_cost / total
            if metric < best:
                best = metric
                victim = p
        if victim is None:
            raise AllocationError(
                "irreducible register pressure: {} values including "
                "spill temporaries exceed r={}".format(live, r)
            )
        spill_picks += 1
        if optimistic or lazy:
            stack.append(victim)  # may still find a color at select time
            optimistic_pushes += 1
        else:
            spilled.append(victim)
        remove_node(victim)

    from repro.regalloc.coalesce import choose_biased_color

    # Select against the reduced adjacency.  Lazily sacrificed edges
    # stay in adj: each one joins the node being colored to an earlier
    # colored node, so no later node can see it.
    colors: List[Optional[int]] = [None] * n
    coloring: Dict[Web, int] = {}
    for p in reversed(stack):
        step()
        row = adj[p]
        used = {colors[q] for q in row if colors[q] is not None}
        free = [c for c in range(r) if c not in used]
        color = choose_biased_color(free, webs[p], coloring, bias)
        if color is None and lazy:
            # Fall back to interference-only constraints: give up
            # exactly the false edges the chosen color violates.
            hard = {
                colors[q]
                for q, origin in row.items()
                if colors[q] is not None and origin != _FALSE
            }
            color = next((c for c in range(r) if c not in hard), None)
            if color is not None:
                for q in sorted(row):
                    if colors[q] == color and row[q] == _FALSE:
                        pair = (p, q) if p <= q else (q, p)
                        a, b = webs[pair[0]], webs[pair[1]]
                        removed.append((a, b))
                        sacrificed_value += edge_value(a, b)
        if color is None:
            if not (optimistic or lazy):
                raise AllocationError(
                    "no free color for {} among {}".format(webs[p], r)
                )
            spilled.append(p)
        else:
            colors[p] = color
            coloring[webs[p]] = color

    tracer = get_tracer()
    metrics = get_metrics()
    tracer.event(
        "color.round",
        nodes=n,
        simplified=simplified,
        sweeps=sweeps,
        optimistic_pushes=optimistic_pushes,
        spill_picks=spill_picks,
        spilled=len(spilled),
        false_edges_removed=len(removed),
        sacrificed_value=sacrificed_value,
    )
    metrics.counter("color.rounds").inc()
    metrics.counter("color.simplified").inc(simplified)
    metrics.counter("color.sweeps").inc(sweeps)
    metrics.counter("color.optimistic_pushes").inc(optimistic_pushes)
    metrics.counter("color.spill_picks").inc(spill_picks)
    metrics.counter("color.spilled").inc(len(spilled))
    metrics.counter("color.false_edges_removed").inc(len(removed))
    metrics.counter("color.sacrificed_value").inc(sacrificed_value)
    return PinterColoringResult(
        coloring=coloring,
        spilled=[webs[p] for p in spilled],
        selection_order=[webs[p] for p in stack],
        removed_false_edges=removed,
        reduced_graph=nx.restricted_view(graph, (), removed),
    )


def banked_pinter_color(
    pig: ParallelInterferenceGraph,
    budget,
    cost: Optional[Callable[[Web], float]] = None,
    weight_config: EdgeWeightConfig = DEFAULT_CONFIG,
    edge_policy: EdgePolicy = "node",
    optimistic: bool = False,
    bias: Optional[Dict[Web, List[Web]]] = None,
) -> Dict[str, PinterColoringResult]:
    """Run the combined procedure once per register class.

    For machines with split fixed/floating-point files
    (:class:`~repro.regalloc.classes.BankedBudget`), each class-induced
    subgraph of G is colored independently against its own budget —
    cross-class edges cannot be violated (two files never share a
    register), so dropping them loses nothing.

    Returns:
        class name → :class:`PinterColoringResult`.
    """
    from repro.regalloc.classes import class_subgraph, split_webs_by_class

    value_model = SchedulingValueModel.build(pig)
    groups = split_webs_by_class(pig.webs, chains=pig.interference.chains)
    results: Dict[str, PinterColoringResult] = {}
    for register_class in ("int", "float"):
        sub = pig.copy()
        sub.graph = class_subgraph(pig.graph, groups[register_class])
        results[register_class] = pinter_color(
            sub,
            budget.of(register_class),
            cost=cost,
            weight_config=weight_config,
            edge_policy=edge_policy,
            value_model=value_model,
            optimistic=optimistic,
            bias=bias,
        )
    return results


def optimal_pig_coloring(
    pig: ParallelInterferenceGraph,
    max_nodes: int = 40,
) -> Dict[Web, int]:
    """An *optimal* (minimum-color) coloring of G by exact search —
    the object of Theorems 1 and 2, practical for the worked examples
    and property tests.

    Raises:
        AllocationError: when the graph exceeds *max_nodes*.
    """
    from repro.regalloc.chaitin import exact_chromatic_number

    chi = exact_chromatic_number(pig.graph, node_limit=max_nodes)
    result = pinter_color(pig, num_registers=chi)
    if result.has_spills or result.removed_false_edges:
        raise AllocationError(
            "internal error: coloring with chi={} colors spilled".format(chi)
        )
    return result.coloring
