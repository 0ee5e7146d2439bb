"""Whole-function dependence reachability.

Region schedule graphs concatenate only the region's own instructions,
but a dependence between two region instructions may *transit* other
blocks — e.g. a value loaded before an if, copied in one arm, and
consumed after the join: load → (arm mov) → use.  Ignoring the transit
would let the region's E_f claim the load and the use are
co-schedulable, which they never are.

:func:`function_dependence_graph` builds a conservative directed
dependence graph over every instruction of the function:

* all block-local dependences (register flow/anti/output, memory
  ordering, branch-last control edges);
* control dependences (Ferrante, Ottenstein and Warren): a
  conditional branch orders before every instruction of each block
  control dependent on it;
* cross-block register flow from reaching definitions (def-use
  chains);
* cross-block memory ordering between may-aliasing accesses in
  CFG-ordered blocks.

:func:`transit_dependence_pairs` then reports, for a given instruction
subset, the (layout-ordered) pairs connected through the global graph —
exactly the edges a region schedule graph must add to stay sound.
"""

from __future__ import annotations

import weakref
from typing import List, Sequence, Tuple

import networkx as nx

from repro.analysis.defuse import shared_def_use_chains
from repro.analysis.dominators import postdominator_tree
from repro.deps.datadeps import all_dependences, _may_alias
from repro.ir.function import Function
from repro.ir.instructions import Instruction


def function_dependence_graph(fn: Function) -> nx.DiGraph:
    """The conservative whole-function dependence digraph."""
    graph = nx.DiGraph()
    for instr in fn.instructions():
        graph.add_node(instr)

    # Block-local dependences (including branch-last ordering).
    for block in fn.blocks():
        for dep in all_dependences(block.instructions):
            graph.add_edge(dep.source, dep.target)
        terminator = block.terminator
        if terminator is not None:
            for instr in block.instructions[:-1]:
                graph.add_edge(instr, terminator)

    # Control dependences: a block on the postdominator-tree path from
    # a successor of a conditional branch up to (not including) the
    # branch block's immediate postdominator runs only if that arm is
    # taken.  Those are the blocks that postdominate the successor
    # without strictly postdominating the branch block.
    conditional = [
        block for block in fn.blocks()
        if block.terminator is not None and len(fn.successors(block)) > 1
    ]
    if conditional:
        pdom = postdominator_tree(fn)
        for block in conditional:
            branch = block.terminator
            arms = [succ.name for succ in fn.successors(block)]
            for other in fn.blocks():
                if pdom.strictly_dominates(other.name, block.name):
                    continue
                if any(pdom.dominates(other.name, arm) for arm in arms):
                    for instr in other.instructions:
                        if instr is not branch:
                            graph.add_edge(branch, instr)

    # Cross-block register flow: def -> use for every reaching def.
    chains = shared_def_use_chains(fn)
    in_graph = set(graph.nodes())
    for (instr, _reg), defs in chains.defs_of.items():
        if instr not in in_graph:
            continue  # synthetic live-out anchors
        for point in defs:
            if point.instruction is not instr:
                graph.add_edge(point.instruction, instr)

    # Cross-block memory ordering (conservative, layout order between
    # distinct blocks: a write in an earlier block orders against
    # later-block aliasing accesses and vice versa).
    memory_ops: List[Tuple[int, Instruction]] = []
    for block_index, block in enumerate(fn.blocks()):
        for instr in block:
            if instr.is_memory_access or instr.opcode.is_call:
                memory_ops.append((block_index, instr))
    for i, (block_a, a) in enumerate(memory_ops):
        writes_a = a.opcode.is_store or a.opcode.is_call
        for block_b, b in memory_ops[i + 1:]:
            if block_a == block_b:
                continue  # block-local pass covered it
            writes_b = b.opcode.is_store or b.opcode.is_call
            if not (writes_a or writes_b):
                continue
            if a.opcode.is_call or b.opcode.is_call or _may_alias(a, b):
                graph.add_edge(a, b)
    return graph


#: Memoized whole-function graphs, keyed by function identity.
_FDEP_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def shared_function_dependence_graph(fn: Function) -> nx.DiGraph:
    """:func:`function_dependence_graph` memoized on function identity.

    The driver consults the graph from several phases of one compile
    (the PIG build and the theorem-1 check walk the *same* symbolic
    function), and every pipeline rewrite — optimize, preschedule,
    spill insertion, assignment — constructs a fresh
    :class:`~repro.ir.function.Function` rather than mutating one, so
    identity is a sound memo key there.  Callers that mutate a
    function in place must call :func:`function_dependence_graph`
    directly.
    """
    graph = _FDEP_MEMO.get(fn)
    if graph is None:
        graph = function_dependence_graph(fn)
        _FDEP_MEMO[fn] = graph
    return graph


def _ancestor_masks(graph: nx.DiGraph):
    """Per-node reachability as big-int ancestor masks, cached on the
    graph.

    One strongly-connected-component pass (iterative Tarjan) plus one
    sweep of the components in topological order computes, for every
    node, the bitmask (over a private dense index) of all nodes that
    can reach it — nodes sharing an SCC reach each other.  A region's
    transit pass then reduces to ``mask & region_mask`` per member,
    instead of one ``nx.descendants`` BFS per instruction; cached on
    ``graph.graph`` so the memoized function graph answers every
    region of every phase from one closure.
    """
    cached = graph.graph.get("_transit_ancestors")
    if cached is not None:
        return cached
    nodes = list(graph)
    index = {node: i for i, node in enumerate(nodes)}
    succ = [[index[w] for w in nbrs] for _, nbrs in graph.adjacency()]
    # Tarjan emits a component after every component it reaches, so
    # the components counted down come in topological order.
    number, low, comp_of = {}, {}, [-1] * len(nodes)
    comps: List[List[int]] = []
    stack: List[int] = []
    for root in range(len(nodes)):
        if root in number:
            continue
        number[root] = low[root] = len(number)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in number:
                    number[w] = low[w] = len(number)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] < 0:  # on the stack
                    low[v] = min(low[v], number[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == number[v]:
                    comps.append([])
                    while not comps[-1] or comps[-1][-1] != v:
                        comp_of[stack[-1]] = len(comps) - 1
                        comps[-1].append(stack.pop())
    scc_bits = [sum(1 << m for m in members) for members in comps]
    above = [0] * len(comps)
    for comp in reversed(range(len(comps))):
        reach = above[comp] | scc_bits[comp]
        for m in comps[comp]:
            for w in succ[m]:
                if comp_of[w] != comp:
                    above[comp_of[w]] |= reach
    masks = {
        node: above[comp_of[i]] | (scc_bits[comp_of[i]] & ~(1 << i))
        for i, node in enumerate(nodes)
    }
    cached = (index, masks)
    graph.graph["_transit_ancestors"] = cached
    return cached


def transit_dependence_pairs(
    fn: Function,
    instructions: Sequence[Instruction],
    dependence_graph: nx.DiGraph = None,
) -> List[Tuple[Instruction, Instruction]]:
    """Pairs (u, v) of *instructions* (u before v in the given order)
    connected through the whole-function dependence graph.

    Only forward (order-respecting) pairs are returned, so adding them
    as edges keeps the region schedule graph acyclic even when the
    global graph has loop-carried cycles.  Pairs come back sorted by
    position pair: reachability is answered from the cached
    :func:`_ancestor_masks` bit rows, and anything downstream that
    serializes the schedule graph (the region cache digests it) needs
    the same IR to produce the same bytes in every process.
    """
    if dependence_graph is None:
        dependence_graph = function_dependence_graph(fn)
    index, masks = _ancestor_masks(dependence_graph)
    position = {instr: idx for idx, instr in enumerate(instructions)}
    region_mask = 0
    by_bit: dict = {}
    for instr in instructions:
        bit = index.get(instr)
        if bit is not None:
            region_mask |= 1 << bit
            by_bit[bit] = instr
    pairs: List[Tuple[Instruction, Instruction]] = []
    for v in instructions:
        if v not in masks:
            continue
        row = masks[v] & region_mask
        pos_v = position[v]
        while row:
            low = row & -row
            row ^= low
            u = by_bit[low.bit_length() - 1]
            if position[u] < pos_v:
                pairs.append((u, v))
    pairs.sort(key=lambda pair: (position[pair[0]], position[pair[1]]))
    return pairs
