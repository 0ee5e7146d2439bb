"""The EP-driven pre-scheduling pass.

"Since the interference graph of the code uses the sequential ordering
of the instructions we will add a preliminary scheduling heuristic for
selecting one such order" — the interference relation (hence the
parallelizable interference graph, hence the allocation) is relative to
input order, so a parallelism-aware order is chosen *before* building
the graphs: compute refined EP numbers and "select a linear order which
is consistent with the partial order of the new EP numbers and reorder
the program segment accordingly".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.deps.schedule_graph import block_schedule_graph
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.machine.model import MachineDescription
from repro.sched.ep import analyze_ep


def preschedule_block(
    block: BasicBlock, machine: MachineDescription
) -> BasicBlock:
    """Reorder *block* in place by refined EP numbers.

    Returns the same block for chaining.  The new order is a
    topological order of the block's schedule graph, so semantics are
    preserved; the terminator keeps its final position because control
    edges give it the largest EP.
    """
    if len(block.instructions) < 2:
        return block
    sg = block_schedule_graph(block, machine=machine)
    analysis = analyze_ep(sg, machine)
    block.reorder(analysis.order)
    return block


def preschedule_function(
    fn: Function,
    machine: MachineDescription,
    check_deadline: Optional[Callable[[], None]] = None,
) -> Function:
    """EP-reorder every block of *fn* in place; returns *fn*.

    *check_deadline*, when given, is polled before each block and
    raises to preempt a compile whose wall-clock budget ran out.
    """
    for block in fn.blocks():
        if check_deadline is not None:
            check_deadline()
        preschedule_block(block, machine)
    return fn
