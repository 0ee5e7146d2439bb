"""Liveness analysis and live-interval extraction.

Two layers:

* :func:`live_variables` — classic backward may-dataflow over the CFG,
  producing live-in/live-out register sets per block.
* :func:`block_live_intervals` — within one block, the *program
  intervals* the paper's interference graph is built from: "Every
  vertex v ∈ V_r corresponds to a distinct program interval in which a
  definition of a variable's value is live."

The paper notes the convention most compilers use: "the end point of
the live interval of a symbolic register (i.e. the statement
corresponding to its last use) is not considered part of the interval;
this enables the reuse of the register in the same statement that last
uses it."  :class:`LiveInterval` follows that convention — the interval
is half-open at the last use — with a switch for the closed variant.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import (
    DataflowSolution,
    Direction,
    GenKillTransfer,
    solve_gen_kill,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.operands import Register


def block_use_def(block: BasicBlock) -> Tuple[FrozenSet[Register], FrozenSet[Register]]:
    """(upward-exposed uses, defs) of *block* for the liveness transfer."""
    uses: Set[Register] = set()
    defs: Set[Register] = set()
    for instr in block:
        for reg in instr.uses():
            if reg not in defs:
                uses.add(reg)
        defs.update(instr.defs())
    return frozenset(uses), frozenset(defs)


@dataclass
class LivenessInfo:
    """Live-in/live-out register sets per block."""

    live_in: Dict[str, FrozenSet[Register]]
    live_out: Dict[str, FrozenSet[Register]]

    def live_at_entry(self, block: BasicBlock) -> FrozenSet[Register]:
        return self.live_in[block.name]

    def live_at_exit(self, block: BasicBlock) -> FrozenSet[Register]:
        return self.live_out[block.name]


def live_variables(fn: Function) -> LivenessInfo:
    """Solve liveness over the CFG.

    The function's declared ``live_out`` registers are injected at
    every exit block ("if we assume that no value is live on the
    entrance and exit from the code fragment" is the empty default).
    """
    exit_names = {b.name for b in fn.exit_blocks()}
    fn_live_out = frozenset(fn.live_out)

    def transfer(block: BasicBlock) -> GenKillTransfer[Register]:
        uses, defs = block_use_def(block)
        return GenKillTransfer(gen=uses, kill=defs)

    def boundary(block: BasicBlock) -> FrozenSet[Register]:
        if block.name in exit_names:
            return fn_live_out
        return frozenset()

    solution: DataflowSolution[Register] = solve_gen_kill(
        fn, Direction.BACKWARD, transfer, boundary
    )
    # For a backward problem, inputs[b] is the set at block exit.
    return LivenessInfo(live_in=solution.outputs, live_out=solution.inputs)


def per_instruction_liveness(
    block: BasicBlock, live_out: FrozenSet[Register]
) -> List[FrozenSet[Register]]:
    """Registers live *after* each instruction of *block*.

    ``result[i]`` is the live set immediately after instruction ``i``;
    the live set before instruction 0 can be recovered with one more
    transfer step if needed.
    """
    result: List[FrozenSet[Register]] = [frozenset()] * len(block.instructions)
    live: Set[Register] = set(live_out)
    for idx in range(len(block.instructions) - 1, -1, -1):
        result[idx] = frozenset(live)
        instr = block.instructions[idx]
        live.difference_update(instr.defs())
        live.update(instr.uses())
    return result


@dataclass(frozen=True)
class LiveInterval:
    """The live interval of one definition within one block.

    Attributes:
        register: The defined register.
        block: Owning block name.
        start: Instruction index of the definition, or ``-1`` when the
            value is live-in to the block (defined upstream).
        end: Instruction index of the last use (open-end convention:
            the interval covers positions ``(start, end)`` exclusive of
            the last-use statement itself), or ``len(block)`` when the
            value is live-out of the block.  ``end == start`` marks a
            dead definition.
        defining_instruction: The defining instruction, or ``None`` for
            live-in pseudo-intervals.
    """

    register: Register
    block: str
    start: int
    end: int
    defining_instruction: Optional[Instruction] = None

    @property
    def is_dead(self) -> bool:
        return self.end <= self.start

    @property
    def is_live_in(self) -> bool:
        return self.start < 0

    def covers_definition_at(self, index: int, closed_end: bool = False) -> bool:
        """Is this value live at the point where another definition at
        instruction *index* executes?

        Under the open-end convention a definition at this interval's
        last-use statement does NOT conflict (register reuse in the
        statement of last use, e.g. incrementing a register).
        """
        if closed_end:
            return self.start < index <= self.end
        return self.start < index < self.end

    def overlaps(self, other: "LiveInterval", closed_end: bool = False) -> bool:
        """Do the two intervals interfere (one live at the other's def)?

        Two definitions at the same statement (a multi-def call) always
        interfere; live-in intervals interfere with each other (both
        live at block entry).
        """
        if self.block != other.block:
            return False
        if self.start == other.start:
            return True
        if self.start < other.start:
            return self.covers_definition_at(other.start, closed_end)
        return other.covers_definition_at(self.start, closed_end)

    def __str__(self) -> str:
        return "{}@{}[{}..{})".format(self.register, self.block, self.start, self.end)


def block_live_intervals(
    block: BasicBlock,
    live_out: FrozenSet[Register] = frozenset(),
    live_in: FrozenSet[Register] = frozenset(),
    include_live_in: bool = True,
) -> List[LiveInterval]:
    """Extract the definition live intervals of *block*.

    Args:
        block: The block to analyze.
        live_out: Registers live after the block's last instruction.
        live_in: Registers live (defined upstream) at block entry; each
            becomes a pseudo-interval starting at ``-1`` when
            *include_live_in* is set.
        include_live_in: Emit pseudo-intervals for live-in values.

    Returns:
        Intervals in definition order (live-in pseudo-intervals first).
        A register redefined in the block yields several intervals, one
        per definition — the vertex set of the interference graph.
    """
    n = len(block.instructions)
    uses_by_reg: Dict[Register, List[int]] = {}
    defs_by_reg: Dict[Register, List[int]] = {}
    for idx, instr in enumerate(block.instructions):
        for reg in instr.uses():
            uses_by_reg.setdefault(reg, []).append(idx)
        for reg in instr.defs():
            defs_by_reg.setdefault(reg, []).append(idx)

    def last_use_in(reg: Register, lo: int, hi: int) -> int:
        """Last use position p of *reg* with lo < p <= hi, or -1."""
        positions = uses_by_reg.get(reg)
        if not positions:
            return -1
        k = bisect_right(positions, hi) - 1
        if k >= 0 and positions[k] > lo:
            return positions[k]
        return -1

    intervals: List[LiveInterval] = []

    if include_live_in:
        for reg in sorted(live_in, key=str):
            def_positions = defs_by_reg.get(reg)
            redefined_at = def_positions[0] if def_positions else n
            # The incoming value dies at its last use up to AND
            # including any local redefinition — an instruction that
            # both uses and defines the register reads the old value
            # (e.g. a loop-carried self-move) — or extends to block end
            # if live-out and never redefined.
            end = last_use_in(reg, -1, min(redefined_at, n - 1))
            if reg in live_out and not def_positions:
                end = n
            elif end < 0:
                end = 0  # live-in but never used before redefinition: dead on arrival
            intervals.append(
                LiveInterval(register=reg, block=block.name, start=-1, end=end)
            )

    # One interval per definition: from the def to the last use before
    # the next definition of the same register (or block end if live-out).
    for idx, instr in enumerate(block.instructions):
        for reg in instr.defs():
            def_positions = defs_by_reg[reg]
            k = bisect_right(def_positions, idx)
            horizon = def_positions[k] if k < len(def_positions) else n
            # A use at the next redefinition itself reads THIS value
            # (read-before-write), so the window includes the horizon.
            end = last_use_in(reg, idx, min(horizon, n - 1))
            if end < 0:
                end = idx  # dead unless a use was found
            if reg in live_out and horizon == n:
                end = n
            intervals.append(
                LiveInterval(
                    register=reg,
                    block=block.name,
                    start=idx,
                    end=end,
                    defining_instruction=instr,
                )
            )
    return intervals


def max_register_pressure(
    block: BasicBlock, live_out: FrozenSet[Register] = frozenset()
) -> int:
    """Maximum number of simultaneously live values at any point in the
    block — a lower bound on the registers any allocation needs."""
    after = per_instruction_liveness(block, live_out)
    pressure = 0
    live: Set[Register] = set(live_out)
    pressure = len(live)
    for idx in range(len(block.instructions) - 1, -1, -1):
        live = set(after[idx])
        instr = block.instructions[idx]
        # At the instruction itself, its defs and uses are simultaneously
        # occupied unless reuse-at-last-use applies; count the live-after
        # set plus upward-exposed uses as the conservative pressure.
        live_before = (live - set(instr.defs())) | set(instr.uses())
        pressure = max(pressure, len(live), len(live_before))
    return pressure
