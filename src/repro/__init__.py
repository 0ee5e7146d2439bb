"""repro — Register Allocation with Instruction Scheduling (Pinter, PLDI 1993).

A full reimplementation of the paper's framework: the parallelizable
interference graph, on which ordinary graph coloring yields a register
allocation that introduces no false dependences, together with the
substrates it needs (RISC IR, dataflow analyses, dependence/schedule
graphs, superscalar machine models, list scheduling and a cycle-level
issue simulator) and the baselines it is compared against (Chaitin
coloring with either phase order).

Quickstart::

    from repro import BlockBuilder, presets
    from repro.core import PinterAllocator

    b = BlockBuilder()
    s1 = b.load("z")
    s2 = b.loadi(0)
    s3 = b.load_indexed("a", s2)
    s4 = b.add(s1, s1)
    s5 = b.mul(s3, 5)
    fn = b.function("example1", live_out=[s4, s5])

    machine = presets.two_unit_superscalar()
    result = PinterAllocator(machine, num_registers=3).run(fn)
    print(result.allocated_function)
"""

from repro.ir import (
    BasicBlock,
    BlockBuilder,
    Function,
    FunctionBuilder,
    Immediate,
    Instruction,
    Label,
    MemorySymbol,
    Opcode,
    PhysicalRegister,
    UnitKind,
    VirtualRegister,
    format_function,
    parse_function,
    single_block_function,
    verify_function,
)
from repro.machine import MachineDescription, presets

__version__ = "1.1.0"

__all__ = [
    "BasicBlock",
    "BlockBuilder",
    "Function",
    "FunctionBuilder",
    "Immediate",
    "Instruction",
    "Label",
    "MachineDescription",
    "MemorySymbol",
    "Opcode",
    "PhysicalRegister",
    "UnitKind",
    "VirtualRegister",
    "format_function",
    "parse_function",
    "presets",
    "single_block_function",
    "verify_function",
    "__version__",
]
