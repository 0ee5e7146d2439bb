"""Seeded inputs and the checks on the program's outputs.

Every input comes from ``repro.workloads``; the program receives only
its text (IR text, source text, or tasks built from them).  The same
``(workload, seed)`` always gives the same inputs.

Output checks never trust the compiler under test for the expected
answer: the interpreter (:mod:`repro.ir.evaluator`) runs the input
program and the allocated program from the same memory, and the
``source_kernels`` are held to their hand-written golden live-outs.
"""

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.frontend.lower import compile_source
from repro.ir import parser as ir_parser
from repro.ir.evaluator import equivalent, run_function
from repro.ir.printer import format_function
from repro.workloads import (
    RandomBlockConfig,
    SourceFuzzConfig,
    random_block,
    random_input_memory,
    random_source,
)
from repro.workloads.source_kernels import ALL_SOURCE_KERNELS

#: block-pressure shape: r=16 forces spill rounds and sacrificed false
#: edges.  Sizes are stratified over the range so every seed carries the
#: same size mix; a seed changes only the block contents.  Coloring time
#: grows steeply with n (a 128-instruction block alone takes 4-7 s), so
#: the range stops at 96 to fit 16 blocks in one round.
BLOCK_REGISTERS = 16
BLOCK_SIZES = (64, 96)
BLOCK_COUNT = 16
BLOCK_SHAPE = dict(window=96, load_fraction=0.3)

#: cfg-source shape: about 50 blocks per program.  Only programs whose
#: IR falls in CFG_FUZZ_INSTRS are kept, so every seed compiles the same
#: number of functions and about the same amount of code; 16 of them
#: make one round fill most of a 20 s run.
CFG_FUZZ_COUNT = 16
CFG_FUZZ_INSTRS = (400, 800)
CFG_FUZZ_SHAPE = dict(num_inputs=4, num_statements=40, max_depth=3)

#: batch-dup and serve-open: small programs, about 20 ms per compile.
SMALL_FUZZ_SHAPE = dict(num_statements=8)

#: A small fixed function compiled before anything is timed.
WARMUP_SOURCE = ALL_SOURCE_KERNELS["clamp_sum"].source


@dataclass(frozen=True)
class Input:
    """One program the workload compiles."""

    name: str
    text: str
    is_ir: bool
    instrs: int
    #: initial memory for the equivalence check (fuzz programs)
    memory: Optional[dict] = None
    #: hand-written (memory, live-out) cases (source kernels)
    golden: Optional[Tuple] = None

    def lower(self):
        """The input program as IR, before allocation."""
        if self.is_ir:
            return ir_parser.parse_function(self.text)
        return compile_source(self.text, name=self.name)

    def output_ok(self, allocated):
        """True when *allocated* computes what the input computes."""
        if self.golden is not None:
            return all(
                run_function(allocated, dict(memory)).live_out_values
                == expected
                for memory, expected in self.golden
            )
        return equivalent(self.lower(), allocated, dict(self.memory or {}))


def _rng(workload, seed):
    return random.Random("{}:{}".format(workload, seed))


def _count(fn):
    return sum(len(block) for block in fn.blocks())


def _source_input(name, text, memory=None, golden=None):
    instrs = _count(compile_source(text, name=name))
    return Input(name, text, False, instrs, memory, golden)


def block_pressure(seed):
    rng = _rng("block-pressure", seed)
    low, high = BLOCK_SIZES
    inputs = []
    for i in range(BLOCK_COUNT):
        size = low + round(i * (high - low) / (BLOCK_COUNT - 1))
        fn = random_block(RandomBlockConfig(
            size=size, seed=rng.randrange(1 << 30), **BLOCK_SHAPE))
        inputs.append(Input(fn.name, format_function(fn), True, size))
    return inputs


def cfg_source(seed):
    rng = _rng("cfg-source", seed)
    low, high = CFG_FUZZ_INSTRS
    inputs = []
    while len(inputs) < CFG_FUZZ_COUNT:
        config = SourceFuzzConfig(seed=rng.randrange(1 << 30),
                                  **CFG_FUZZ_SHAPE)
        inp = _source_input("fuzz{}".format(len(inputs)),
                            random_source(config),
                            memory=random_input_memory(config))
        if low <= inp.instrs <= high:
            inputs.append(inp)
    for name, kernel in sorted(ALL_SOURCE_KERNELS.items()):
        inputs.append(_source_input(name, kernel.source,
                                    golden=kernel.cases))
    return inputs


def small_fuzz(workload, seed):
    """An endless seeded stream of small distinct source programs."""
    rng = _rng(workload + "/sources", seed)
    index = 0
    while True:
        config = SourceFuzzConfig(seed=rng.randrange(1 << 30),
                                  **SMALL_FUZZ_SHAPE)
        yield _source_input("{}{}".format(workload[0], index),
                            random_source(config),
                            memory=random_input_memory(config))
        index += 1


def with_repeats(workload, seed, count, repeat_share):
    """*count* inputs, ``round(count * repeat_share)`` of which repeat
    an earlier distinct input; the seed picks which positions repeat and
    what.  Returns the sequence and the distinct inputs in first-seen
    order."""
    rng = _rng(workload + "/repeats", seed)
    fresh = small_fuzz(workload, seed)
    repeats = round(count * repeat_share)
    is_repeat = [False] * (count - repeats - 1) + [True] * repeats
    rng.shuffle(is_repeat)
    distinct, sequence = [], []
    for repeat in [False] + is_repeat:
        if repeat:
            sequence.append(rng.choice(distinct))
        else:
            distinct.append(next(fresh))
            sequence.append(distinct[-1])
    return sequence, distinct
