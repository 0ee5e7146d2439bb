"""E6 — the global/region extension (Section 3 of the paper).

Compares per-block against region-level operation on structured CFGs:
region scheduling exposes cross-block parallelism, and the global
parallelizable interference graph protects it through allocation.
"""

import random

import pytest

from repro.core.allocator import PinterAllocator
from repro.core.parallel_interference import build_parallel_interference_graph
from repro.ir import equivalent
from repro.ir.builder import FunctionBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operands import VirtualRegister
from repro.machine.presets import two_unit_superscalar
from repro.sched.global_scheduler import simulate_regions
from repro.sched.simulator import simulate_function
from repro.workloads import diamond_chain, figure6_diamond

MACHINE = two_unit_superscalar()


def _diamond_chain_with_join_work(num_diamonds, block_size, seed,
                                  join_work=3):
    """:func:`diamond_chain`'s shape plus work in every join that uses
    nothing the arms define: a load and a short add chain, folded into
    the carried value at the join's end.

    A join postdominates its head, so that work may legally move above
    the head's branch without speculation; only the region form sees
    the overlap.  In a plain diamond chain every join instruction
    consumes the arm-defined value, so the branch orders it.
    """
    rng = random.Random(seed)
    fb = FunctionBuilder("diamonds-join-work-{}".format(seed))
    carried = fb.block("entry", entry=True).load("input")
    previous = "entry"
    for d in range(num_diamonds):
        head, left, right, join = (
            "{}{}".format(part, d)
            for part in ("head", "left", "right", "join")
        )
        hb = fb.block(head)
        hb.cbr(hb.cmp(carried, rng.randrange(1, 10)), left)
        merged = VirtualRegister("m{}".format(d))
        for arm_name in (left, right):
            arm = fb.block(arm_name)
            acc = carried
            for _ in range(block_size // 2):
                acc = arm.add(acc, rng.randrange(1, 5))
            arm.emit(Opcode.MOV, (acc,), dest=merged)
            arm.br(join)
        jb = fb.block(join)
        side = jb.load("aux{}".format(d))
        for _ in range(join_work):
            side = jb.add(side, rng.randrange(1, 5))
        carried = jb.add(jb.add(merged, carried), side)
        for src, dst in ((previous, head), (head, left), (head, right),
                         (left, join), (right, join)):
            fb.edge(src, dst)
        previous = join
    tail = fb.block("tail")
    result = tail.add(carried, carried)
    tail.ret()
    fb.edge(previous, "tail")
    return fb.function(live_out=[result])


def test_e6_region_scheduling_gain(benchmark, emit):
    workloads = [
        ("diamond1", diamond_chain(1, block_size=6, seed=1)),
        ("diamond2", diamond_chain(2, block_size=6, seed=2)),
        ("diamond3", diamond_chain(3, block_size=8, seed=3)),
        ("join-work1", _diamond_chain_with_join_work(1, 6, seed=1)),
        ("join-work2", _diamond_chain_with_join_work(2, 6, seed=2)),
        ("join-work3", _diamond_chain_with_join_work(3, 8, seed=3)),
    ]

    def measure():
        rows = []
        for label, fn in workloads:
            per_block = simulate_function(fn, MACHINE).total_cycles
            per_region = simulate_regions(fn, MACHINE).total_cycles
            rows.append({
                "workload": label,
                "per-block cycles": per_block,
                "per-region cycles": per_region,
                "gain": per_block - per_region,
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("E6: per-block vs. region-level scheduling", rows)
    for row in rows:
        assert row["per-region cycles"] <= row["per-block cycles"]
    # The join work offers real cross-block overlap somewhere.
    assert any(row["gain"] > 0 for row in rows)
    # And that overlap is legal: no join instruction issues in or
    # before its head's branch cycle while reading a value an arm
    # defines.
    for _label, fn in workloads:
        for timing in simulate_regions(fn, MACHINE).regions:
            cycle_of = timing.schedule.cycle_of
            for name in timing.region.blocks:
                if not name.startswith("join"):
                    continue
                d = name[len("join"):]
                branch = fn.block("head" + d).terminator
                arm_defs = {
                    reg
                    for arm in ("left" + d, "right" + d)
                    for instr in fn.block(arm)
                    for reg in instr.defs()
                }
                for instr in fn.block(name):
                    if cycle_of[instr] <= cycle_of[branch]:
                        assert not set(instr.uses()) & arm_defs


def _two_straightline_blocks():
    """Two control-equivalent blocks whose instructions are mutually
    independent — the cross-block co-issue case only the region form
    can see."""
    fb = FunctionBuilder("straightline")
    a = fb.block("a", entry=True)
    x = a.load("x")
    x2 = a.add(x, 1)
    a.br("b")
    b = fb.block("b")
    y = b.fload("y")
    y2 = b.fadd(y, y)
    b.ret()
    fb.edge("a", "b")
    return fb.function(live_out=[x2, y2])


def test_e6_global_allocation_region_vs_block(benchmark, emit):
    """The global PIG (regions on) sees cross-block co-issue pairs the
    per-block form misses, at the price of extra edges."""
    fn = _two_straightline_blocks()

    def measure():
        with_regions = build_parallel_interference_graph(
            fn, MACHINE, use_regions=True
        )
        without = build_parallel_interference_graph(
            fn, MACHINE, use_regions=False
        )
        def stats(pig):
            return {
                "false_only": len(pig.false_only_edges()),
                "shared": len(pig.shared_edges()),
                "interference": len(pig.interference_edges()),
            }
        return stats(with_regions), stats(without)

    regional, blockwise = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "E6b: global PIG edge census",
        [
            dict(form="regions", **regional),
            dict(form="per-block", **blockwise),
        ],
    )
    # The region form strictly gains cross-block false edges here (the
    # fixed-point chain of block a can co-issue with the float chain
    # of block b), while the per-block form sees none.
    assert (
        regional["false_only"] + regional["shared"]
        > blockwise["false_only"] + blockwise["shared"]
    )


def test_e6_global_allocation_correct(benchmark, emit):
    fn = diamond_chain(3, block_size=6, seed=5)
    allocator = PinterAllocator(MACHINE, num_registers=10)

    outcome = benchmark(allocator.run, fn)

    emit(
        "E6c: global allocation of a 3-diamond CFG",
        [{
            "registers": outcome.registers_used,
            "spill_ops": outcome.spill_operations,
            "false_deps": len(outcome.false_dependences),
            "cycles": outcome.total_cycles,
        }],
    )
    assert outcome.false_dependences == []
    assert equivalent(fn, outcome.allocated_function)
