"""Tests for whole-function dependence reachability (transit edges)."""

import random

import networkx as nx
import pytest

from repro.deps.global_deps import (
    _ancestor_masks,
    function_dependence_graph,
    transit_dependence_pairs,
)
from repro.deps.schedule_graph import region_schedule_graph
from repro.deps.false_dependence import false_dependence_graph
from repro.deps.transitive import ordered_pair, transitive_closure_pairs
from repro.frontend import compile_source
from repro.ir.builder import FunctionBuilder
from repro.machine.presets import two_unit_superscalar
from repro.workloads import example2, figure6_diamond

MACHINE = two_unit_superscalar()

#: The pattern that motivated the module: a value loaded before an if,
#: forwarded through an arm, consumed after the join.
TRANSIT_SRC = (
    "input lo;"
    "v = data[0];"
    "if (v < lo) { w = lo; } else { w = v; }"
    "y = w + 1;"
    "output y;"
)


class TestFunctionDependenceGraph:
    def test_single_block_matches_local_deps(self):
        fn = example2()
        graph = function_dependence_graph(fn)
        # flow edges of example2 are present.
        instrs = fn.entry.instructions
        assert graph.has_edge(instrs[0], instrs[2])  # s1 -> s3

    def test_cross_block_flow_edges(self):
        fn = figure6_diamond()
        graph = function_dependence_graph(fn)
        arm_defs = [
            i for name in ("left", "right") for i in fn.block(name) if i.dests
        ]
        join_use = fn.block("join").instructions[0]
        for d in arm_defs:
            assert graph.has_edge(d, join_use)

    def test_cross_block_memory_ordering(self):
        fb = FunctionBuilder("f")
        a = fb.block("a", entry=True)
        v = a.loadi(1)
        a.store(v, "cell")
        a.br("b")
        b = fb.block("b")
        loaded = b.load("cell")
        b.ret()
        fb.edge("a", "b")
        fn = fb.function(live_out=[loaded])
        graph = function_dependence_graph(fn)
        store = fn.block("a").instructions[1]
        load = fn.block("b").instructions[0]
        assert graph.has_edge(store, load)


class TestAncestorMasks:
    @pytest.mark.parametrize("seed", range(40))
    def test_masks_match_networkx_ancestors(self, seed):
        """The SCC pass agrees with a BFS per node on cyclic graphs,
        self-loops included: a node's mask holds exactly the other
        nodes that reach it."""
        rng = random.Random(seed)
        graph = nx.gnp_random_graph(
            rng.randrange(1, 40), rng.uniform(0.0, 0.12),
            seed=seed, directed=True,
        )
        for node in rng.sample(list(graph), min(3, len(graph))):
            graph.add_edge(node, node)
        index, masks = _ancestor_masks(graph)
        for node in graph:
            expected = sum(
                1 << index[other]
                for other in nx.ancestors(graph, node)
                if other != node
            )
            assert masks[node] == expected

    def test_masks_cached_on_graph(self):
        graph = function_dependence_graph(compile_source(TRANSIT_SRC))
        assert _ancestor_masks(graph) is _ancestor_masks(graph)


class TestTransitPairs:
    def test_transit_through_arm_detected(self):
        fn = compile_source(TRANSIT_SRC)
        blocks = fn.block_names()
        # the entry (with the data load) and the join+tail blocks are
        # control-equivalent; the load reaches the post-join add only
        # through the arm movs.
        entry_load = next(
            i for i in fn.entry if i.opcode.is_load and i.memory_symbols()
        )
        join_blocks = [n for n in blocks if n.startswith("join")]
        assert join_blocks
        join_add = next(
            i
            for i in fn.block(join_blocks[0])
            if i.opcode.mnemonic == "add"
        )
        region_instrs = list(fn.entry.instructions) + list(
            fn.block(join_blocks[0]).instructions
        )
        pairs = transit_dependence_pairs(fn, region_instrs)
        assert (entry_load, join_add) in pairs

    def test_pairs_respect_order(self):
        fn = compile_source(TRANSIT_SRC)
        instrs = list(fn.instructions())
        position = {i: idx for idx, i in enumerate(instrs)}
        for u, v in transit_dependence_pairs(fn, instrs):
            assert position[u] < position[v]


class TestRegionSoundness:
    def test_region_et_includes_transit_pair(self):
        """The through-the-arm dependence must land in the region's
        E_t, never in E_f — the load and the post-join consumer can
        never co-issue."""
        fn = compile_source(TRANSIT_SRC)
        from repro.analysis.regions import schedule_regions

        for region in schedule_regions(fn):
            if len(region.blocks) < 2:
                continue
            sg = region_schedule_graph(fn, region.blocks, machine=MACHINE)
            fdg = false_dependence_graph(sg, MACHINE)
            loads = [
                i for i in sg.instructions
                if i.opcode.is_load and i.memory_symbols()
            ]
            consumers = [
                i for i in sg.instructions
                if i.dests and str(i.dest).startswith("s")
                and not i.opcode.is_load
            ]
            closure = transitive_closure_pairs(sg)
            for load in loads:
                for consumer in consumers:
                    if ordered_pair(load, consumer) in closure:
                        assert not fdg.has_false_edge(load, consumer)

    def test_clamp_pattern_verifies_clean(self):
        """Regression: the clamp kernel used to report a phantom false
        flow dependence because the region E_f ignored the arm movs."""
        from repro.core import PinterAllocator
        from repro.opt import optimize
        from repro.workloads.source_kernels import ALL_SOURCE_KERNELS

        kernel = ALL_SOURCE_KERNELS["clamp_sum"]
        fn = compile_source(kernel.source)
        optimize(fn)
        outcome = PinterAllocator(
            MACHINE, num_registers=10, coalesce=True
        ).run(fn)
        assert outcome.false_dependences == []
