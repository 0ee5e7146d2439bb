"""Tests for the theorem checkers and the end-to-end PinterAllocator."""

import pytest

from repro.core.allocator import PinterAllocator
from repro.core.coloring import pinter_color
from repro.core.parallel_interference import build_parallel_interference_graph
from repro.core.theorems import check_theorem1, check_theorem2_edge
from repro.ir import equivalent, verify_function
from repro.machine.presets import single_issue, two_unit_superscalar
from repro.utils.errors import AllocationError
from repro.workloads import (
    diamond_chain,
    dot_product,
    example1,
    example1_machine_model,
    example2,
    example2_machine_model,
    figure6_diamond,
    independent_chains,
)


class TestTheorem1:
    def test_example1(self):
        pig = build_parallel_interference_graph(
            example1(), example1_machine_model()
        )
        result = pinter_color(pig, 3)
        assert check_theorem1(pig, result.coloring) == []

    def test_example2(self):
        pig = build_parallel_interference_graph(
            example2(), example2_machine_model()
        )
        result = pinter_color(pig, 4)
        assert check_theorem1(pig, result.coloring) == []

    def test_incomplete_coloring_rejected(self):
        pig = build_parallel_interference_graph(
            example2(), example2_machine_model()
        )
        result = pinter_color(pig, 4)
        partial = dict(result.coloring)
        partial.popitem()
        with pytest.raises(AllocationError):
            check_theorem1(pig, partial)

    def test_improper_coloring_rejected(self):
        pig = build_parallel_interference_graph(
            example2(), example2_machine_model()
        )
        result = pinter_color(pig, 4)
        bad = {w: 0 for w in result.coloring}
        with pytest.raises(AllocationError):
            check_theorem1(pig, bad)


class TestTheorem2:
    def _merged_coloring(self, pig, u, v):
        """A proper coloring of G - {u,v} with C(u) = C(v): give the
        pair a fresh private color and color the rest exactly."""
        work = pig.graph.copy()
        work.remove_edge(u, v)
        from repro.regalloc.chaitin import exact_chromatic_number
        import networkx as nx

        merged = nx.Graph()
        label = {}
        for node in work.nodes():
            label[node] = u if node is v else node
        for a, b in work.edges():
            la, lb = label[a], label[b]
            if la is not lb:
                merged.add_edge(la, lb)
        for node in set(label.values()):
            merged.add_node(node)
        chi = exact_chromatic_number(merged)
        order = sorted(merged.nodes(), key=lambda w: w.index)
        coloring = None
        # simple exact coloring via chaitin on enough colors
        from repro.regalloc.chaitin import chaitin_color

        result = chaitin_color(merged, merged.number_of_nodes() + 1)
        coloring = dict(result.coloring)
        coloring[v] = coloring[u]
        for node in pig.webs:
            coloring.setdefault(node, 0)
        return coloring

    def test_false_edge_merge_yields_false_dependence(self):
        pig = build_parallel_interference_graph(
            example1(), example1_machine_model()
        )
        webs = {str(w.register): w for w in pig.webs}
        edge = (webs["s2"], webs["s4"])  # the false-only edge
        coloring = self._merged_coloring(pig, *edge)
        witness = check_theorem2_edge(pig, edge, coloring)
        assert witness.outcome == "false_dependence"
        assert witness.violations

    def test_interference_edge_merge_yields_spill(self):
        pig = build_parallel_interference_graph(
            example1(), example1_machine_model()
        )
        webs = {str(w.register): w for w in pig.webs}
        edge = (webs["s1"], webs["s3"])  # interference-only
        coloring = self._merged_coloring(pig, *edge)
        witness = check_theorem2_edge(pig, edge, coloring)
        assert witness.outcome == "spill"

    def test_every_edge_of_example1_is_necessary(self):
        """Theorem 2 exhaustively: removing ANY edge of G and merging
        its endpoints breaks the allocation."""
        pig = build_parallel_interference_graph(
            example1(), example1_machine_model()
        )
        for edge in pig.all_edges():
            coloring = self._merged_coloring(pig, *edge)
            witness = check_theorem2_edge(pig, edge, coloring)
            assert witness.outcome in ("spill", "false_dependence")

    def test_unmerged_coloring_rejected(self):
        pig = build_parallel_interference_graph(
            example1(), example1_machine_model()
        )
        webs = {str(w.register): w for w in pig.webs}
        edge = (webs["s2"], webs["s4"])
        result = pinter_color(pig, 3)
        with pytest.raises(AllocationError):
            check_theorem2_edge(pig, edge, result.coloring)


class TestPinterAllocator:
    def test_example1_three_registers_no_false_deps(self):
        machine = example1_machine_model()
        outcome = PinterAllocator(machine, num_registers=3).run(example1())
        assert outcome.registers_used == 3
        assert outcome.false_dependences == []
        assert outcome.spill_rounds == 0
        assert equivalent(example1(), outcome.allocated_function)

    def test_example2_four_registers(self):
        machine = example2_machine_model()
        outcome = PinterAllocator(
            machine, num_registers=4, preschedule=False
        ).run(example2())
        assert outcome.registers_used == 4
        assert outcome.false_dependences == []

    def test_spill_path_converges(self):
        from repro.workloads import fir_filter

        machine = two_unit_superscalar()
        fn = fir_filter(6)  # 12 values live across the body
        outcome = PinterAllocator(machine, num_registers=4).run(fn)
        assert outcome.spill_rounds >= 1
        assert outcome.registers_used <= 4
        assert equivalent(fn, outcome.allocated_function)
        verify_function(outcome.allocated_function)

    def test_truly_infeasible_register_count_raises(self):
        """Six simultaneously live-out values cannot fit three
        registers no matter how much is spilled — the allocator must
        report irreducible pressure rather than loop."""
        machine = two_unit_superscalar()
        fn = independent_chains(chains=6, length=2)
        with pytest.raises(AllocationError):
            PinterAllocator(machine, num_registers=3).run(fn)

    def test_not_enough_registers_raises(self):
        with pytest.raises(AllocationError):
            PinterAllocator(two_unit_superscalar(), num_registers=0)

    def test_multi_block_allocation(self):
        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=2)
        outcome = PinterAllocator(machine, num_registers=8).run(fn)
        assert equivalent(fn, outcome.allocated_function)
        assert outcome.false_dependences == []

    def test_figure6_merged_web_one_register(self):
        machine = two_unit_superscalar()
        fn = figure6_diamond()
        outcome = PinterAllocator(machine, num_registers=4).run(fn)
        allocated = outcome.allocated_function
        arm_defs = {
            instr.dest
            for name in ("left", "right")
            for instr in allocated.block(name)
            if instr.dests
        }
        assert len(arm_defs) == 1
        assert equivalent(fn, allocated)

    def test_timing_populated(self):
        machine = example2_machine_model()
        outcome = PinterAllocator(machine, num_registers=6).run(example2())
        assert outcome.total_cycles >= 1
        assert outcome.timing is not None

    def test_summary_text(self):
        machine = example2_machine_model()
        outcome = PinterAllocator(machine, num_registers=6).run(example2())
        text = outcome.summary()
        assert "registers used" in text

    def test_single_issue_machine_works(self):
        outcome = PinterAllocator(single_issue(), num_registers=4).run(
            example2()
        )
        assert outcome.false_dependences == []

    def test_original_function_untouched(self):
        fn = example2()
        before = str(fn)
        PinterAllocator(
            example2_machine_model(), num_registers=4
        ).run(fn)
        assert str(fn) == before

    def test_preschedule_flag(self):
        machine = example2_machine_model()
        fn = example2()
        with_ps = PinterAllocator(
            machine, num_registers=6, preschedule=True
        ).run(fn)
        without = PinterAllocator(
            machine, num_registers=6, preschedule=False
        ).run(fn)
        # prescheduled symbolic order differs from input order.
        ps_uids = [i.uid for i in with_ps.prepared_function.instructions()]
        raw_uids = [i.uid for i in without.prepared_function.instructions()]
        assert sorted(ps_uids) == sorted(raw_uids)
        assert ps_uids != raw_uids
