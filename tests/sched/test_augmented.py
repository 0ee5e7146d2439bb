"""Tests for the augmented-graph scheduler (E_f as availability list)."""

import pytest

from repro.deps.false_dependence import block_false_dependence_graph
from repro.deps.schedule_graph import block_schedule_graph
from repro.deps.transitive import ordered_pair
from repro.machine.presets import single_issue, two_unit_superscalar
from repro.sched.augmented import compact_augmented_schedule
from repro.sched.list_scheduler import list_schedule
from repro.workloads import (
    ALL_KERNELS,
    RandomBlockConfig,
    example1,
    example1_machine_model,
    example2,
    example2_machine_model,
    random_block,
)


def schedule_pair(fn, machine):
    sg = block_schedule_graph(fn.entry, machine=machine)
    fdg = block_false_dependence_graph(fn.entry, machine)
    return sg, fdg, compact_augmented_schedule(sg, fdg, machine)


class TestAugmentedScheduler:
    def test_legal_on_example2(self):
        fn = example2()
        machine = example2_machine_model()
        sg, fdg, schedule = schedule_pair(fn, machine)
        schedule.verify(sg)  # also done internally

    def test_coissues_only_ef_pairs(self):
        """The defining property: every same-cycle pair is an E_f pair."""
        fn = example2()
        machine = example2_machine_model()
        _sg, fdg, schedule = schedule_pair(fn, machine)
        for a, b in schedule.parallel_pairs():
            assert ordered_pair(a, b) in fdg.ef_pairs

    def test_matches_list_scheduler_on_examples(self):
        for fn, machine in (
            (example1(), example1_machine_model()),
            (example2(), example2_machine_model()),
        ):
            sg = block_schedule_graph(fn.entry, machine=machine)
            fdg = block_false_dependence_graph(fn.entry, machine)
            augmented = compact_augmented_schedule(sg, fdg, machine)
            plain = list_schedule(sg, machine)
            assert augmented.makespan == plain.makespan

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS), ids=str)
    def test_kernels_near_plain_scheduler(self, name):
        fn = ALL_KERNELS[name]()
        machine = two_unit_superscalar()
        sg = block_schedule_graph(fn.entry, machine=machine)
        fdg = block_false_dependence_graph(fn.entry, machine)
        augmented = compact_augmented_schedule(sg, fdg, machine)
        plain = list_schedule(sg, machine)
        # same availability information -> same quality (small slack
        # for greedy tie-break differences).
        assert augmented.makespan <= plain.makespan + 2

    def test_single_issue_serializes(self):
        fn = example2()
        machine = single_issue()
        sg = block_schedule_graph(fn.entry, machine=machine)
        fdg = block_false_dependence_graph(fn.entry, machine)
        schedule = compact_augmented_schedule(sg, fdg, machine)
        assert schedule.parallel_pairs() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_random_blocks(self, seed):
        fn = random_block(RandomBlockConfig(size=20, seed=seed))
        machine = two_unit_superscalar()
        sg, fdg, schedule = schedule_pair(fn, machine)
        for a, b in schedule.parallel_pairs():
            assert ordered_pair(a, b) in fdg.ef_pairs
