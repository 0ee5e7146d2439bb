"""Bitset dependence kernel vs the retained set-based reference.

The property: over fuzzed (function, machine) combinations, the
word-parallel kernel (:mod:`repro.deps.bitset`) produces exactly the
E_t, E_f, contention and web-projection results of the frozen
reference pipeline (:mod:`repro.deps.reference`).

Coverage: 3 machine presets x (40 random straight-line blocks + 30
multi-block fuzzed source programs + one diamond chain with webs
spanning many regions) = 213 combinations, beyond the 200 the
acceptance criteria require.  PIG comparisons key on
``web.index`` (webs from independent builds are not ``==`` because
live-out pseudo-uses get fresh uids per build).
"""

import pytest

from repro.core.parallel_interference import build_parallel_interference_graph
from repro.deps.bitset import DependenceBitKernel
from repro.deps.reference import (
    reference_contention_pairs,
    reference_false_dependence_graph,
    reference_transitive_closure_pairs,
)
from repro.deps.schedule_graph import (
    build_schedule_graph,
    region_schedule_graph,
)
from repro.deps.transitive import ordered_pair, transitive_closure_pairs
from repro.analysis.regions import schedule_regions
from repro.frontend import compile_source
from repro.machine.presets import single_issue, two_unit_superscalar, wide_issue
from repro.machine.resources import contention_rows
from repro.utils.bits import iter_bits
from repro.workloads import (
    RandomBlockConfig,
    SourceFuzzConfig,
    diamond_chain,
    random_block,
    random_source,
)

MACHINES = [
    pytest.param(single_issue, id="single-issue"),
    pytest.param(two_unit_superscalar, id="two-unit"),
    pytest.param(wide_issue, id="wide-issue"),
]

RANDOM_BLOCK_SEEDS = range(40)
SOURCE_FUZZ_SEEDS = range(30)


def _random_block_functions():
    for seed in RANDOM_BLOCK_SEEDS:
        size = 6 + (seed * 7) % 30
        window = 3 + seed % 6
        yield "block-{}".format(seed), random_block(
            RandomBlockConfig(size=size, window=window, seed=seed)
        )


def _fuzzed_source_functions():
    for seed in SOURCE_FUZZ_SEEDS:
        config = SourceFuzzConfig(
            num_inputs=2 + seed % 3,
            num_statements=4 + seed % 8,
            if_probability=0.4,
            while_probability=0.2,
            seed=seed,
        )
        yield "fuzz-{}".format(seed), compile_source(
            random_source(config), name="fuzz{}".format(seed)
        )


def _all_functions():
    yield from _random_block_functions()
    yield from _fuzzed_source_functions()
    yield "diamond", diamond_chain(num_diamonds=4, block_size=9, seed=2)


def _region_graphs(fn, machine):
    for region in schedule_regions(fn):
        sg = region_schedule_graph(fn, region.blocks, machine=machine)
        if sg.instructions:
            yield sg


def _contention_pairs_from_rows(instructions, machine):
    rows = contention_rows(instructions, machine)
    pairs = set()
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            if j > i:
                pairs.add(ordered_pair(instructions[i], instructions[j]))
    return pairs


@pytest.mark.parametrize("preset", MACHINES)
def test_kernel_et_ef_match_reference(preset):
    """E_t, E_f, closure and contention agree for every combo."""
    machine = preset()
    checked = 0
    for label, fn in _all_functions():
        for sg in _region_graphs(fn, machine):
            kernel = DependenceBitKernel.build(sg, machine)
            ref = reference_false_dependence_graph(sg, machine)
            context = "workload={} machine={}".format(label, machine.name)
            assert kernel.et_pairs() == ref.et_pairs, context
            assert kernel.ef_pairs() == ref.ef_pairs, context
            assert transitive_closure_pairs(sg) == (
                reference_transitive_closure_pairs(sg)
            ), context
            assert _contention_pairs_from_rows(sg.instructions, machine) == {
                ordered_pair(a, b)
                for a, b in reference_contention_pairs(sg.instructions, machine)
            }, context
        checked += 1
    assert checked == len(RANDOM_BLOCK_SEEDS) + len(SOURCE_FUZZ_SEEDS) + 1


def _edge_signature(pig):
    return {
        frozenset((a.index, b.index)): data["origin"]
        for a, b, data in pig.graph.edges(data=True)
    }


@pytest.mark.parametrize("preset", MACHINES)
def test_pig_engines_agree(preset):
    """Both engines build the same PIG: same web-index edges with the
    same EdgeOrigin flags, and the same projected false-edge sets."""
    machine = preset()
    for label, fn in _all_functions():
        bitset = build_parallel_interference_graph(fn, machine, engine="bitset")
        reference = build_parallel_interference_graph(
            fn, machine, engine="reference"
        )
        context = "workload={} machine={}".format(label, machine.name)
        assert _edge_signature(bitset) == _edge_signature(reference), context


@pytest.mark.parametrize("preset", MACHINES)
def test_degenerate_regions_match_reference(preset):
    """n=0 and n=1 regions: empty/one-bit universes, and the kernel's
    pair sets still agree exactly with the reference."""
    machine = preset()

    empty = build_schedule_graph([], machine=machine)
    kernel = DependenceBitKernel.build(empty, machine)
    ref = reference_false_dependence_graph(empty, machine)
    assert kernel.index.universe == 0
    assert kernel.et_pairs() == set() == ref.et_pairs
    assert kernel.ef_pairs() == set() == ref.ef_pairs
    assert kernel.ef_edge_count() == 0

    single = random_block(RandomBlockConfig(size=1, window=1, seed=0))
    saw_singleton = False
    for sg in _region_graphs(single, machine):
        kernel = DependenceBitKernel.build(sg, machine)
        ref = reference_false_dependence_graph(sg, machine)
        n = len(sg.instructions)
        saw_singleton = saw_singleton or n == 1
        assert kernel.index.universe == (1 << n) - 1
        assert kernel.et_pairs() == ref.et_pairs
        assert kernel.ef_pairs() == ref.ef_pairs
        if n == 1:
            # A lone instruction has no pairs of either kind.
            assert kernel.et_pairs() == set()
            assert kernel.ef_pairs() == set()
    assert saw_singleton


def test_combo_count_meets_acceptance():
    """3 machine presets x 71 functions >= 200 fuzzed combinations."""
    functions = sum(1 for _ in _all_functions())
    assert functions * len(MACHINES) >= 200
