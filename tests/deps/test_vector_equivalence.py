"""Vector dependence kernel vs the bitset kernel and the reference.

The property mirrors tests/deps/test_bitset_equivalence.py one engine
up the ladder: over fuzzed (function, machine) combinations, the
packed-word vector kernel (:mod:`repro.deps.vector`) produces exactly
the E_t, E_f, closure-reach and web-projection results of both the
big-int bitset kernel and the frozen set-based reference.

PIG comparisons key on ``web.index`` (webs from independent builds
are not ``==`` because live-out pseudo-uses get fresh uids per
build).
"""

import pytest

from repro.core.parallel_interference import build_parallel_interference_graph
from repro.deps.bitset import DependenceBitKernel
from repro.deps.reference import reference_false_dependence_graph
from repro.deps.schedule_graph import (
    build_schedule_graph,
    region_schedule_graph,
)
from repro.deps.vector import (
    VectorDependenceKernel,
    pack_rows,
    rows_from_hex,
    rows_to_hex,
    unpack_rows,
    web_pair_hits,
)
from repro.analysis.regions import schedule_regions
from repro.frontend import compile_source
from repro.machine.presets import single_issue, two_unit_superscalar
from repro.workloads import (
    RandomBlockConfig,
    SourceFuzzConfig,
    random_block,
    random_source,
)
from repro.workloads.generator import diamond_chain

MACHINES = [
    pytest.param(single_issue, id="single-issue"),
    pytest.param(two_unit_superscalar, id="two-unit"),
]


def _corpus():
    """Random blocks (single region) + fuzzed sources (cross-region
    webs) + a diamond chain (many regions, webs spanning them)."""
    for seed in range(12):
        size = 6 + (seed * 7) % 30
        yield "block-{}".format(seed), random_block(
            RandomBlockConfig(size=size, window=3 + seed % 6, seed=seed)
        )
    for seed in range(8):
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
    yield "diamond", diamond_chain(num_diamonds=4, block_size=9, seed=2)


def _region_graphs(fn, machine):
    for region in schedule_regions(fn):
        sg = region_schedule_graph(fn, region.blocks, machine=machine)
        if sg.instructions:
            yield sg


def _edge_signature(pig):
    return {
        frozenset((a.index, b.index)): data["origin"]
        for a, b, data in pig.graph.edges(data=True)
    }


@pytest.mark.parametrize("preset", MACHINES)
def test_vector_kernel_matches_bitset_and_reference(preset):
    machine = preset()
    for label, fn in _corpus():
        for sg in _region_graphs(fn, machine):
            vec = VectorDependenceKernel.build(sg, machine)
            bit = DependenceBitKernel.build(sg, machine)
            ref = reference_false_dependence_graph(sg, machine)
            context = "workload={} machine={}".format(label, machine.name)
            assert vec.reach_rows == bit.reach_rows, context
            assert vec.et_rows == bit.et_rows, context
            assert vec.ef_rows == bit.ef_rows, context
            assert vec.et_pairs() == ref.et_pairs, context
            assert vec.ef_pairs() == ref.ef_pairs, context


@pytest.mark.parametrize("preset", MACHINES)
def test_pig_vector_engine_agrees(preset):
    """Same web-index edges with the same EdgeOrigin flags as both
    other engines, fuzz corpus wide."""
    machine = preset()
    for label, fn in _corpus():
        vector = build_parallel_interference_graph(fn, machine, engine="vector")
        bitset = build_parallel_interference_graph(fn, machine, engine="bitset")
        reference = build_parallel_interference_graph(
            fn, machine, engine="reference"
        )
        context = "workload={} machine={}".format(label, machine.name)
        assert _edge_signature(vector) == _edge_signature(bitset), context
        assert _edge_signature(vector) == _edge_signature(reference), context


@pytest.mark.parametrize("preset", MACHINES)
def test_degenerate_regions(preset):
    """n=0 and n=1 universes on the vector engine."""
    machine = preset()

    empty = build_schedule_graph([], machine=machine)
    kernel = VectorDependenceKernel.build(empty, machine)
    ref = reference_false_dependence_graph(empty, machine)
    assert kernel.index.universe == 0
    assert kernel.et_pairs() == set() == ref.et_pairs
    assert kernel.ef_pairs() == set() == ref.ef_pairs

    single = random_block(RandomBlockConfig(size=1, window=1, seed=0))
    saw_singleton = False
    for sg in _region_graphs(single, machine):
        kernel = VectorDependenceKernel.build(sg, machine)
        ref = reference_false_dependence_graph(sg, machine)
        n = len(sg.instructions)
        saw_singleton = saw_singleton or n == 1
        assert kernel.index.universe == (1 << n) - 1
        assert kernel.et_pairs() == ref.et_pairs
        assert kernel.ef_pairs() == ref.ef_pairs
    assert saw_singleton


def test_pack_unpack_roundtrip():
    rows = [0, 1, (1 << 64) | 5, (1 << 130) - 1]
    n = 131
    packed = pack_rows(rows, n)
    assert list(unpack_rows(packed, n)) == rows
    assert rows_from_hex(rows_to_hex(rows)) == rows


def test_web_pair_hits_matches_big_int_scan():
    """The vectorized projection and its as_arrays variant agree with
    a brute-force big-int reference."""
    machine = two_unit_superscalar()
    fn = random_block(RandomBlockConfig(size=40, window=6, seed=11))
    sg = build_schedule_graph(fn.entry.instructions, machine=machine)
    kernel = VectorDependenceKernel.build(sg, machine)
    n = len(kernel.index)
    masks = [1 << i for i in range(0, n, 3)]
    # Reference result computed with plain big-int arithmetic.
    expected = []
    for a in range(len(masks)):
        row = 0
        for i in range(n):
            if masks[a] >> i & 1:
                row |= kernel.ef_rows[i]
        expected.append(
            [b for b in range(a + 1, len(masks)) if row & masks[b]]
        )
    fast = web_pair_hits(kernel.ef_rows, masks, n)
    assert [list(hits) for hits in fast] == expected
    as_arrays = web_pair_hits(kernel.ef_rows, masks, n, as_arrays=True)
    assert [list(hits) for hits in as_arrays] == expected
