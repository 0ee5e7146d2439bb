"""Equivalence and degenerate-case tests for the back-end kernels
(:mod:`repro.regalloc.compact`).

The contract under test: every kernel — interference bitrows, worklist
Chaitin/Briggs coloring and its ``networkx`` adapters, the Chaitin
allocation loop — is *bit-identical* to the frozen oracle it replaced
(``regalloc_oracle.py``), not merely as good.
"""

import functools

import networkx as nx
import pytest

from regalloc_oracle import (
    oracle_briggs_color,
    oracle_build_interference_graph,
    oracle_chaitin_allocate,
    oracle_chaitin_color,
)
from repro.core.parallel_interference import build_parallel_interference_graph
from repro.machine.presets import two_unit_superscalar
from repro.regalloc.briggs import briggs_color
from repro.regalloc.chaitin import chaitin_color, classic_h, validate_coloring
from repro.regalloc.compact import (
    CompactGraph,
    build_compact_interference,
    chaitin_allocate,
    compact_chaitin_color,
    compact_classic_h,
    compact_graph_from_nx,
)
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.spill import make_cost_function
from repro.utils.errors import AllocationError
from repro.frontend import compile_source
from repro.workloads import (
    SourceFuzzConfig,
    example1,
    example2,
    figure6_diamond,
    random_source,
)
from repro.workloads.generator import (
    RandomBlockConfig,
    diamond_chain,
    random_block,
)


def _paper_functions():
    return [example1(), example2(), figure6_diamond()]


def _random_functions():
    return [
        random_block(RandomBlockConfig(size=size, window=window, seed=seed))
        for size, window, seed in [
            (30, 6, 1), (60, 10, 2), (90, 16, 3), (50, 50, 4)
        ]
    ]


def _multi_block_functions():
    """CFGs whose blocks are entered with locally defined registers
    live, so the build runs the reaching-definition owner lookup."""
    fns = [diamond_chain(num_diamonds=5, block_size=6, seed=3)]
    for seed in (6, 9):  # each program has two loops
        config = SourceFuzzConfig(
            num_statements=10, if_probability=0.3, while_probability=0.5,
            seed=seed,
        )
        fns.append(
            compile_source(random_source(config), name="loops{}".format(seed))
        )
    return fns


# ----------------------------------------------------------------------
# Interference equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "fn",
    _paper_functions() + _random_functions() + _multi_block_functions(),
    ids=lambda f: f.name,
)
def test_interference_edges_match_reference(fn):
    ref = oracle_build_interference_graph(fn)
    compact = build_compact_interference(fn)
    ref_edges = {(a.index, b.index) for a, b in ref.edge_list()}
    assert set(compact.graph.edge_list()) == ref_edges
    # Degrees stay in sync with the rows.
    for i, row in enumerate(compact.graph.adj):
        assert compact.graph.degree[i] == bin(row).count("1")


@pytest.mark.parametrize("fn", _paper_functions(), ids=lambda f: f.name)
def test_intervals_match_reference(fn):
    ref = oracle_build_interference_graph(fn)
    compact = build_compact_interference(fn)
    assert [w.index for w in compact.webs] == [w.index for w in ref.webs]
    for web_c, web_r in zip(compact.webs, ref.webs):
        got = [
            (iv.block, iv.start, iv.end)
            for iv in compact.intervals_of[web_c]
        ]
        want = [
            (iv.block, iv.start, iv.end) for iv in ref.intervals_of[web_r]
        ]
        assert got == want


def test_to_reference_round_trip():
    fn = example2()
    compact = build_compact_interference(fn)
    ref = oracle_build_interference_graph(fn)
    assert compact.to_reference().edge_list() == ref.edge_list()
    assert build_interference_graph(fn).edge_list() == ref.edge_list()


# ----------------------------------------------------------------------
# Coloring equivalence (the graph-domain kernels)
# ----------------------------------------------------------------------


def _random_nx_graphs():
    import random

    graphs = []
    rng = random.Random(1234)
    for n, p in [(0, 0.0), (1, 0.0), (8, 0.3), (16, 0.25), (24, 0.15),
                 (12, 0.9), (20, 0.5)]:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    g.add_edge(a, b)
        graphs.append(g)
    return graphs


@pytest.mark.parametrize("num_colors", [1, 2, 3, 5])
def test_compact_chaitin_matches_reference_on_random_graphs(num_colors):
    for g in _random_nx_graphs():
        compact, nodes = compact_graph_from_nx(g)
        got = compact_chaitin_color(compact, num_colors).to_result(nodes)
        want = oracle_chaitin_color(g, num_colors)
        assert got.coloring == want.coloring
        assert got.spilled == want.spilled
        assert got.selection_order == want.selection_order


@pytest.mark.parametrize("num_colors", [1, 2, 3, 5])
def test_compact_briggs_matches_reference_on_random_graphs(num_colors):
    for g in _random_nx_graphs():
        compact, nodes = compact_graph_from_nx(g)
        got = compact_chaitin_color(
            compact, num_colors, optimistic=True
        ).to_result(nodes)
        want = oracle_briggs_color(g, num_colors)
        assert got.coloring == want.coloring
        assert got.spilled == want.spilled
        assert got.selection_order == want.selection_order


def test_zero_webs():
    g = CompactGraph.empty(0)
    result = compact_chaitin_color(g, 4)
    assert result.colors == [] and result.spilled == []


def test_single_color_path_graph():
    # k=1 on a path: every edge forces a spill of one endpoint.
    g = nx.path_graph(6)
    compact, nodes = compact_graph_from_nx(g)
    got = compact_chaitin_color(compact, 1).to_result(nodes)
    want = oracle_chaitin_color(g, 1)
    assert got.spilled == want.spilled
    assert got.coloring == want.coloring
    validate_coloring(g.subgraph(got.coloring), got.coloring)


def test_clique_forces_maximal_spill():
    # K_8 with 3 colors: exactly 5 spills, lowest-index victims first
    # under the uniform metric (h is identical for every node).
    g = nx.complete_graph(8)
    compact, nodes = compact_graph_from_nx(g)
    got = compact_chaitin_color(compact, 3).to_result(nodes)
    want = oracle_chaitin_color(g, 3)
    assert len(got.spilled) == 5
    assert got.spilled == want.spilled
    assert got.coloring == want.coloring


def test_allow_spill_false_raises():
    compact, _nodes = compact_graph_from_nx(nx.complete_graph(4))
    with pytest.raises(AllocationError):
        compact_chaitin_color(compact, 2, allow_spill=False)


def test_infinite_metric_nodes_are_never_victims():
    compact, _nodes = compact_graph_from_nx(nx.complete_graph(3))
    metric = [float("inf")] * 3
    with pytest.raises(AllocationError, match="irreducible"):
        compact_chaitin_color(compact, 1, spill_metric=metric)


def test_metric_matches_reference_h():
    g = nx.complete_graph(5)
    g.add_node(99)  # isolated: infinite h on both sides
    compact, nodes = compact_graph_from_nx(g)
    ref_metric = classic_h(g, lambda _n: 1.0)
    got = compact_classic_h(compact)
    for i, node in enumerate(nodes):
        assert got[i] == ref_metric(node)


# ----------------------------------------------------------------------
# The networkx adapters on web graphs, with and without a cost metric
# ----------------------------------------------------------------------


def _adapter_functions():
    fns = [
        example1(),
        example2(),
        figure6_diamond(),
        diamond_chain(num_diamonds=4, block_size=7, seed=1),
    ]
    for size, window in [(40, 8), (64, 96), (96, 16)]:
        fns.append(random_block(RandomBlockConfig(
            size=size, window=window, load_fraction=0.3, seed=size,
        )))
    return {fn.name: fn for fn in fns}


ADAPTER_FUNCTIONS = _adapter_functions()


@functools.lru_cache(maxsize=None)
def _adapter_graph(name, kind):
    fn = ADAPTER_FUNCTIONS[name]
    if kind == "ig":
        return build_interference_graph(fn).graph
    return build_parallel_interference_graph(fn, two_unit_superscalar()).graph


@pytest.mark.parametrize("num_colors", [2, 4, 8, 16])
@pytest.mark.parametrize("kind", ["ig", "pig"])
@pytest.mark.parametrize("name", list(ADAPTER_FUNCTIONS))
def test_adapters_match_oracles_on_web_graphs(name, kind, num_colors):
    graph = _adapter_graph(name, kind)
    cost_metric = classic_h(graph, make_cost_function(ADAPTER_FUNCTIONS[name]))
    for metric in (None, cost_metric):
        for adapter, oracle in (
            (chaitin_color, oracle_chaitin_color),
            (briggs_color, oracle_briggs_color),
        ):
            got = adapter(graph, num_colors, metric)
            want = oracle(graph, num_colors, metric)
            case = (adapter.__name__, metric is not None)
            assert got.coloring == want.coloring, case
            assert got.spilled == want.spilled, case
            assert got.selection_order == want.selection_order, case


# ----------------------------------------------------------------------
# Property test: the allocation loop == the oracle loop over a corpus
# ----------------------------------------------------------------------


def _canonical(prepared, assignment):
    """(text, name→register) with reload temporaries renumbered in
    first-appearance order — the global ``_RELOAD_COUNTER`` makes raw
    reload names differ across otherwise-identical allocation runs."""
    import re

    from repro.ir.printer import format_function

    rename: dict = {}

    def repl(match):
        return rename.setdefault(match.group(0), ".RL{}".format(len(rename)))

    text = re.sub(r"\.rl\d+", repl, format_function(prepared))
    mapping = {
        re.sub(r"\.rl\d+", lambda m: rename.get(m.group(0), m.group(0)), k): v
        for k, v in assignment.mapping_by_name().items()
    }
    return text, mapping


def _allocation_inputs():
    params = [
        pytest.param(
            random_block(RandomBlockConfig(
                size=40 + 5 * seed, window=6 + seed, seed=seed
            )),
            id=str(seed),
        )
        for seed in range(8)
    ]
    params += [
        pytest.param(fn, id=fn.name) for fn in _multi_block_functions()
    ]
    return params


@pytest.mark.parametrize("fn", _allocation_inputs())
def test_property_allocation_matches_reference(fn):
    for registers in (3, 5):
        prepared_c, assign_c, ops_c = chaitin_allocate(fn.copy(), registers)
        prepared_r, assign_r, ops_r = oracle_chaitin_allocate(
            fn.copy(), registers
        )
        assert ops_c == ops_r
        text_c, map_c = _canonical(prepared_c, assign_c)
        text_r, map_r = _canonical(prepared_r, assign_r)
        assert text_c == text_r
        assert map_c == map_r
