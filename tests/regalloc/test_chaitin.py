"""Tests for the Chaitin coloring engine."""

import networkx as nx
import pytest

from repro.regalloc.chaitin import (
    chaitin_color,
    classic_h,
    exact_chromatic_number,
    greedy_chromatic_upper_bound,
    uniform_cost,
    validate_coloring,
)
from repro.utils.errors import AllocationError


def cycle_graph(n):
    g = nx.Graph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def complete_graph(n):
    g = nx.Graph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


class TestChaitinColor:
    def test_empty_graph(self):
        result = chaitin_color(nx.Graph(), 4)
        assert result.coloring == {}
        assert not result.has_spills

    def test_triangle_needs_three(self):
        result = chaitin_color(complete_graph(3), 3)
        assert not result.has_spills
        assert result.num_colors_used == 3
        validate_coloring(complete_graph(3), result.coloring)

    def test_triangle_with_two_spills(self):
        result = chaitin_color(complete_graph(3), 2)
        assert len(result.spilled) == 1

    def test_even_cycle_pessimistic_spill(self):
        """Chaitin simplification is pessimistic: a 2-colorable even
        cycle cannot be simplified with r=2 (every degree is 2), so a
        spill occurs — with r=3 it colors cleanly."""
        g = cycle_graph(6)
        stuck = chaitin_color(g, 2)
        assert stuck.has_spills
        result = chaitin_color(g, 3)
        assert not result.has_spills
        validate_coloring(g, result.coloring)

    def test_spill_metric_guides_choice(self):
        g = complete_graph(3)
        costs = {0: 100.0, 1: 1.0, 2: 100.0}
        result = chaitin_color(
            g, 2, spill_metric=lambda n: costs[n] / g.degree(n)
        )
        assert result.spilled == [1]

    def test_no_spill_flag_raises(self):
        with pytest.raises(AllocationError):
            chaitin_color(complete_graph(4), 3, allow_spill=False)

    def test_infinite_metric_nodes_protected(self):
        g = complete_graph(3)
        metric = lambda n: float("inf") if n == 0 else 1.0  # noqa: E731
        result = chaitin_color(g, 2, spill_metric=metric)
        assert 0 not in result.spilled

    def test_all_infinite_raises(self):
        with pytest.raises(AllocationError):
            chaitin_color(
                complete_graph(3), 2, spill_metric=lambda n: float("inf")
            )

    def test_deterministic(self):
        g = cycle_graph(9)
        a = chaitin_color(g, 2)
        b = chaitin_color(g, 2)
        assert a.coloring == b.coloring
        assert a.spilled == b.spilled

    def test_graph_not_mutated(self):
        g = complete_graph(4)
        edges_before = set(g.edges())
        chaitin_color(g, 2)
        assert set(g.edges()) == edges_before


class TestChromaticBounds:
    def test_exact_on_known_graphs(self):
        assert exact_chromatic_number(nx.Graph()) == 0
        assert exact_chromatic_number(complete_graph(4)) == 4
        assert exact_chromatic_number(cycle_graph(5)) == 3  # odd cycle
        assert exact_chromatic_number(cycle_graph(6)) == 2

    def test_exact_single_node(self):
        g = nx.Graph()
        g.add_node("solo")
        assert exact_chromatic_number(g) == 1

    def test_exact_rejects_large(self):
        with pytest.raises(AllocationError):
            exact_chromatic_number(cycle_graph(100), node_limit=40)

    def test_greedy_upper_bound(self):
        g = cycle_graph(7)
        assert greedy_chromatic_upper_bound(g) >= exact_chromatic_number(g)
        assert greedy_chromatic_upper_bound(nx.Graph()) == 0


class TestValidate:
    def test_detects_conflict(self):
        g = complete_graph(2)
        with pytest.raises(AllocationError):
            validate_coloring(g, {0: 1, 1: 1})

    def test_partial_coloring_ok(self):
        validate_coloring(complete_graph(3), {0: 0})


class TestMetrics:
    def test_classic_h(self):
        g = complete_graph(3)
        h = classic_h(g, uniform_cost)
        assert h(0) == pytest.approx(0.5)

    def test_classic_h_isolated(self):
        g = nx.Graph()
        g.add_node("x")
        h = classic_h(g, uniform_cost)
        assert h("x") == float("inf")
