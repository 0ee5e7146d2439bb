"""The worklist ``pinter_color`` against the frozen pre-rewrite oracle.

Every field of the result must repeat exactly — selection stack,
sacrificed edges (order and orientation), spills, coloring, reduced
edge set — and so must every ``AllocationError``, over the paper's
examples, the kernel suite, random blocks under pressure and source
fuzz programs, in every mode: each ``edge_policy`` × ``optimistic`` ×
{``DEFAULT_CONFIG``, ``TRADITIONAL_CONFIG``} × bias on/off, plus
``banked_pinter_color``.  A literal anchor pins the oracle itself.
"""

import itertools
import json

import pytest

import repro.core.coloring as coloring_module
from pinter_oracle import FrozenValueModel, oracle_pinter_color
from repro.core.coloring import banked_pinter_color, pinter_color
from repro.core.edge_weights import DEFAULT_CONFIG, TRADITIONAL_CONFIG
from repro.core.parallel_interference import (
    EdgeOrigin,
    build_parallel_interference_graph,
)
from repro.core.scheduling_value import SchedulingValueModel
from repro.frontend.lower import compile_source
from repro.machine.presets import two_unit_superscalar
from repro.obs import collecting_metrics, tracing
from repro.regalloc.classes import BankedBudget
from repro.regalloc.coalesce import build_bias_map
from repro.regalloc.spill import make_cost_function
from repro.utils.errors import AllocationError
from repro.workloads import (
    ALL_KERNELS,
    RandomBlockConfig,
    SourceFuzzConfig,
    example1,
    example1_machine_model,
    example2,
    example2_machine_model,
    random_block,
    random_source,
)

MODES = list(
    itertools.product(
        ("node", "global", "lazy"),
        (False, True),
        (DEFAULT_CONFIG, TRADITIONAL_CONFIG),
        (False, True),
    )
)


def signature(result):
    """Every field of a coloring result, keyed by web index."""
    return {
        "stack": [w.index for w in result.selection_order],
        "removed": [(a.index, b.index) for a, b in result.removed_false_edges],
        "spilled": [w.index for w in result.spilled],
        "coloring": {w.index: c for w, c in result.coloring.items()},
        "reduced": sorted(
            tuple(sorted((a.index, b.index)))
            for a, b in result.reduced_graph.edges()
        ),
    }


def outcome(color, pig, r, **kwargs):
    try:
        return signature(color(pig, r, **kwargs))
    except AllocationError as exc:
        return ("AllocationError", str(exc))


def bias_for(pig):
    """The program's mov bias, or — for blocks without movs — a
    synthetic one pairing index-adjacent webs, so bias on still
    changes which free color wins."""
    bias_map = build_bias_map(pig.interference)
    if bias_map:
        return bias_map
    webs = sorted(pig.graph.nodes(), key=lambda w: w.index)
    return {a: [b] for a, b in zip(webs, webs[1:])}


def assert_matches_oracle(pig, r, cost=None):
    bias_map = bias_for(pig)
    for policy, optimistic, config, biased in MODES:
        kwargs = dict(
            cost=cost,
            weight_config=config,
            edge_policy=policy,
            optimistic=optimistic,
            bias=bias_map if biased else None,
        )
        expected = outcome(oracle_pinter_color, pig, r, **kwargs)
        actual = outcome(pinter_color, pig, r, **kwargs)
        assert actual == expected, (r, policy, optimistic, config, biased)


def _pig(fn, machine=None):
    return build_parallel_interference_graph(
        fn, machine or two_unit_superscalar()
    )


def _fuzz(seed):
    config = SourceFuzzConfig(seed=seed)
    return compile_source(random_source(config), name="fuzz{}".format(seed))


class TestMatchesOracle:
    @pytest.mark.parametrize(
        "build, machine",
        [
            (example1, example1_machine_model),
            (example2, example2_machine_model),
        ],
        ids=["example1", "example2"],
    )
    def test_paper_examples(self, build, machine):
        pig = _pig(build(), machine())
        for r in (2, 3, 4):
            assert_matches_oracle(pig, r)

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_kernels(self, name):
        fn = ALL_KERNELS[name]()
        pig = _pig(fn)
        for r in (3, 5):
            assert_matches_oracle(pig, r, cost=make_cost_function(fn))

    @pytest.mark.parametrize("size", [22, 64, 96])
    @pytest.mark.parametrize("r", [4, 8, 16])
    def test_random_blocks(self, size, r):
        fn = random_block(RandomBlockConfig(size=size, seed=size))
        assert_matches_oracle(_pig(fn), r, cost=make_cost_function(fn))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_source_fuzz(self, seed):
        fn = _fuzz(seed)
        pig = _pig(fn)
        assert build_bias_map(pig.interference)  # bias on is exercised
        for r in (3, 5):
            assert_matches_oracle(pig, r, cost=make_cost_function(fn))

    def test_irreducible_pressure_error(self):
        fn = random_block(RandomBlockConfig(size=22, seed=22))
        pig = _pig(fn)
        unspillable = lambda _web: float("inf")  # noqa: E731
        expected = outcome(oracle_pinter_color, pig, 4, cost=unspillable)
        assert expected[0] == "AllocationError"
        assert outcome(pinter_color, pig, 4, cost=unspillable) == expected

    @pytest.mark.parametrize("policy", ["node", "global", "lazy"])
    @pytest.mark.parametrize("optimistic", [False, True])
    def test_banked(self, monkeypatch, policy, optimistic):
        fn = random_block(RandomBlockConfig(size=40, seed=5))
        pig = _pig(fn)
        kwargs = dict(
            cost=make_cost_function(fn),
            edge_policy=policy,
            optimistic=optimistic,
        )
        actual = banked_pinter_color(pig, BankedBudget(4, 3), **kwargs)
        # banked_pinter_color resolves pinter_color at call time, so
        # patching the module runs the same banking over the oracle.
        monkeypatch.setattr(
            coloring_module, "pinter_color", oracle_pinter_color
        )
        expected = banked_pinter_color(pig, BankedBudget(4, 3), **kwargs)
        assert {k: signature(v) for k, v in actual.items()} == {
            k: signature(v) for k, v in expected.items()
        }


class TestOracleAnchor:
    """Literal outputs: editing the oracle cannot hide a change."""

    # (r, edge_policy) -> (removed edges, spilled), by web index.  The
    # node policy's (17, 10) keeps the blocked node first.
    PINNED = {
        (8, "node"): ([(1, 12), (2, 10)], []),
        (8, "global"): ([(2, 10), (10, 16), (10, 17), (2, 11)], []),
        (6, "node"): (
            [
                (2, 10), (2, 13), (2, 11), (2, 9), (2, 6), (2, 12),
                (0, 12), (3, 8), (3, 16), (3, 17), (3, 18), (1, 12),
                (11, 16), (11, 17), (11, 18), (12, 16), (12, 17), (17, 10),
            ],
            [8],
        ),
        (6, "lazy"): ([(10, 17)], [8]),
    }

    @pytest.mark.parametrize("color", [oracle_pinter_color, pinter_color])
    def test_removed_edges_pinned(self, color):
        fn = random_block(RandomBlockConfig(size=22, seed=22))
        pig = _pig(fn)
        cost = make_cost_function(fn)
        for (r, policy), (removed, spilled) in self.PINNED.items():
            got = signature(color(pig, r, cost=cost, edge_policy=policy))
            assert (got["removed"], got["spilled"]) == (removed, spilled)


class TestPricing:
    def test_edge_values_match_frozen_pricing(self):
        block = random_block(RandomBlockConfig(size=64, seed=64))
        for fn in (_fuzz(2), block):
            pig = _pig(fn)
            model = SchedulingValueModel.build(pig)
            frozen = FrozenValueModel(SchedulingValueModel.build(pig))
            for a, b, origin in pig.graph.edges(data="origin"):
                if origin != EdgeOrigin.FALSE:
                    continue
                assert model.edge_value(b, a) == frozen.edge_value(b, a)
                assert model.edge_value(a, b) == frozen.edge_value(a, b)


class TestColorRoundTelemetry:
    def test_round_event_and_counters(self, tmp_path):
        fn = random_block(RandomBlockConfig(size=64, seed=64))
        pig = _pig(fn)
        model = SchedulingValueModel.build(pig)
        trace = tmp_path / "color.jsonl"
        with tracing(str(trace)), collecting_metrics() as registry:
            result = pinter_color(
                pig, 4, cost=make_cost_function(fn), value_model=model
            )
        (event,) = [
            e for e in map(json.loads, trace.read_text().splitlines())
            if e["name"] == "color.round"
        ]
        attrs = event["attrs"]
        expected_value = sum(
            model.edge_value(a, b) for a, b in result.removed_false_edges
        )
        assert attrs["false_edges_removed"] == len(result.removed_false_edges)
        assert attrs["spill_picks"] == len(result.spilled) > 0
        assert attrs["sweeps"] >= 1
        assert attrs["sacrificed_value"] == pytest.approx(expected_value)
        counters = registry.snapshot()["counters"]
        assert counters["color.sweeps"] == attrs["sweeps"]
        assert counters["color.spill_picks"] == attrs["spill_picks"]
        assert counters["color.sacrificed_value"] == pytest.approx(
            expected_value
        )
