"""Equivalence of the region-cached PIG build with the uncached one:
every cache state (cold, warm, partially warm) must give a graph
bit-identical to :func:`build_parallel_interference_graph` without a
cache, and the region-cached driver must emit bit-identical
programs."""

import pytest

from repro.cache import CompileCache
from repro.core.parallel_interference import (
    build_parallel_interference_graph,
)
from repro.ir.builder import BlockBuilder
from repro.ir.printer import format_function
from repro.machine.presets import two_unit_superscalar, wide_issue
from repro.pipeline.driver import (
    CompilationDriver,
    DriverConfig,
    _pig_signature,
)
from repro.pipeline.incremental import (
    cached_region_fdg,
    region_cache_for,
    reset_region_caches,
)
from repro.workloads.generator import diamond_chain, random_block
from repro.workloads.generator import RandomBlockConfig
from repro.workloads.paper_examples import (
    example1,
    example1_machine_model,
    example2,
    example2_machine_model,
)
from repro.workloads.source_fuzz import SourceFuzzConfig, random_source


def _empty_function():
    builder = BlockBuilder("entry")
    return builder.function(name="empty")


def _one_instruction_function():
    builder = BlockBuilder("entry")
    builder.ret()
    return builder.function(name="tiny")


def _assert_equivalent(fn, machine):
    reference = build_parallel_interference_graph(fn, machine, engine="bitset")
    cache = CompileCache(capacity=256)
    cold = build_parallel_interference_graph(fn, machine, region_cache=cache)
    warm = build_parallel_interference_graph(fn, machine, region_cache=cache)
    assert _pig_signature(reference) == _pig_signature(cold)
    assert _pig_signature(reference) == _pig_signature(warm)


WORKLOADS = [
    ("example1", example1, example1_machine_model),
    ("example2", example2, example2_machine_model),
    ("diamond", lambda: diamond_chain(3, 10, seed=2), wide_issue),
    (
        "single-region",
        lambda: random_block(RandomBlockConfig(size=24, seed=4)),
        two_unit_superscalar,
    ),
    ("degenerate-n0", _empty_function, two_unit_superscalar),
    ("degenerate-n1", _one_instruction_function, two_unit_superscalar),
]


class TestBitIdenticalComposition:
    @pytest.mark.parametrize(
        "label,make_fn,make_machine",
        WORKLOADS,
        ids=[w[0] for w in WORKLOADS],
    )
    def test_bitset_equivalence(self, label, make_fn, make_machine):
        _assert_equivalent(make_fn(), make_machine())

    def test_partially_warm_cache(self):
        # Warm the cache with one function, then compose a different
        # one that shares some regions (same generator, one parameter
        # changed): hits and misses mix within a single compose.
        machine = wide_issue()
        cache = CompileCache(capacity=256)
        build_parallel_interference_graph(
            diamond_chain(4, 10, seed=6), machine, region_cache=cache
        )
        edited = diamond_chain(4, 10, seed=7)
        reference = build_parallel_interference_graph(
            edited, machine, engine="bitset"
        )
        mixed = build_parallel_interference_graph(
            edited, machine, region_cache=cache
        )
        assert _pig_signature(reference) == _pig_signature(mixed)

    def test_use_regions_false_matches(self):
        fn = diamond_chain(2, 8, seed=1)
        machine = two_unit_superscalar()
        reference = build_parallel_interference_graph(
            fn, machine, use_regions=False, engine="bitset"
        )
        cache = CompileCache(capacity=256)
        for _ in range(2):
            incr = build_parallel_interference_graph(
                fn, machine, use_regions=False, region_cache=cache
            )
            assert _pig_signature(reference) == _pig_signature(incr)

    def test_cached_fdg_matches_direct(self):
        from repro.analysis.regions import schedule_regions
        from repro.deps.false_dependence import false_dependence_graph
        from repro.deps.schedule_graph import region_schedule_graph

        fn = diamond_chain(3, 10, seed=2)
        machine = wide_issue()
        cache = CompileCache(capacity=256)
        for region in schedule_regions(fn):
            sg = region_schedule_graph(fn, region.blocks, machine=machine)
            if not sg.instructions:
                continue
            direct = false_dependence_graph(sg, machine)
            for _ in range(2):  # miss then hit
                cached = cached_region_fdg(sg, machine, cache)
                assert cached.kernel.ef_rows == direct.kernel.ef_rows
                assert cached.kernel.et_rows == direct.kernel.et_rows
                assert cached.kernel.reach_rows == direct.kernel.reach_rows


class TestDriverEquivalence:
    def _compile(self, fn, machine, **cfg):
        driver = CompilationDriver(
            machine, config=DriverConfig(engine="bitset", **cfg)
        )
        outcome = driver.compile_function(fn)
        assert outcome.ok, outcome.report.as_dict()
        return (
            format_function(outcome.result.allocated_function),
            outcome.result.cycles,
            outcome.result.registers_used,
            outcome.result.false_dependences,
        )

    @pytest.mark.parametrize(
        "label,make_fn,make_machine",
        [w for w in WORKLOADS if w[0] != "degenerate-n0"],
        ids=[w[0] for w in WORKLOADS if w[0] != "degenerate-n0"],
    )
    def test_region_cached_compile_bit_identical(
        self, label, make_fn, make_machine
    ):
        reset_region_caches()
        machine = make_machine()
        plain = self._compile(make_fn(), machine)
        cold = self._compile(make_fn(), machine, region_cache=True)
        warm = self._compile(make_fn(), machine, region_cache=True)
        assert plain == cold == warm

    def test_fuzz_corpus_bit_identical(self):
        reset_region_caches()
        machine = two_unit_superscalar()
        plain_driver = CompilationDriver(
            machine, config=DriverConfig(engine="bitset")
        )
        cached_driver = CompilationDriver(
            machine,
            config=DriverConfig(engine="bitset", region_cache=True),
        )
        for seed in range(6):
            text = random_source(
                SourceFuzzConfig(num_statements=10, seed=seed)
            )
            plain = plain_driver.compile_text(text, name="fuzz%d" % seed)
            twice = [
                cached_driver.compile_text(text, name="fuzz%d" % seed)
                for _ in range(2)
            ]
            assert plain.ok
            for cached in twice:
                assert cached.ok
                assert format_function(
                    plain.result.allocated_function
                ) == format_function(cached.result.allocated_function)
                assert plain.result.cycles == cached.result.cycles

    def test_process_wide_cache_registry(self):
        reset_region_caches()
        assert region_cache_for(None) is region_cache_for(None)
