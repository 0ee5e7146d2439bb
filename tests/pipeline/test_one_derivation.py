"""One E_f per PIG round.

The Theorem-1 check reads the false-dependence graphs the PIG was
built from instead of deriving its own.  These tests pin that it
reports exactly what the old self-deriving checker reported (a
test-local copy of it, real-pairs filter included), and that a driver
compile on the PIG path builds no dependence kernel in its theorem1
phase.
"""

import pytest

from repro.analysis.regions import schedule_regions
from repro.core.parallel_interference import (
    build_parallel_interference_graph,
)
from repro.deps import bitset
from repro.deps.datadeps import (
    DependenceKind,
    all_dependences,
    register_dependences,
)
from repro.deps.false_dependence import false_dependence_graph
from repro.deps.reference import reference_false_dependence_graph
from repro.deps.schedule_graph import region_schedule_graph
from repro.frontend import compile_source
from repro.machine.presets import two_unit_superscalar, wide_issue
from repro.pipeline import driver as driver_module
from repro.pipeline.driver import CompilationDriver
from repro.pipeline.strategies import AllocateThenSchedule
from repro.pipeline.verify import find_false_dependences
from repro.utils import faults
from repro.workloads import (
    apply_name_mapping,
    example1,
    example1_good_mapping,
    example1_machine_model,
    example1_naive_mapping,
    example2,
    example2_machine_model,
    figure5_mapping,
)
from repro.workloads.generator import (
    RandomBlockConfig,
    diamond_chain,
    random_block,
)
from repro.workloads.source_fuzz import SourceFuzzConfig, random_source


def _old_violations(original, allocated, machine, include_anti, engine):
    """The checker as it was before it read a PIG's graphs: its own
    region loop, and a filter dropping every pair the symbolic program
    already orders."""
    allocated_by_uid = {i.uid: i for i in allocated.instructions()}
    original_by_uid = {i.uid: i for i in original.instructions()}
    build = (
        reference_false_dependence_graph if engine == "reference"
        else false_dependence_graph
    )
    rows = []
    for region in schedule_regions(original):
        symbolic = [
            instr
            for name in region.blocks
            for instr in original.block(name).instructions
        ]
        if not symbolic:
            continue
        fdg = build(
            region_schedule_graph(original, region.blocks, machine=machine),
            machine,
        )
        real_pairs = {
            (dep.source.uid, dep.target.uid)
            for dep in all_dependences(symbolic)
        }
        allocated_instrs = [allocated_by_uid[i.uid] for i in symbolic]
        for dep in register_dependences(allocated_instrs):
            if dep.kind is DependenceKind.ANTI and not include_anti:
                continue
            if (dep.source.uid, dep.target.uid) in real_pairs:
                continue
            if fdg.has_false_edge(
                original_by_uid[dep.source.uid],
                original_by_uid[dep.target.uid],
            ):
                rows.append(
                    (dep.source.uid, dep.target.uid, dep.kind, region.index)
                )
    return rows


def _mapped(make_fn, mapping, machine):
    fn = make_fn()
    return fn, apply_name_mapping(fn, mapping), machine


def _chaitin(fn, machine, r):
    result = AllocateThenSchedule().run(fn, machine, num_registers=r)
    return result.prepared_function, result.allocated_function, machine


def _cases():
    """(symbolic, allocated, machine) triples: the reuse-heavy
    mappings of test_verify.py, then Chaitin allocations of straight-line
    blocks, diamond chains and multi-block source programs."""
    cases = [
        _mapped(example1, example1_naive_mapping(), example1_machine_model()),
        _mapped(example1, example1_good_mapping(), example1_machine_model()),
        _mapped(example2, figure5_mapping(), example2_machine_model()),
        _mapped(example2, {
            "s1": "r1", "s2": "r2", "s3": "r3", "s4": "r2", "s5": "r3",
            "s6": "r1", "s7": "r2", "s8": "r3", "s9": "r1",
        }, example2_machine_model()),
        _mapped(example2, {
            "s1": "r1", "s2": "r2", "s3": "r3", "s4": "r2", "s5": "r3",
            "s6": "r4", "s7": "r5", "s8": "r6", "s9": "r1",
        }, example2_machine_model()),
    ]
    machine = two_unit_superscalar()
    for r in (4, 8):
        for seed in range(3):
            block = random_block(RandomBlockConfig(size=28, seed=seed))
            cases.append(_chaitin(block, machine, r))
            chain = diamond_chain(num_diamonds=2, block_size=8, seed=seed)
            cases.append(_chaitin(chain, wide_issue(), r))
            source = compile_source(random_source(
                SourceFuzzConfig(num_statements=10, seed=seed)
            ), name="fuzz{}".format(seed))
            cases.append(_chaitin(source, machine, r))
    return cases


CASES = _cases()


@pytest.mark.parametrize("include_anti", [False, True])
@pytest.mark.parametrize("engine", ["bitset", "reference"])
def test_pig_graphs_report_what_the_old_checker_reported(
    engine, include_anti
):
    total = 0
    for original, allocated, machine in CASES:
        pig = build_parallel_interference_graph(
            original, machine, engine=engine
        )
        got = [
            (v.source.uid, v.target.uid, v.kind, v.region_index)
            for v in find_false_dependences(
                original, allocated, machine,
                include_anti=include_anti,
                false_graphs=pig.false_graphs,
            )
        ]
        assert got == _old_violations(
            original, allocated, machine, include_anti, engine
        )
        total += len(got)
    assert total > 0  # the inputs do exercise the check


def _kernel_builds_by_phase(monkeypatch):
    """Record the driver phase each bitset kernel build runs in."""
    phases, builds = [], []
    run = driver_module.PhaseGuard.run
    build = bitset.DependenceBitKernel.build.__func__

    def tracked_run(self, phase, action, **kwargs):
        phases.append(phase)
        try:
            return run(self, phase, action, **kwargs)
        finally:
            phases.pop()

    def tracked_build(cls, *args, **kwargs):
        builds.append(phases[-1] if phases else None)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(driver_module.PhaseGuard, "run", tracked_run)
    monkeypatch.setattr(
        bitset.DependenceBitKernel, "build", classmethod(tracked_build)
    )
    return builds


def test_theorem1_phase_builds_no_kernel(monkeypatch):
    builds = _kernel_builds_by_phase(monkeypatch)
    fn = diamond_chain(num_diamonds=3, block_size=10, seed=2)
    assert len(schedule_regions(fn)) > 1
    outcome = CompilationDriver(wide_issue()).compile_function(fn)
    assert outcome.ok, outcome.report.as_dict()
    assert "pig" in builds and "schedule" in builds
    assert "theorem1" not in builds


def test_chaitin_rung_derives_graphs_with_the_settled_engine(monkeypatch):
    # The Chaitin rung builds no PIG, so theorem1 derives E_f for the
    # program it colored, on the engine the pig ladder settled on: the
    # faulted bitset kernel is not built again.
    builds = _kernel_builds_by_phase(monkeypatch)
    fn = diamond_chain(num_diamonds=2, block_size=8, seed=1)
    with faults.inject("deps.bitset"), faults.inject("core.pinter_color"):
        outcome = CompilationDriver(wide_issue()).compile_function(fn)
    assert outcome.ok, outcome.report.as_dict()
    recoveries = [d.recovery for d in outcome.report.diagnostics]
    assert "reference engine" in recoveries
    assert "chaitin spill fallback" in recoveries
    assert "theorem1" not in builds
    assert outcome.result.false_dependences == len(
        find_false_dependences(
            outcome.result.prepared_function,
            outcome.result.allocated_function,
            wide_issue(),
        )
    )
