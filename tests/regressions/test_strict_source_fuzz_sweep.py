"""Theorem 1 under ``--strict`` over a fixed set of multi-block
``source_fuzz`` programs.

A spill-free Pinter coloring that sacrificed no false edge must
introduce no false dependence, and strict mode fails the compile when
it does.  The sweep covers both nesting depths the fuzzer's small
programs use; before the whole-function dependence graph carried
control dependences, 16 of these 480 programs failed.
"""

import pytest

from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import CompilationDriver, DriverConfig
from repro.workloads.source_fuzz import SourceFuzzConfig, random_source

SEEDS = range(60)


@pytest.mark.parametrize("max_depth", [2, 3])
@pytest.mark.parametrize("num_statements", [6, 8, 10, 12])
def test_strict_sweep_compiles_clean(num_statements, max_depth):
    driver = CompilationDriver(
        two_unit_superscalar(), config=DriverConfig(strict=True)
    )
    failed = []
    for seed in SEEDS:
        text = random_source(SourceFuzzConfig(
            num_statements=num_statements, max_depth=max_depth, seed=seed,
        ))
        outcome = driver.compile_text(text, name="fuzz{}".format(seed))
        if not outcome.ok:
            failed.append((seed, [str(d) for d in outcome.report.errors()]))
    assert failed == []
