"""Regression: Theorem 1 on a small multi-block program.

The program is ``random_source(SourceFuzzConfig(num_statements=6,
max_depth=3, seed=56))``.  Its branch condition reads ``in1``, and both
arms define ``v2``, which the join block reads.  So the load of ``in1``
reaches that read through the branch, and the two can never co-issue.
While the whole-function dependence graph had no control edges, the
region {entry, join3} paired them in E_f.  The coloring then gave
``in1`` and ``v2`` one register, and ``--strict`` failed with a
Theorem-1 error.
"""

from repro.deps.global_deps import function_dependence_graph
from repro.frontend import compile_source
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import CompilationDriver, DriverConfig

SOURCE = """\
input in0, in1, in2;
v1 = (((13 & in0) * (in1 + 6)) ^ (in0 / in2));
if ((6 / in1) < in2) {
    v3 = in0;
    v2 = (in2 * ((v3 / in0) / 5));
} else {
    v4 = ((5 + (in2 / v1)) ^ ((in1 * v1) + (in1 + in0)));
    v2 = in0;
}
v5 = (v2 / ((7 & in0) - v2));
v6 = ((in2 - 6) * 9);
output v6, v5;
"""


def test_strict_compile_has_no_theorem1_violation():
    driver = CompilationDriver(
        two_unit_superscalar(), config=DriverConfig(strict=True)
    )
    outcome = driver.compile_text(SOURCE, name="fuzz56")
    assert outcome.ok, outcome.report.as_dict()
    assert outcome.report.status == "ok"
    assert outcome.result.false_dependences == 0


def test_branch_orders_before_both_arms():
    fn = compile_source(SOURCE, name="fuzz56")
    graph = function_dependence_graph(fn)
    branch = fn.entry.terminator
    for arm in fn.successors(fn.entry):
        for instr in arm.instructions:
            assert graph.has_edge(branch, instr), instr
    # The join postdominates the branch block: it runs on every path,
    # so it is not control dependent on the branch.
    (join,) = {succ.name for arm in fn.successors(fn.entry)
               for succ in fn.successors(arm)}
    for instr in fn.block(join).instructions:
        assert not graph.has_edge(branch, instr), instr
