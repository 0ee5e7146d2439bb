"""Dependence analysis: data dependences, the schedule graph G_s,
its transitive closure (the bitset kernel, with the set-based
reference pipeline as its oracle), and the false-dependence graph
G_f."""

from repro.deps.bitset import (
    DependenceBitKernel,
    InstructionIndex,
)
from repro.deps.datadeps import (
    Dependence,
    DependenceKind,
    FALSE_CANDIDATE_KINDS,
    all_dependences,
    false_dependence_candidates,
    memory_dependences,
    register_dependences,
)
from repro.deps.global_deps import (
    function_dependence_graph,
    transit_dependence_pairs,
)
from repro.deps.false_dependence import (
    FalseDependenceGraph,
    block_false_dependence_graph,
    false_dependence_graph,
)
from repro.deps.reference import (
    reference_contention_pairs,
    reference_false_dependence_graph,
    reference_project_false_pairs_to_webs,
    reference_transitive_closure_pairs,
)
from repro.deps.schedule_graph import (
    ScheduleGraph,
    block_schedule_graph,
    build_schedule_graph,
    region_schedule_graph,
)
from repro.deps.transitive import (
    earliest_start_times,
    latest_start_times,
    ordered_pair,
    reachability,
    reachability_rows,
    schedule_times,
    slack,
    transitive_closure_pairs,
)

__all__ = [
    "Dependence",
    "DependenceBitKernel",
    "DependenceKind",
    "FALSE_CANDIDATE_KINDS",
    "FalseDependenceGraph",
    "InstructionIndex",
    "ScheduleGraph",
    "all_dependences",
    "block_false_dependence_graph",
    "block_schedule_graph",
    "build_schedule_graph",
    "earliest_start_times",
    "false_dependence_candidates",
    "false_dependence_graph",
    "function_dependence_graph",
    "latest_start_times",
    "memory_dependences",
    "ordered_pair",
    "reachability",
    "reachability_rows",
    "reference_contention_pairs",
    "reference_false_dependence_graph",
    "reference_project_false_pairs_to_webs",
    "reference_transitive_closure_pairs",
    "region_schedule_graph",
    "register_dependences",
    "schedule_times",
    "slack",
    "transit_dependence_pairs",
    "transitive_closure_pairs",
]
