"""Baseline register allocation: interference graph, Chaitin coloring,
spilling, and assignment rewriting."""

from repro.regalloc.assignment import (
    RegisterAssignment,
    apply_assignment,
    make_assignment,
    make_banked_assignment,
    verify_assignment_against_graph,
)
from repro.regalloc.coalesce import (
    build_bias_map,
    choose_biased_color,
    mov_related_pairs,
    remove_identity_moves,
)
from repro.regalloc.classes import (
    BankedBudget,
    banked_register_pool,
    split_webs_by_class,
    web_register_class,
)
from repro.regalloc.briggs import briggs_color
from repro.regalloc.compact import (
    CompactColoring,
    CompactGraph,
    CompactInterference,
    build_compact_interference,
    chaitin_allocate,
    compact_chaitin_color,
    compact_classic_h,
    compact_graph_from_nx,
)
from repro.regalloc.chaitin import (
    ColoringResult,
    chaitin_color,
    classic_h,
    exact_chromatic_number,
    greedy_chromatic_upper_bound,
    uniform_cost,
    validate_coloring,
)
from repro.regalloc.interference import InterferenceGraph, build_interference_graph
from repro.regalloc.spill import (
    SpillReport,
    insert_spill_code,
    is_rematerializable,
    is_spill_temp,
    make_cost_function,
)

__all__ = [
    "BankedBudget",
    "ColoringResult",
    "CompactColoring",
    "CompactGraph",
    "CompactInterference",
    "InterferenceGraph",
    "RegisterAssignment",
    "SpillReport",
    "apply_assignment",
    "briggs_color",
    "build_compact_interference",
    "build_interference_graph",
    "chaitin_allocate",
    "chaitin_color",
    "compact_chaitin_color",
    "compact_classic_h",
    "compact_graph_from_nx",
    "classic_h",
    "exact_chromatic_number",
    "greedy_chromatic_upper_bound",
    "insert_spill_code",
    "is_rematerializable",
    "is_spill_temp",
    "make_assignment",
    "make_banked_assignment",
    "make_cost_function",
    "banked_register_pool",
    "build_bias_map",
    "choose_biased_color",
    "mov_related_pairs",
    "remove_identity_moves",
    "split_webs_by_class",
    "web_register_class",
    "uniform_cost",
    "validate_coloring",
    "verify_assignment_against_graph",
]
