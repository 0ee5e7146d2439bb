"""Dataflow and control-flow analyses over the IR."""

from repro.analysis.dataflow import (
    DataflowSolution,
    Direction,
    GenKillTransfer,
    solve_gen_kill,
)
from repro.analysis.defuse import DefUseChains, def_use_chains
from repro.analysis.dominators import (
    DominatorInfo,
    control_equivalent_pairs,
    dominator_tree,
    postdominator_tree,
)
from repro.analysis.liveness import (
    LiveInterval,
    LivenessInfo,
    block_live_intervals,
    live_variables,
    max_register_pressure,
    per_instruction_liveness,
)
from repro.analysis.loops import (
    NaturalLoop,
    back_edges,
    loop_nesting_depth,
    natural_loops,
)
from repro.analysis.reaching import (
    DefPoint,
    ReachingInfo,
    all_definitions,
    reaching_at_uses,
    reaching_definitions,
)
from repro.analysis.regions import (
    Region,
    plausible_pairs,
    region_instructions,
    schedule_regions,
)
from repro.analysis.webs import Web, build_webs, web_of_definition

__all__ = [
    "DataflowSolution",
    "DefPoint",
    "DefUseChains",
    "Direction",
    "DominatorInfo",
    "GenKillTransfer",
    "LiveInterval",
    "LivenessInfo",
    "NaturalLoop",
    "ReachingInfo",
    "Region",
    "Web",
    "all_definitions",
    "back_edges",
    "block_live_intervals",
    "build_webs",
    "control_equivalent_pairs",
    "def_use_chains",
    "dominator_tree",
    "live_variables",
    "loop_nesting_depth",
    "max_register_pressure",
    "natural_loops",
    "per_instruction_liveness",
    "plausible_pairs",
    "postdominator_tree",
    "reaching_at_uses",
    "reaching_definitions",
    "region_instructions",
    "schedule_regions",
    "solve_gen_kill",
    "web_of_definition",
]
