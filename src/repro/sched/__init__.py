"""Instruction scheduling: EP numbers, pre-scheduling, list scheduling,
region scheduling and the cycle-level issue simulator."""

from repro.sched.augmented import compact_augmented_schedule
from repro.sched.ips import IPSResult, ips_reorder_function, ips_schedule
from repro.sched.ep import (
    EPAnalysis,
    analyze_ep,
    ep_linear_order,
    initial_ep,
    refined_ep,
)
from repro.sched.global_scheduler import (
    GlobalSimulationResult,
    RegionTiming,
    merge_plausible_blocks,
    schedule_region,
    simulate_regions,
)
from repro.sched.list_scheduler import (
    Schedule,
    critical_path_priority,
    inorder_issue_schedule,
    list_schedule,
)
from repro.sched.prescheduler import preschedule_block, preschedule_function
from repro.sched.simulator import (
    BlockTiming,
    SimulationResult,
    simulate_block,
    simulate_function,
)

__all__ = [
    "BlockTiming",
    "EPAnalysis",
    "GlobalSimulationResult",
    "IPSResult",
    "RegionTiming",
    "Schedule",
    "SimulationResult",
    "analyze_ep",
    "compact_augmented_schedule",
    "critical_path_priority",
    "ep_linear_order",
    "initial_ep",
    "inorder_issue_schedule",
    "ips_reorder_function",
    "ips_schedule",
    "list_schedule",
    "merge_plausible_blocks",
    "preschedule_block",
    "preschedule_function",
    "refined_ep",
    "schedule_region",
    "simulate_block",
    "simulate_function",
    "simulate_regions",
]
