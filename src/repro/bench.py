"""Benchmark harness for the dependence/PIG pipeline (``repro bench``).

Times the phases the E7 scaling experiment exercises — PIG
construction (bitset and retained-reference engines), transitive
closure (bitrow and set-based), and the combined coloring — over the
E7 random-block workloads, and emits one JSON row per (workload,
phase):

    {"workload": "e7-n128", "n_instrs": 129, "phase": "pig_construction",
     "wall_s": 0.0123, "peak_kb": 456.7}

Wall time is the minimum over ``repeats`` runs (noise-robust); peak
memory is tracemalloc's high-water mark for a single run, in KiB.
``*_reference`` phases run the retained set-based pipeline
(:mod:`repro.deps.reference`) so every result file records the
bitset kernel's speedup alongside its absolute times.  Results are
compared across commits by ``tools/bench_compare.py``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.parallel_interference import build_parallel_interference_graph
from repro.deps.reference import reference_transitive_closure_pairs
from repro.deps.schedule_graph import build_schedule_graph
from repro.deps.transitive import transitive_closure_pairs
from repro.machine.model import MachineDescription
from repro.machine.presets import two_unit_superscalar
from repro.utils.errors import InputError
from repro.workloads import RandomBlockConfig, random_block

__all__ = [
    "DEFAULT_SIZES",
    "PHASES",
    "format_bench",
    "run_bench",
    "write_bench",
]

#: E7 workload sizes, matching benchmarks/test_e7_scaling.py.
DEFAULT_SIZES = (8, 16, 32, 64, 128, 256)

#: Phase name → benchmark callable factory; see :func:`_phase_thunks`.
PHASES = (
    "pig_construction",
    "pig_construction_reference",
    "closure",
    "closure_reference",
    "coloring",
)


def _phase_thunks(
    fn, machine: MachineDescription
) -> Dict[str, Callable[[], object]]:
    """Zero-argument callables for each benchmarked phase of *fn*."""
    block = fn.entry

    def closure_input():
        return build_schedule_graph(block.instructions, machine=machine)

    def coloring():
        from repro.core.coloring import pinter_color

        pig = build_parallel_interference_graph(fn, machine)
        return pinter_color(pig, num_registers=machine.num_registers)

    return {
        "pig_construction": lambda: build_parallel_interference_graph(
            fn, machine, engine="bitset"
        ),
        "pig_construction_reference": lambda: build_parallel_interference_graph(
            fn, machine, engine="reference"
        ),
        "closure": lambda: transitive_closure_pairs(closure_input()),
        "closure_reference": lambda: reference_transitive_closure_pairs(
            closure_input()
        ),
        "coloring": coloring,
    }


def _measure(thunk: Callable[[], object], repeats: int) -> Dict[str, float]:
    """(min wall seconds, peak KiB) of *thunk*.

    Timing runs come first, untraced; the tracemalloc run is separate
    because tracing skews wall time badly.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        thunk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"wall_s": best, "peak_kb": peak / 1024.0}


def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    phases: Sequence[str] = PHASES,
    machine: Optional[MachineDescription] = None,
    repeats: int = 3,
    window: int = 8,
) -> List[Dict[str, object]]:
    """Benchmark *phases* over the E7 workloads of the given *sizes*.

    Returns:
        One row dict per (workload, phase):
        ``{workload, n_instrs, phase, wall_s, peak_kb}``.
    """
    if machine is None:
        machine = two_unit_superscalar()
    unknown = set(phases) - set(PHASES)
    if unknown:
        raise InputError(
            "unknown bench phases: {} (choose from {})".format(
                ", ".join(sorted(unknown)), ", ".join(PHASES)
            )
        )
    non_positive = [s for s in sizes if s <= 0]
    if non_positive:
        raise InputError(
            "bench workload sizes must be positive, got {}".format(
                ", ".join(str(s) for s in non_positive)
            )
        )
    if repeats < 1:
        raise InputError("repeats must be at least 1, got {}".format(repeats))
    rows: List[Dict[str, object]] = []
    for size in sizes:
        fn = random_block(RandomBlockConfig(size=size, window=window, seed=size))
        n_instrs = sum(len(b) for b in fn.blocks())
        thunks = _phase_thunks(fn, machine)
        for phase in phases:
            thunk = thunks[phase]
            thunk()  # warm caches outside the timed runs
            sample = _measure(thunk, repeats)
            rows.append(
                {
                    "workload": "e7-n{}".format(size),
                    "n_instrs": n_instrs,
                    "phase": phase,
                    "wall_s": round(sample["wall_s"], 6),
                    "peak_kb": round(sample["peak_kb"], 1),
                }
            )
    return rows


def write_bench(path: str, rows: List[Dict[str, object]]) -> None:
    """Write bench *rows* as pretty-printed JSON to *path*."""
    with open(path, "w") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_bench(rows: List[Dict[str, object]]) -> str:
    """Human-readable table of bench rows, with the bitset/reference
    speedup annotated wherever both phases of a workload are present."""
    by_key = {(r["workload"], r["phase"]): r for r in rows}
    lines = [
        "{:<10} {:>8} {:<28} {:>10} {:>10}".format(
            "workload", "n_instrs", "phase", "wall_s", "peak_kb"
        )
    ]
    for row in rows:
        note = ""
        if not str(row["phase"]).endswith("_reference"):
            ref = by_key.get((row["workload"], str(row["phase"]) + "_reference"))
            if ref and row["wall_s"]:
                note = "  ({:.1f}x vs reference)".format(
                    ref["wall_s"] / row["wall_s"]
                )
        lines.append(
            "{:<10} {:>8} {:<28} {:>10.6f} {:>10.1f}{}".format(
                row["workload"],
                row["n_instrs"],
                row["phase"],
                row["wall_s"],
                row["peak_kb"],
                note,
            )
        )
    return "\n".join(lines)
