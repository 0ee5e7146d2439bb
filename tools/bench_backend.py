#!/usr/bin/env python
"""Benchmark the compact back-end kernels against their reference
twins, phase by phase, as bench_compare-compatible rows.

Workloads:

* ``backend-n<SIZE>`` — one large straight-line block (default n=2048,
  operand window 96: wide webs, a dense conflict graph, heavy spill
  pressure at r=8).  Phases, each timed compact-vs-reference
  *interleaved* over ``--repeats`` rounds keeping per-phase minima
  (so a load spike hits both sides instead of skewing the ratio):

  - ``interference_compact`` / ``interference_reference`` —
    :func:`build_compact_interference` vs
    :func:`build_interference_graph` (same webs, same edges; checked
    bit-identical before any timing is trusted);
  - ``color_compact`` / ``color_reference`` — the worklist bitmask
    colorer vs the networkx Chaitin round at r=8 (same spill order,
    same coloring, checked);
  - ``sched_compact`` / ``sched_reference`` — the array-based
    augmented scheduler vs the dict/graph one on the same schedule
    graph + E_f (same cycle map, checked).

* ``pinter-n128`` — one ``random_block`` (n=128, window 96, load
  0.3) on ``two-unit-superscalar``: phases ``color_pinter`` /
  ``color_pinter_oracle`` time one Section-4 coloring call at r=16,
  :func:`repro.core.coloring.pinter_color` against the frozen
  pre-rewrite oracle of ``tests/core/pinter_oracle.py`` (each call
  prices edges with its own fresh value model), interleaved over
  ``--repeats`` rounds.  Every result field is checked identical
  before any timing is trusted.

The acceptance floors (``--check``, and ``make bench-backend-check``
against the same run): compact must be >= 3x faster than reference on
BOTH the interference and coloring phases of the large-block workload
(committed in ``BENCH_pr10.json``), and ``pinter_color`` must be >= 5x
faster than its oracle on ``pinter-n128`` (``BENCH_pr14.json``).

Run:  PYTHONPATH=src python tools/bench_backend.py -o BENCH_backend_current.json
      PYTHONPATH=src python tools/bench_backend.py --check
Exit: 0 on success (and, with --check, floors hold), 1 otherwise.
"""

import argparse
import importlib.util
import json
import os
import sys
import time

from repro.deps.false_dependence import block_false_dependence_graph
from repro.deps.schedule_graph import block_schedule_graph
from repro.machine.presets import two_unit_superscalar
from repro.regalloc.chaitin import chaitin_color
from repro.regalloc.compact import (
    build_compact_interference,
    compact_chaitin_color,
)
from repro.regalloc.interference import build_interference_graph
from repro.sched.augmented import augmented_schedule, compact_augmented_schedule
from repro.workloads import RandomBlockConfig, random_block

#: PR-10 acceptance floor: compact must be >= 3x faster than reference
#: on the interference and coloring phases of the large block.
COMPACT_OVER_REFERENCE_MIN = 3.0

#: Registers for the coloring phase — low enough that the dense block
#: spills hard, exercising the victim scan, not just simplification.
COLORS = 8

#: Acceptance floor: the worklist pinter_color must be >= 5x faster
#: than the frozen oracle on the pinter-n128 block.
PINTER_OVER_ORACLE_MIN = 5.0

#: The pinter-n128 block and register count: r=16 under a window-96
#: block makes one call sacrifice ~1,000 false edges and spill.
PINTER_SIZE = 128
PINTER_REGISTERS = 16

ORACLE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "core", "pinter_oracle.py",
)


def timed(thunk):
    started = time.perf_counter()
    result = thunk()
    return time.perf_counter() - started, result


def _cycles(schedule):
    return {instr.uid: cycle for instr, cycle in schedule.cycle_of.items()}


def bench_large_block(size, window, repeats, rows):
    """Interference + coloring + scheduling on one dense block.

    Returns {phase_pair_name: speedup} for the floor check.
    """
    machine = two_unit_superscalar()
    fn = random_block(
        RandomBlockConfig(size=size, seed=size, window=window,
                          load_fraction=0.3)
    )
    n_instrs = sum(len(b) for b in fn.blocks())
    workload = "backend-n{}".format(size)

    # -- equivalence first: timings of diverging kernels are garbage.
    reference = build_interference_graph(fn)
    compact = build_compact_interference(fn)
    ref_edges = {
        tuple(sorted((a.index, b.index))) for a, b in reference.edge_list()
    }
    if set(
        tuple(sorted(e)) for e in compact.graph.edge_list()
    ) != ref_edges:
        raise SystemExit(
            "bench_backend: compact and reference interference disagree "
            "on {} — timings would be meaningless".format(workload)
        )
    ref_color = chaitin_color(reference.graph, COLORS)
    compact_color = compact_chaitin_color(compact.graph, COLORS)
    if (
        [w.index for w in ref_color.spilled]
        != compact_color.spilled
        or {w.index: c for w, c in ref_color.coloring.items()}
        != {
            i: c
            for i, c in enumerate(compact_color.colors)
            if c is not None
        }
    ):
        raise SystemExit(
            "bench_backend: compact and reference coloring disagree on "
            "{} — timings would be meaningless".format(workload)
        )
    block = fn.entry
    sg = block_schedule_graph(block, machine=machine)
    fdg = block_false_dependence_graph(block, machine)
    if _cycles(augmented_schedule(sg, fdg, machine)) != _cycles(
        compact_augmented_schedule(sg, fdg, machine)
    ):
        raise SystemExit(
            "bench_backend: compact and reference schedulers disagree on "
            "{} — timings would be meaningless".format(workload)
        )

    # -- interleaved timing, per-phase minima.
    pairs = {
        "interference": (
            lambda: build_compact_interference(fn),
            lambda: build_interference_graph(fn),
        ),
        "color": (
            lambda: compact_chaitin_color(compact.graph, COLORS),
            lambda: chaitin_color(reference.graph, COLORS),
        ),
        "sched": (
            lambda: compact_augmented_schedule(sg, fdg, machine),
            lambda: augmented_schedule(sg, fdg, machine),
        ),
    }
    walls = {}
    for _ in range(repeats):
        for name, (fast, slow) in pairs.items():
            wall, _ = timed(fast)
            key = "{}_compact".format(name)
            walls[key] = min(walls.get(key, float("inf")), wall)
            wall, _ = timed(slow)
            key = "{}_reference".format(name)
            walls[key] = min(walls.get(key, float("inf")), wall)

    speedups = {}
    for name in pairs:
        for suffix in ("compact", "reference"):
            phase = "{}_{}".format(name, suffix)
            rows.append({
                "workload": workload,
                "phase": phase,
                "wall_s": round(walls[phase], 6),
                "n_instrs": n_instrs,
            })
            print("{:<16} {:<24} {:>9.3f}s".format(
                workload, phase, walls[phase]))
        compact_wall = walls["{}_compact".format(name)]
        reference_wall = walls["{}_reference".format(name)]
        speedup = (
            reference_wall / compact_wall if compact_wall else float("inf")
        )
        speedups[name] = speedup
        print("{:<16} {} compact speedup: {:.2f}x".format(
            workload, name, speedup))
    return speedups


def _load_oracle():
    """The test suite's frozen pre-rewrite ``pinter_color``."""
    spec = importlib.util.spec_from_file_location("pinter_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_pinter_color


def _pinter_signature(result):
    return (
        [w.index for w in result.selection_order],
        [(a.index, b.index) for a, b in result.removed_false_edges],
        [w.index for w in result.spilled],
        {w.index: c for w, c in result.coloring.items()},
        sorted(
            tuple(sorted((a.index, b.index)))
            for a, b in result.reduced_graph.edges()
        ),
    )


def bench_pinter(repeats, rows):
    """One Section-4 coloring call: worklist vs frozen oracle.

    Returns the speedup for the floor check.
    """
    # Imported here, after the backend-n2048 rows are timed: repro.core
    # pulls in most of the package, and the larger heap makes the GC
    # passes inside the interference build measurably slower.
    from repro.core.coloring import pinter_color
    from repro.core.parallel_interference import (
        build_parallel_interference_graph,
    )
    from repro.regalloc.spill import make_cost_function

    machine = two_unit_superscalar()
    fn = random_block(
        RandomBlockConfig(size=PINTER_SIZE, seed=PINTER_SIZE, window=96,
                          load_fraction=0.3)
    )
    workload = "pinter-n{}".format(PINTER_SIZE)
    pig = build_parallel_interference_graph(fn, machine)
    cost = make_cost_function(fn)
    oracle = _load_oracle()

    def fast():
        return pinter_color(pig, PINTER_REGISTERS, cost=cost)

    def slow():
        return oracle(pig, PINTER_REGISTERS, cost=cost)

    # -- equivalence first: timings of diverging colorers are garbage.
    if _pinter_signature(fast()) != _pinter_signature(slow()):
        raise SystemExit(
            "bench_backend: pinter_color and its oracle disagree on "
            "{} — timings would be meaningless".format(workload)
        )

    walls = {}
    for _ in range(repeats):
        for phase, thunk in (
            ("color_pinter", fast), ("color_pinter_oracle", slow)
        ):
            wall, _ = timed(thunk)
            walls[phase] = min(walls.get(phase, float("inf")), wall)
    for phase in ("color_pinter", "color_pinter_oracle"):
        rows.append({
            "workload": workload,
            "phase": phase,
            "wall_s": round(walls[phase], 6),
            "n_instrs": PINTER_SIZE,
        })
        print("{:<16} {:<24} {:>9.3f}s".format(workload, phase, walls[phase]))
    speedup = walls["color_pinter_oracle"] / walls["color_pinter"]
    print("{:<16} pinter_color speedup over oracle: {:.2f}x".format(
        workload, speedup))
    return speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=2048, metavar="N",
        help="large-block instruction count (default 2048)",
    )
    parser.add_argument(
        "--window", type=int, default=96, metavar="W",
        help="operand reuse window of the large block (default 96)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="R",
        help="take each phase's minimum wall time over R interleaved "
        "runs (default 3; noise robustness)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless compact >= {:.0f}x reference on interference "
        "and coloring, and pinter_color >= {:.0f}x its oracle".format(
            COMPACT_OVER_REFERENCE_MIN, PINTER_OVER_ORACLE_MIN),
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write bench_compare-compatible JSON rows to FILE",
    )
    args = parser.parse_args(argv)
    if args.size < 256:
        raise SystemExit(
            "bench_backend: --size below 256 is all timer noise"
        )
    if args.repeats < 1:
        raise SystemExit("bench_backend: --repeats must be at least 1")

    rows = []
    speedups = bench_large_block(args.size, args.window, args.repeats, rows)
    speedups["pinter"] = bench_pinter(args.repeats, rows)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.output))

    if args.check:
        failed = [
            name for name in ("interference", "color")
            if speedups[name] < COMPACT_OVER_REFERENCE_MIN
        ]
        if speedups["pinter"] < PINTER_OVER_ORACLE_MIN:
            failed.append("pinter")
        if failed:
            print(
                "bench_backend: FAIL — below the {:.0f}x compact / "
                "{:.0f}x pinter floors on: {}".format(
                    COMPACT_OVER_REFERENCE_MIN, PINTER_OVER_ORACLE_MIN,
                    ", ".join(failed),
                ),
                file=sys.stderr,
            )
            return 1
        print("bench_backend: floors hold (interference {:.2f}x, "
              "color {:.2f}x, pinter {:.2f}x)".format(
                  speedups["interference"], speedups["color"],
                  speedups["pinter"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
