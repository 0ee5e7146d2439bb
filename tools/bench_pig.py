#!/usr/bin/env python
"""Benchmark the vectorized PIG kernel against the bitset kernel.

One workload, emitted as bench_compare-compatible
``{workload, phase, wall_s, ...}`` rows:

* ``pig-n<SIZE>`` — one large straight-line region (default n=2048
  with operand window 32 and 45% loads: wide-reuse register pressure
  plus a dense memory-dependence web, the scale and shape where the
  bitset engine's quadratic big-int pair scans dominate).  Phases
  ``pig_vector`` and ``pig_bitset`` build the same PIG through
  :func:`build_parallel_interference_graph` with each engine; the two
  graphs are checked bit-identical before any timing is trusted.
  The engines are timed *interleaved* — vector then bitset, repeated
  ``--repeats`` times, each phase keeping its minimum — so a load
  spike on a busy machine hits both phases instead of skewing the
  ratio.  The PR-6 floor: the vector engine must be >= 3x faster
  than bitset on the same run (``pig_vector/pig_bitset <= 0.3333``).

Run:  PYTHONPATH=src python tools/bench_pig.py -o BENCH_pig_current.json
      PYTHONPATH=src python tools/bench_pig.py --check
Exit: 0 on success (and, with --check, floors hold), 1 otherwise.
"""

import argparse
import json
import sys
import time

from repro.core.parallel_interference import build_parallel_interference_graph
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import _pig_signature
from repro.workloads import RandomBlockConfig, random_block

#: PR-6 acceptance floor: vector must be >= 3x faster than bitset on
#: the large-region workload, same run, same machine.
VECTOR_OVER_BITSET_MIN = 3.0


def timed(thunk):
    started = time.perf_counter()
    result = thunk()
    return time.perf_counter() - started, result


def bench_large_region(size, rows, repeats):
    """The n>=2048 single-region workload: vector vs bitset."""
    machine = two_unit_superscalar()
    fn = random_block(
        RandomBlockConfig(size=size, seed=size, window=32, load_fraction=0.45)
    )
    n_instrs = sum(len(b) for b in fn.blocks())
    workload = "pig-n{}".format(size)

    # Warm caches (numpy import, allocator, analysis memoization)
    # outside the timed runs — same methodology as repro.bench — then
    # time the engines interleaved, keeping each phase's minimum.
    build_parallel_interference_graph(fn, machine, engine="vector")
    wall_vector = wall_bitset = float("inf")
    pig_vector = pig_bitset = None
    for _ in range(repeats):
        wall, pig_vector = timed(
            lambda: build_parallel_interference_graph(
                fn, machine, engine="vector"
            )
        )
        wall_vector = min(wall_vector, wall)
        wall, pig_bitset = timed(
            lambda: build_parallel_interference_graph(
                fn, machine, engine="bitset"
            )
        )
        wall_bitset = min(wall_bitset, wall)
    if _pig_signature(pig_vector) != _pig_signature(pig_bitset):
        raise SystemExit(
            "bench_pig: vector and bitset engines disagree on {} — "
            "timings would be meaningless".format(workload)
        )
    for phase, wall in (
        ("pig_vector", wall_vector), ("pig_bitset", wall_bitset)
    ):
        rows.append({
            "workload": workload,
            "phase": phase,
            "wall_s": round(wall, 6),
            "n_instrs": n_instrs,
        })
        print("{:<12} {:<12} {:>9.3f}s".format(workload, phase, wall))
    speedup = wall_bitset / wall_vector if wall_vector else float("inf")
    print("{:<12} vector speedup over bitset: {:.2f}x".format(
        workload, speedup))
    return speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=2048, metavar="N",
        help="large-region instruction count (default 2048)",
    )
    parser.add_argument(
        "--repeats", type=int, default=4, metavar="R",
        help="take each phase's minimum wall time over R interleaved "
        "runs (default 4; noise robustness)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless vector >= {:.0f}x bitset on the large "
        "region".format(VECTOR_OVER_BITSET_MIN),
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write bench_compare-compatible JSON rows to FILE",
    )
    args = parser.parse_args(argv)
    if args.size < 64:
        raise SystemExit("bench_pig: --size below 64 is all timer noise")

    if args.repeats < 1:
        raise SystemExit("bench_pig: --repeats must be at least 1")

    rows = []
    speedup = bench_large_region(args.size, rows, args.repeats)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.output))

    if args.check:
        if speedup < VECTOR_OVER_BITSET_MIN:
            print(
                "FAIL: vector is only {:.2f}x faster than bitset at "
                "n={} (floor {:.0f}x)".format(
                    speedup, args.size, VECTOR_OVER_BITSET_MIN
                )
            )
            return 1
        print("vector/bitset floor holds ({:.2f}x >= {:.0f}x)".format(
            speedup, VECTOR_OVER_BITSET_MIN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
