#!/usr/bin/env python
"""Benchmark region-grain incremental compilation.

Two measurement tiers, both against a region cache rooted in a
throwaway directory:

**End-to-end** — ``driver.compile_function`` on a multi-region
diamond-chain function:

* ``cold`` — first compile against an empty store: every region kernel
  is a miss, and the store is being populated;
* ``warm`` — the identical source re-parsed and recompiled: every
  region kernel is served from the cache (proves the digest is a pure
  function of the printed form, not of object identity);
* ``incr`` — the edit-recompile loop: one constant in one arm block is
  changed, so exactly the edited region's kernels are rebuilt and every
  other region hits.

End-to-end recompiles also pay the phases the region cache cannot
touch — interference/web construction, coloring, assignment, and final
list scheduling are whole-function work redone on every compile — so
the end-to-end guard is a regression floor (``incr`` >=
``E2E_INCR_OVER_COLD_MIN`` x faster than ``cold``), not the headline
number.

**Region compile path** — the region loop the PIG round runs,
:func:`~repro.core.parallel_interference.region_false_graphs` with the
region cache, over every scheduling region; the whole-function
dependence graph is prebuilt outside the clock:

* ``kernel_cold`` / ``kernel_warm`` / ``kernel_incr`` — same three
  store states as above.

This is where the acceptance floor lives: a one-region edit must
recompile the region kernels >= ``INCR_OVER_COLD_MIN`` x faster than
the cold sweep, because only the edited region's kernels are rebuilt.

Rows are bench_compare-compatible ``{workload, phase, wall_s, ...}``
objects; the committed baseline is ``BENCH_pr9.json``.  ``--check``
enforces both floors in-process; CI applies the same floors to the
emitted rows via ``bench_compare.py --ratio-max``, which keeps the
guard machine-independent.

Run:  PYTHONPATH=src python tools/bench_incr.py -o BENCH_pr9.json
      PYTHONPATH=src python tools/bench_incr.py --check
"""

import argparse
import json
import re
import shutil
import sys
import tempfile
import time

from repro.core.parallel_interference import region_false_graphs
from repro.deps.global_deps import shared_function_dependence_graph
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.presets import wide_issue
from repro.pipeline.driver import CompilationDriver, DriverConfig
from repro.pipeline.incremental import (
    region_cache_for,
    reset_region_caches,
)
from repro.workloads.generator import diamond_chain

#: PR-9 acceptance floor: after a single-region edit, the per-region
#: kernel sweep must beat the cold sweep by this factor.
INCR_OVER_COLD_MIN = 3.0

#: End-to-end regression floor: whole-function phases (interference,
#: coloring, scheduling) bound the achievable ratio well below the
#: kernel-path floor.
E2E_INCR_OVER_COLD_MIN = 1.4

#: A source line whose trailing integer immediate we can bump without
#: changing the dependence structure of any region.
_EDITABLE = re.compile(r"^(\s+\S+ = (?:add|sub|mul) \S+, )(\d+)$")


def one_region_edit(text):
    """Return ``text`` with one immediate changed inside one arm block.

    The edit is applied to the first editable instruction *after* the
    second block label, so it always lands inside a single non-entry
    region of the diamond chain.
    """
    lines = text.splitlines()
    blocks_seen = 0
    for index, line in enumerate(lines):
        if line.startswith("block "):
            blocks_seen += 1
            continue
        if blocks_seen < 2:
            continue
        match = _EDITABLE.match(line)
        if match:
            bumped = int(match.group(2)) + 1
            lines[index] = "{}{}".format(match.group(1), bumped)
            return "\n".join(lines) + "\n"
    raise SystemExit("bench_incr: no editable immediate found")


def timed_compile(driver, text, name):
    fn = parse_function(text)
    started = time.perf_counter()
    outcome = driver.compile_function(fn)
    wall = time.perf_counter() - started
    if not outcome.ok:
        raise SystemExit(
            "bench_incr: {} compile failed: {}".format(
                name, outcome.report.as_dict()
            )
        )
    return wall


def timed_region_sweep(text, machine, cache):
    """Wall time of the region loop over every region, against *cache*.

    The whole-function dependence graph is built *before* the clock
    starts: the driver pays it once per compile regardless (the
    interference build walks the same def-use chains), so the sweep
    isolates the marginal cost of lookup-and-rebuild.
    """
    fn = parse_function(text)
    shared_function_dependence_graph(fn)
    started = time.perf_counter()
    region_false_graphs(fn, machine, region_cache=cache)
    return time.perf_counter() - started


def run_once(base_text, edited_text, machine, store_dir):
    """One cold/warm/incr cycle against a fresh store; returns walls
    and per-phase cache-delta stats."""
    reset_region_caches()
    driver = CompilationDriver(
        machine,
        config=DriverConfig(
            region_cache=True,
            region_cache_dir=store_dir,
        ),
    )
    cache = region_cache_for(store_dir)
    walls, stats = {}, {}
    for phase, text in (
        ("cold", base_text),
        ("warm", base_text),
        ("incr", edited_text),
    ):
        before = cache.snapshot()
        walls[phase] = timed_compile(driver, text, phase)
        after = cache.snapshot()
        stats[phase] = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        }
    return walls, stats


def run_sweep_once(base_text, edited_text, machine, store_dir):
    """One kernel_cold/kernel_warm/kernel_incr cycle on a fresh store."""
    reset_region_caches()
    cache = region_cache_for(store_dir)
    walls, stats = {}, {}
    for phase, text in (
        ("kernel_cold", base_text),
        ("kernel_warm", base_text),
        ("kernel_incr", edited_text),
    ):
        before = cache.snapshot()
        walls[phase] = timed_region_sweep(text, machine, cache)
        after = cache.snapshot()
        stats[phase] = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        }
    return walls, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--diamonds", type=int, default=5, metavar="N",
        help="diamonds in the chain, ~2N+2 regions (default 5)",
    )
    parser.add_argument(
        "--block-size", type=int, default=48, metavar="K",
        help="instructions per block (default 48)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="R",
        help="best-of-R timing (default 3)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless the region-path one-edit sweep is >= "
        "{:.0f}x and the end-to-end recompile >= {:.1f}x faster "
        "than cold".format(INCR_OVER_COLD_MIN, E2E_INCR_OVER_COLD_MIN),
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write bench_compare-compatible JSON rows to FILE",
    )
    args = parser.parse_args(argv)

    fn = diamond_chain(
        num_diamonds=args.diamonds,
        block_size=args.block_size,
        seed=args.seed,
    )
    base_text = format_function(fn)
    edited_text = one_region_edit(base_text)
    machine = wide_issue()
    workload = "incr-diamond-{}x{}".format(args.diamonds, args.block_size)

    best, best_stats = {}, {}
    try:
        for _ in range(max(args.repeats, 1)):
            for runner in (run_once, run_sweep_once):
                store_dir = tempfile.mkdtemp(prefix="bench-incr-store-")
                try:
                    walls, stats = runner(
                        base_text, edited_text, machine, store_dir
                    )
                finally:
                    shutil.rmtree(store_dir, ignore_errors=True)
                for phase, wall in walls.items():
                    if phase not in best or wall < best[phase]:
                        best[phase] = wall
                        best_stats[phase] = stats[phase]
    finally:
        reset_region_caches()

    rows = []
    for phase in (
        "cold", "warm", "incr",
        "kernel_cold", "kernel_warm", "kernel_incr",
    ):
        wall = best[phase]
        stat = best_stats[phase]
        rows.append({
            "workload": workload,
            "phase": phase,
            "wall_s": round(wall, 6),
            "diamonds": args.diamonds,
            "block_size": args.block_size,
            "region_hits": stat["hits"],
            "region_misses": stat["misses"],
        })
        print("{:<12} {:>9.3f}s  ({} region hits, {} misses)".format(
            phase, wall, stat["hits"], stat["misses"]))

    print("end-to-end: warm {:.2f}x, one-region edit {:.2f}x over "
          "cold".format(best["cold"] / best["warm"],
                        best["cold"] / best["incr"]))
    print("region path: warm {:.2f}x, one-region edit {:.2f}x over "
          "cold".format(best["kernel_cold"] / best["kernel_warm"],
                        best["kernel_cold"] / best["kernel_incr"]))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
        print("wrote {}".format(args.output))

    if args.check:
        failed = False
        if best["kernel_incr"] * INCR_OVER_COLD_MIN > best["kernel_cold"]:
            print(
                "FAIL: kernel_incr {:.4f}s is not {:.0f}x faster than "
                "kernel_cold {:.4f}s".format(
                    best["kernel_incr"], INCR_OVER_COLD_MIN,
                    best["kernel_cold"],
                )
            )
            failed = True
        if best["incr"] * E2E_INCR_OVER_COLD_MIN > best["cold"]:
            print(
                "FAIL: incr {:.3f}s is not {:.1f}x faster than cold "
                "{:.3f}s".format(
                    best["incr"], E2E_INCR_OVER_COLD_MIN, best["cold"]
                )
            )
            failed = True
        if failed:
            return 1
        print("incremental-recompile floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
