"""E11 — the augmented graph as a scheduler's availability relation.

The paper's augmented parallelizable interference graph exists so that
"at each node v the edges {v, u} ∈ E_f ∩ E provide the list of
available instructions (with v) as used in list scheduling algorithms
such as in [9]".  This bench runs the E_f-driven scheduler against the
classic Gibbons–Muchnick list scheduler across the kernels, asserting
(a) every co-issued pair is an E_f pair, and (b) makespans match the
classic scheduler's (the availability information is complete).
"""

import pytest

from repro.deps import (
    block_false_dependence_graph,
    block_schedule_graph,
    ordered_pair,
)
from repro.machine.presets import two_unit_superscalar
from repro.sched import compact_augmented_schedule, list_schedule
from repro.workloads import ALL_KERNELS

MACHINE = two_unit_superscalar()


def test_e11_augmented_vs_classic(benchmark, emit):
    def run_all():
        rows = []
        for name in sorted(ALL_KERNELS):
            fn = ALL_KERNELS[name]()
            sg = block_schedule_graph(fn.entry, machine=MACHINE)
            fdg = block_false_dependence_graph(fn.entry, MACHINE)
            augmented = compact_augmented_schedule(sg, fdg, MACHINE)
            classic = list_schedule(sg, MACHINE)
            coissues = augmented.parallel_pairs()
            rows.append({
                "kernel": name,
                "classic cycles": classic.makespan,
                "augmented cycles": augmented.makespan,
                "co-issued pairs": len(coissues),
                "all pairs in E_f": all(
                    ordered_pair(a, b) in fdg.ef_pairs for a, b in coissues
                ),
            })
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("E11: E_f-driven scheduling vs. classic list scheduling", rows)
    for row in rows:
        assert row["all pairs in E_f"], row["kernel"]
        assert row["augmented cycles"] <= row["classic cycles"] + 2, row["kernel"]
    # the availability relation is complete: on most kernels the
    # makespans are identical.
    identical = sum(
        1 for row in rows
        if row["augmented cycles"] == row["classic cycles"]
    )
    assert identical >= len(rows) - 2
