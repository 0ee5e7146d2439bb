"""Region-grain incremental compilation: the region-kernel cache.

Pinter's construction makes the scheduling region the natural unit of
reuse: the parallelizable interference graph is a per-region dependence
kernel spliced onto the global web graph, and instructions of different
regions are never co-issued, so a region's kernel depends on nothing
outside the region's own schedule graph and the machine.  That makes
the kernel a perfect cache value: under the edit-recompile loop a
one-region edit changes one region digest, and every other region's
kernel replays from the store instead of being rebuilt.

:func:`cached_fdg` is the whole cache policy: the honesty gates, the
size floor, the lookup, the build of a miss, the put and the counters.
It serves two consumers:

* the PIG round.  :func:`~repro.core.parallel_interference.
  region_false_graphs`, the one loop that derives E_f over regions,
  takes the cache as an argument and routes every region through
  :func:`cached_fdg`, keyed by :func:`region_key` straight from the
  IR.  The Theorem-1 check reads the same graphs off the final PIG, so
  it needs no cache of its own;
* the schedule phase, whose per-block graphs go through
  :func:`cached_region_fdg`.

:func:`region_cache_for` is the process-wide store, a
:class:`~repro.cache.store.CompileCache` opened with the ``region``
namespace (own shards, quarantine, and LRU inside a shared
``--cache-dir``).

Cache honesty mirrors the whole-compile tiers:

* Entries are stored in the validated worker-result shape with the
  kernel rows as the ``pig_region`` report payload, so the store's
  ``_is_cacheable`` gate and :func:`_kernel_from_report`'s validation
  both apply on the way in and on the way out; a corrupt or mismatched
  entry degrades to a miss and a local rebuild.
* **Fault-armed processes neither read nor write the cache**: an
  injected fault must never freeze into a stored kernel, and a replay
  must never mask the fault path under test.  Degraded ladder rungs
  are kept out one layer up: the driver consults the cache only for
  its primary engine, and the batch/serve retry ladders disable the
  region cache outright in their degraded-rung configs.

Every lookup emits ``cache.region.hit`` or ``cache.region.miss``:
trace counters, so ``repro stats`` surfaces the hit rate of a
session.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.regions import Region
from repro.cache.keys import (
    RegionCacheKey,
    region_cache_key,
    region_cache_key_from_digest,
    region_digest_parts,
)
from repro.cache.store import CompileCache
from repro.core.scheduling_value import region_value_rows
from repro.deps.bitset import DependenceBitKernel, InstructionIndex
from repro.deps.false_dependence import (
    FalseDependenceGraph,
    false_dependence_graph,
)
from repro.deps.schedule_graph import ScheduleGraph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.printer import format_instruction
from repro.machine.model import MachineDescription
from repro.obs import get_metrics, get_tracer
from repro.utils import faults

#: Regions/blocks below this many instructions are built inline
#: without touching the cache: the kernel build is cheaper than the
#: digest + store round-trip.
MIN_CACHE_INSTRS = 8

#: Memory-tier capacity of the shared region cache (kernels are small;
#: a function has many regions, so this runs deeper than the
#: whole-compile tier).
REGION_CACHE_CAPACITY = 4096

#: The ``kind`` of a stored kernel report.
PIG_REGION_KIND = "pig_region"

#: The engine component of every region key and stored report.  Only
#: bitset kernels are cached (the reference engine keeps pair sets,
#: not rows); the name stays in the key and report shapes so entries
#: already on disk keep hitting.
KERNEL_ENGINE = "bitset"


# ----------------------------------------------------------------------
# The shared store
# ----------------------------------------------------------------------

_CACHES: Dict[Optional[str], CompileCache] = {}


def region_cache_for(directory: Optional[str]) -> CompileCache:
    """The process-wide region-kernel cache rooted at *directory*
    (``None`` = memory-only).  One instance per directory, shared by
    every driver in the process, so the memory LRU keeps kernels warm
    across compiles of the same session."""
    cache = _CACHES.get(directory)
    if cache is None:
        cache = CompileCache(
            capacity=REGION_CACHE_CAPACITY,
            directory=directory,
            namespace=None if directory is None else "region",
        )
        _CACHES[directory] = cache
    return cache


def reset_region_caches() -> None:
    """Drop every process-wide region cache (tests)."""
    _CACHES.clear()


# ----------------------------------------------------------------------
# Cache plumbing
# ----------------------------------------------------------------------


def rows_to_hex(rows: Sequence[int]) -> List[str]:
    """Endianness-neutral wire form of big-int rows."""
    return [format(row, "x") for row in rows]


def rows_from_hex(texts: Sequence[str]) -> List[int]:
    """Inverse of :func:`rows_to_hex`."""
    return [int(text, 16) for text in texts]


def kernel_to_report(kernel: DependenceBitKernel) -> Dict[str, object]:
    """One kernel's four row families as the ``pig_region`` report
    payload — hex wire rows, JSON-safe.  This is what the region cache
    stores."""
    return {
        "kind": PIG_REGION_KIND,
        "engine": KERNEL_ENGINE,
        "n": len(kernel.index),
        "reach": rows_to_hex(kernel.reach_rows),
        "contention": rows_to_hex(kernel.contention_rows),
        "et": rows_to_hex(kernel.et_rows),
        "ef": rows_to_hex(kernel.ef_rows),
    }


def _kernel_from_report(
    report: Dict[str, object], instructions: List[Instruction]
) -> Optional[DependenceBitKernel]:
    """Rebuild a kernel from wire rows over the caller's own
    instruction sequence, or ``None`` when the report does not
    type-check (the entry was read from disk — trust nothing
    unvalidated)."""
    if not isinstance(report, dict) or report.get("kind") != PIG_REGION_KIND:
        return None
    n = len(instructions)
    if report.get("n") != n:
        return None
    rows: Dict[str, List[int]] = {}
    for key in ("reach", "contention", "et", "ef"):
        texts = report.get(key)
        if not isinstance(texts, list) or len(texts) != n:
            return None
        try:
            rows[key] = rows_from_hex(texts)
        except (TypeError, ValueError):
            return None
    return DependenceBitKernel(
        index=InstructionIndex(list(instructions)),
        reach_rows=rows["reach"],
        contention_rows=rows["contention"],
        et_rows=rows["et"],
        ef_rows=rows["ef"],
    )


def _entry_for(
    kernel: DependenceBitKernel, sg: ScheduleGraph
) -> Dict[str, object]:
    """A kernel as a storable entry: the validated worker-result shape
    with the wire rows as the report, so the store's cacheability gate
    and :func:`_kernel_from_report`'s validation both apply.  The report
    additionally carries the region's positional ``(ep, height)``
    scheduling-value rows — like the kernel, a pure function of
    (schedule graph, machine) — so a replay prices false edges without
    rebuilding the schedule graph."""
    report = kernel_to_report(kernel)
    ep_row, height_row = region_value_rows(sg)
    report["ep"] = ep_row
    report["height"] = height_row
    return {
        "status": "ok",
        "exit_code": 0,
        "failure_kind": None,
        "metrics": None,
        "report": report,
    }


def _value_rows_from_report(
    report: Dict[str, object], n: int
) -> Optional[Tuple[List[int], List[float]]]:
    """The stored ``(ep, height)`` rows, or ``None`` when absent or
    malformed (a hit without them is still correct — the value model
    falls back to walking the lazily rebuilt schedule graph)."""
    ep_row = report.get("ep")
    height_row = report.get("height")
    for row in (ep_row, height_row):
        if not isinstance(row, list) or len(row) != n:
            return None
        if not all(isinstance(x, (int, float)) for x in row):
            return None
    return ep_row, height_row


def region_key(
    fn: Function,
    region: Region,
    instructions: Sequence[Instruction],
    transit: Sequence[Tuple[Instruction, Instruction]],
    machine: MachineDescription,
    config_fingerprint: str,
) -> RegionCacheKey:
    """The cache key of one region's kernel, straight from the IR.

    The digest comes from the region's instruction texts, block start
    offsets and transit pairs (see :func:`~repro.cache.keys.
    region_digest_parts`), so a hit never builds the schedule graph.
    *instructions* are the region's blocks laid end to end and
    *transit* its cross-region transit pairs.
    """
    boundaries: List[int] = []
    offset = 0
    for name in region.blocks:
        boundaries.append(offset)
        offset += len(fn.block(name).instructions)
    position = {instr: idx for idx, instr in enumerate(instructions)}
    digest = region_digest_parts(
        [format_instruction(instr) for instr in instructions],
        boundaries,
        sorted((position[u], position[v]) for u, v in transit),
    )
    return region_cache_key_from_digest(
        digest, machine, KERNEL_ENGINE, config_fingerprint
    )


def cached_fdg(
    cache: Optional[CompileCache],
    key: Callable[[], RegionCacheKey],
    instructions: Sequence[Instruction],
    schedule_graph: Callable[[], ScheduleGraph],
    build: Callable[[ScheduleGraph], FalseDependenceGraph],
) -> FalseDependenceGraph:
    """One region's (or block's) false-dependence graph, served from
    the region cache when possible: the whole cache policy.

    ``build(schedule_graph())`` runs without consulting or populating
    the store when any honesty gate trips: no cache, fewer than
    :data:`MIN_CACHE_INSTRS` instructions, or **armed faults** (an
    injected fault must never freeze into a stored kernel, nor may a
    replay mask the fault path under test).  Otherwise ``key()`` is
    looked up and counted as a hit or a miss.  A hit is rebuilt over
    the caller's own *instructions*, with *schedule_graph* as a lazy
    factory: nothing in the splice or the coloring needs G_s (the
    stored value rows cover the scheduling-value model), but a late
    consumer of ``fdg.schedule_graph`` still finds the exact graph.
    Malformed rows (size drift, bad hex) degrade to a miss, which is
    built and stored.
    """
    if (
        cache is None
        or len(instructions) < MIN_CACHE_INSTRS
        or faults.active_specs()
    ):
        return build(schedule_graph())
    cache_key = key()
    entry = cache.get(cache_key)
    report = entry.get("report") if entry is not None else None
    kernel = _kernel_from_report(report, list(instructions))
    counter = "cache.region.{}".format("miss" if kernel is None else "hit")
    get_metrics().counter(counter).inc()
    get_tracer().counter(counter, 1)
    if kernel is None:
        fdg = build(schedule_graph())
        cache.put(cache_key, _entry_for(fdg.kernel, fdg.schedule_graph))
        return fdg
    return FalseDependenceGraph(
        instructions=list(instructions),
        schedule_graph_factory=schedule_graph,
        kernel=kernel,
        value_rows=_value_rows_from_report(report, len(instructions)),
    )


def cached_region_fdg(
    sg: ScheduleGraph,
    machine: MachineDescription,
    cache: Optional[CompileCache],
    config_fingerprint: str = "",
    check_deadline: Optional[Callable[[], None]] = None,
) -> FalseDependenceGraph:
    """:func:`cached_fdg` for a schedule graph already built (the
    schedule phase's per-block graphs), keyed on the graph itself."""
    return cached_fdg(
        cache,
        lambda: region_cache_key(
            sg, machine, KERNEL_ENGINE, config_fingerprint
        ),
        sg.instructions,
        lambda: sg,
        lambda graph: false_dependence_graph(
            graph, machine, check_deadline=check_deadline
        ),
    )
