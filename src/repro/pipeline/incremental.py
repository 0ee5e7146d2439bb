"""Region-grain incremental compilation.

Pinter's construction makes the scheduling region the natural unit of
reuse: the parallelizable interference graph is a per-region dependence
kernel spliced onto the global web graph, and instructions of different
regions are never co-issued, so a region's kernel depends on nothing
outside the region's own schedule graph and the machine.  That makes
the kernel a perfect cache value: under the edit-recompile loop a
one-region edit changes one region digest, and every other region's
kernel replays from the store instead of being rebuilt.

This module is the reuse path:

* :func:`region_cache_for` — the process-wide region-kernel store, a
  :class:`~repro.cache.store.CompileCache` opened with the ``region``
  namespace (own shards, quarantine, and LRU inside a shared
  ``--cache-dir``).
* :func:`cached_region_fdg` — one region/block kernel build routed
  through the cache; used by the driver's theorem-1 check and the
  scheduler's per-block false-dependence graphs.
* :func:`build_incremental_pig` — the whole-function build: split into
  regions, look every region up, rebuild only the misses, and compose
  the function result by web stitching, bit-identical to the cold
  build.

Cache honesty mirrors the whole-compile tiers (PR 5/PR 8):

* Entries are stored in the validated worker-result shape with the
  kernel rows as the ``pig_region`` report payload, so the store's
  ``_is_cacheable`` gate and :func:`_kernel_from_report`'s validation
  both apply on the way in and on the way out; a corrupt or mismatched
  entry degrades to a miss and a local rebuild.
* **Fault-armed processes neither read nor write the cache** — an
  injected fault must never freeze into a stored kernel, and a replay
  must never mask the fault path under test.  Degraded ladder rungs
  are kept out one layer up: the driver consults the cache only for
  its primary engine, and the batch/serve retry ladders disable the
  region cache outright in their degraded-rung configs.

Every lookup emits ``cache.region.{hit,miss}`` and every stitched
function ``cache.region.compose`` — trace counters, so ``repro stats``
surfaces the hit rate of a session.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.regions import Region, schedule_regions
from repro.analysis.webs import web_of_definition
from repro.cache.keys import (
    RegionCacheKey,
    region_cache_key,
    region_cache_key_from_digest,
    region_digest_parts,
)
from repro.cache.store import CompileCache
from repro.core.parallel_interference import (
    EdgeOrigin,
    ParallelInterferenceGraph,
    _insert_edges_fast,
    _splice_false_edges,
)
from repro.core.scheduling_value import region_value_rows
from repro.deps.bitset import DependenceBitKernel, InstructionIndex
from repro.deps.false_dependence import (
    FalseDependenceGraph,
    false_dependence_graph,
)
from repro.deps.global_deps import (
    shared_function_dependence_graph,
    transit_dependence_pairs,
)
from repro.deps.schedule_graph import ScheduleGraph, region_schedule_graph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.printer import format_instruction
from repro.machine.model import MachineDescription
from repro.obs import get_metrics, get_tracer
from repro.regalloc.interference import build_interference_graph
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


def _lookup(
    cache: CompileCache,
    key: RegionCacheKey,
    instructions: Sequence[Instruction],
):
    """``(kernel, value_rows)`` for *key* rebuilt over the caller's own
    instruction sequence, or ``None``.  Malformed rows (size drift, bad
    hex) degrade to a miss."""
    entry = cache.get(key)
    if entry is None:
        return None
    report = entry.get("report")
    kernel = _kernel_from_report(report, list(instructions))
    if kernel is None:
        return None
    return kernel, _value_rows_from_report(report, len(instructions))


def _note_region(what: str, count: int = 1) -> None:
    if count <= 0:
        return
    get_metrics().counter("cache.region.{}".format(what)).inc(count)
    get_tracer().counter("cache.region.{}".format(what), count)


def cached_region_fdg(
    sg: ScheduleGraph,
    machine: MachineDescription,
    cache: Optional[CompileCache],
    config_fingerprint: str = "",
    check_deadline: Optional[Callable[[], None]] = None,
    min_instrs: int = MIN_CACHE_INSTRS,
) -> FalseDependenceGraph:
    """One region's false-dependence graph, served from the region
    cache when possible.

    Falls through to a plain :func:`false_dependence_graph` build —
    without consulting or populating the store — when any of the
    honesty gates trips: no cache, a region too small to be worth the
    round-trip, or **armed faults** (an injected fault must never
    freeze into a stored kernel, nor may a replay mask the fault path
    under test).
    """
    if (
        cache is None
        or len(sg.instructions) < min_instrs
        or faults.active_specs()
    ):
        return false_dependence_graph(
            sg, machine, check_deadline=check_deadline
        )
    key = region_cache_key(sg, machine, KERNEL_ENGINE, config_fingerprint)
    hit = _lookup(cache, key, sg.instructions)
    if hit is not None:
        kernel, value_rows = hit
        _note_region("hit")
        return FalseDependenceGraph(
            instructions=list(sg.instructions),
            schedule_graph=sg,
            kernel=kernel,
            value_rows=value_rows,
        )
    _note_region("miss")
    fdg = false_dependence_graph(sg, machine, check_deadline=check_deadline)
    cache.put(key, _entry_for(fdg.kernel, sg))
    return fdg


def cached_region_fdg_ir(
    fn: Function,
    region: Region,
    machine: MachineDescription,
    cache: Optional[CompileCache],
    config_fingerprint: str = "",
    dependence_graph: Optional[Callable[[], "nx.DiGraph"]] = None,
    min_instrs: int = MIN_CACHE_INSTRS,
) -> Optional[FalseDependenceGraph]:
    """:func:`cached_region_fdg` keyed straight from the IR.

    The digest comes from the region's instruction texts, block
    offsets, and transit pairs (see :func:`~repro.cache.keys.
    region_digest_parts`), so a hit replays the kernel without ever
    building the schedule graph — the returned graph carries a lazy
    one for late consumers.  Returns ``None`` for an empty region.
    *dependence_graph* is a zero-argument callable producing the
    shared whole-function dependence graph (built at most once across
    a caller's region loop).
    """
    work = _RegionWork(
        region, fn, machine,
        dependence_graph
        or (lambda: shared_function_dependence_graph(fn)),
    )
    if not work.instructions:
        return None
    if (
        cache is None
        or len(work.instructions) < min_instrs
        or faults.active_specs()
    ):
        return false_dependence_graph(work.sg(), machine)
    key = region_cache_key_from_digest(
        work.digest(), machine, KERNEL_ENGINE, config_fingerprint
    )
    hit = _lookup(cache, key, work.instructions)
    if hit is not None:
        kernel, value_rows = hit
        _note_region("hit")
        return FalseDependenceGraph(
            instructions=list(work.instructions),
            schedule_graph_factory=work.sg,
            kernel=kernel,
            value_rows=value_rows,
        )
    _note_region("miss")
    fdg = false_dependence_graph(work.sg(), machine)
    cache.put(key, _entry_for(fdg.kernel, work.sg()))
    return fdg


# ----------------------------------------------------------------------
# The incremental whole-function build
# ----------------------------------------------------------------------


class _RegionWork:
    """One non-empty region's build state.

    Carries the IR-level identity — the instruction sequence, the
    block start offsets, and the cross-region transit pairs — which is
    everything the cache digest needs, computed *without* building the
    schedule graph.  The graph itself is built memoized on demand: a
    cache hit never pays for it unless a downstream consumer actually
    walks it.
    """

    __slots__ = (
        "region",
        "instructions",
        "boundaries",
        "transit",
        "positions",
        "_fn",
        "_machine",
        "_sg",
    )

    def __init__(
        self,
        region: Region,
        fn: Function,
        machine: MachineDescription,
        dependence_graph: Callable[[], nx.DiGraph],
    ) -> None:
        self.region = region
        self._fn = fn
        self._machine = machine
        self._sg: Optional[ScheduleGraph] = None
        instructions: List[Instruction] = []
        boundaries: List[int] = []
        for name in region.blocks:
            boundaries.append(len(instructions))
            instructions.extend(fn.block(name).instructions)
        self.instructions = instructions
        self.boundaries = tuple(boundaries)
        if len(region.blocks) > 1:
            self.transit = transit_dependence_pairs(
                fn, instructions, dependence_graph()
            )
        else:
            self.transit = []
        position = {
            instr: idx for idx, instr in enumerate(instructions)
        }
        self.positions = tuple(
            sorted((position[u], position[v]) for u, v in self.transit)
        )

    def digest(self) -> str:
        return region_digest_parts(
            [format_instruction(instr) for instr in self.instructions],
            self.boundaries,
            self.positions,
        )

    def sg(self) -> ScheduleGraph:
        if self._sg is None:
            self._sg = region_schedule_graph(
                self._fn,
                self.region.blocks,
                machine=self._machine,
                transit_pairs=self.transit,
            )
        return self._sg


def build_incremental_pig(
    fn: Function,
    machine: MachineDescription,
    cache: CompileCache,
    use_regions: bool = True,
    config_fingerprint: str = "",
    check_deadline: Optional[Callable[[], None]] = None,
) -> ParallelInterferenceGraph:
    """Build G for *fn* compiling only the regions the cache misses.

    Splits the function exactly like the cold builders
    (:func:`~repro.analysis.regions.schedule_regions` +
    :func:`~repro.deps.schedule_graph.region_schedule_graph`), looks
    every region kernel up by :class:`~repro.cache.keys.
    RegionCacheKey`, rebuilds the misses, and stitches hits and
    rebuilds onto the web graph in region order.  Output is
    bit-identical to :func:`~repro.core.parallel_interference.
    build_parallel_interference_graph` with the bitset engine.

    Fault-armed processes bypass the store in both directions and
    rebuild everything.
    """
    tracer = get_tracer()
    armed = bool(faults.active_specs())
    with tracer.span("pig.incremental.build", function=fn.name):
        interference = build_interference_graph(fn)
        def_to_web = web_of_definition(interference.webs)
        if use_regions:
            regions = schedule_regions(fn)
        else:
            regions = [
                Region(blocks=(name,), index=i)
                for i, name in enumerate(fn.block_names())
            ]

        graph = nx.Graph()
        graph.add_nodes_from(interference.webs)
        _insert_edges_fast(
            graph, list(interference.graph.edges()), EdgeOrigin.INTERFERENCE
        )

        # One whole-function dependence graph serves every multi-block
        # region's transit pass (built lazily: all-single-block splits
        # never pay for it).
        fdep: List[Optional[nx.DiGraph]] = [None]

        def dependence_graph() -> nx.DiGraph:
            if fdep[0] is None:
                fdep[0] = shared_function_dependence_graph(fn)
            return fdep[0]

        works: List[_RegionWork] = []
        for region in regions:
            if check_deadline is not None:
                check_deadline()
            work = _RegionWork(region, fn, machine, dependence_graph)
            if work.instructions:
                works.append(work)

        # Phase 1: classify every region as hit or miss.  The digest
        # comes straight from the IR-level identity, so a hit skips
        # the schedule-graph build (the expensive O(n²) dependence
        # scan) entirely.
        kernels: Dict[int, DependenceBitKernel] = {}
        value_rows: Dict[int, object] = {}
        missed: List[int] = []
        keys: Dict[int, RegionCacheKey] = {}
        for slot, work in enumerate(works):
            if check_deadline is not None:
                check_deadline()
            if armed or len(work.instructions) < MIN_CACHE_INSTRS:
                missed.append(slot)
                continue
            key = region_cache_key_from_digest(
                work.digest(), machine, KERNEL_ENGINE, config_fingerprint
            )
            keys[slot] = key
            hit = _lookup(cache, key, work.instructions)
            if hit is not None:
                kernels[slot], value_rows[slot] = hit
            else:
                missed.append(slot)
        _note_region("hit", len(kernels))
        _note_region("miss", len(missed))

        # Phase 2: rebuild the misses.
        for slot in missed:
            if check_deadline is not None:
                check_deadline()
            kernels[slot] = false_dependence_graph(
                works[slot].sg(), machine, check_deadline=check_deadline
            ).kernel
        for slot in missed:
            key = keys.get(slot)
            if key is not None and not armed:
                cache.put(key, _entry_for(kernels[slot], works[slot].sg()))

        # Phase 3: compose — splice every kernel in region order.
        # Replayed regions get a *lazy* schedule graph: nothing in the
        # splice or the coloring needs it (the cached value rows cover
        # the scheduling-value model), but late consumers of
        # ``fdg.schedule_graph`` still find the exact graph they would
        # have on the cold path.
        false_graphs: List[FalseDependenceGraph] = []
        for slot, work in enumerate(works):
            if work._sg is not None:
                fdg = FalseDependenceGraph(
                    instructions=list(work.instructions),
                    schedule_graph=work.sg(),
                    kernel=kernels[slot],
                )
            else:
                fdg = FalseDependenceGraph(
                    instructions=list(work.instructions),
                    schedule_graph_factory=work.sg,
                    kernel=kernels[slot],
                    value_rows=value_rows.get(slot),
                )
            false_graphs.append(fdg)
            _splice_false_edges(fdg.kernel, def_to_web, graph)
        _note_region("compose")
        tracer.event(
            "pig.incremental.done",
            function=fn.name,
            regions=len(works),
            hits=len(works) - len(missed),
            misses=len(missed),
        )
        return ParallelInterferenceGraph(
            graph=graph,
            interference=interference,
            false_graphs=false_graphs,
            regions=regions,
            function=fn,
            machine=machine,
        )

