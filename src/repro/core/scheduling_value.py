"""Scheduling value of false-dependence edges.

When register pressure forces the coloring procedure to give up
parallelism, it should "remove from both G and G' a false dependence
edge not in E_r (e.g. an edge {v, u} for which scheduling u with v
contributes the least)".  This module quantifies that contribution:

* pairs whose (delay-weighted) earliest start times coincide are the
  ones a scheduler would actually co-issue — large EP distance means
  the parallelism was unlikely to materialize anyway;
* pairs on long critical chains matter more — "early scheduling of an
  instruction which is last on a critical path" is the paper's own
  example priority.

``value = (1 + max(height_u, height_v)) / (1 + |EP(u) − EP(v)|)``;
the procedure removes the edge of minimum value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.webs import Web
from repro.core.parallel_interference import ParallelInterferenceGraph
from repro.deps.false_dependence import FalseDependenceGraph
from repro.deps.transitive import earliest_start_times, ordered_pair
from repro.ir.instructions import Instruction


def region_value_rows(sg) -> Tuple[List[int], List[float]]:
    """Positional ``(ep, height)`` rows of one region schedule graph.

    A pure function of (schedule graph, machine) — exactly like the
    dependence kernel — which is why the region cache stores these
    rows alongside the kernel: a hit prices false edges without
    rebuilding G_s.
    """
    start = earliest_start_times(sg)
    local_height: Dict[Instruction, float] = {}
    for instr in reversed(sg.topological_order()):
        best = float(
            sg.machine.latency_of(instr) if sg.machine else instr.latency
        )
        for succ in sg.graph.successors(instr):
            best = max(best, sg.delay(instr, succ) + local_height[succ])
        local_height[instr] = best
    return (
        [start[instr] for instr in sg.instructions],
        [local_height[instr] for instr in sg.instructions],
    )


@dataclass
class SchedulingValueModel:
    """Precomputed EP numbers and critical heights for every region."""

    pig: ParallelInterferenceGraph
    _ep: Dict[int, int]
    _height: Dict[int, float]
    _fdg_of: Dict[int, FalseDependenceGraph]
    #: Memoized edge values, keyed by the web-index pair.
    _edge_cache: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Per web index: its defining instructions by uid, each with the
    #: false-dependence graph of its region.
    _defs: Dict[
        int, List[Tuple[Instruction, Optional[FalseDependenceGraph]]]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, pig: ParallelInterferenceGraph) -> "SchedulingValueModel":
        ep: Dict[int, int] = {}
        height: Dict[int, float] = {}
        fdg_of: Dict[int, FalseDependenceGraph] = {}
        for fdg in pig.false_graphs:
            rows = fdg.value_rows
            if rows is None:
                rows = region_value_rows(fdg.schedule_graph)
            ep_row, height_row = rows
            for idx, instr in enumerate(fdg.instructions):
                ep[instr.uid] = ep_row[idx]
                height[instr.uid] = height_row[idx]
                fdg_of[instr.uid] = fdg
        return cls(pig=pig, _ep=ep, _height=height, _fdg_of=fdg_of)

    # ------------------------------------------------------------------
    # Pair- and edge-level values
    # ------------------------------------------------------------------

    def pair_value(self, u: Instruction, v: Instruction) -> float:
        """Value of co-scheduling instructions *u* and *v*."""
        ep_u, ep_v = self._ep.get(u.uid, 0), self._ep.get(v.uid, 0)
        h_u, h_v = self._height.get(u.uid, 1.0), self._height.get(v.uid, 1.0)
        return (1.0 + max(h_u, h_v)) / (1.0 + abs(ep_u - ep_v))

    def _sorted_definitions(
        self, web: Web
    ) -> List[Tuple[Instruction, Optional[FalseDependenceGraph]]]:
        """*web*'s defining instructions by uid, built once per web."""
        defs = self._defs.get(web.index)
        if defs is None:
            defs = [
                (point.instruction, self._fdg_of.get(point.instruction.uid))
                for point in sorted(
                    web.definitions, key=lambda d: d.instruction.uid
                )
            ]
            self._defs[web.index] = defs
        return defs

    def _contributing_pairs(
        self, web_a: Web, web_b: Web
    ) -> List[Tuple[Instruction, Instruction]]:
        """Instruction pairs whose E_f membership created this web edge."""
        pairs = []
        defs_b = self._sorted_definitions(web_b)
        for instr_a, fdg in self._sorted_definitions(web_a):
            if fdg is None:
                continue
            for instr_b, _ in defs_b:
                if fdg.has_false_edge(instr_a, instr_b):
                    pairs.append(ordered_pair(instr_a, instr_b))
        return pairs

    def edge_value(self, web_a: Web, web_b: Web) -> float:
        """Scheduling value of the false edge {web_a, web_b}: the best
        co-issue opportunity among its contributing instruction pairs.
        Edges with no surviving pair (possible after spilling rounds)
        are worthless.

        Values depend only on the (fixed) EP numbers and heights, so
        they are memoized — the coloring procedure queries the same
        edges many times.
        """
        cache = self._edge_cache
        key = (
            (web_a.index, web_b.index)
            if web_a.index <= web_b.index
            else (web_b.index, web_a.index)
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
        pairs = self._contributing_pairs(web_a, web_b)
        value = (
            max(self.pair_value(u, v) for u, v in pairs) if pairs else 0.0
        )
        cache[key] = value
        return value
