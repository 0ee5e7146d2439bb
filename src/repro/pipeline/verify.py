"""Post-allocation false-dependence detection (the Lemma 1 test).

"Let (u, v) be a data dependence edge in the scheduling graph generated
after register allocation; the edge (u, v) is a false dependence edge
iff u and v can be scheduled together according to the schedule graph
for the code when presented with symbolic registers" — and Lemma 1
shows that test is exactly membership in E_f.

:func:`find_false_dependences` compares the allocated program (same
instruction uids) against the symbolic original region by region and
reports every data dependence the allocation *introduced* that lands in
E_f — i.e. every co-issue opportunity destroyed by register reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.regions import Region, schedule_regions
from repro.deps.datadeps import DependenceKind, register_dependences
from repro.deps.false_dependence import false_dependence_graph
from repro.deps.schedule_graph import region_schedule_graph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.machine.model import MachineDescription
from repro.utils.errors import IRError


@dataclass(frozen=True)
class FalseDependenceViolation:
    """One false dependence introduced by register allocation.

    Attributes:
        source / target: The allocated instructions (carrying physical
            registers) between which the spurious edge runs.
        kind: The dependence kind register reuse created (anti, output,
            or an accidental flow through a reused register).
        region_index: The scheduling region the pair belongs to.
    """

    source: Instruction
    target: Instruction
    kind: DependenceKind
    region_index: int

    def __str__(self) -> str:
        return "false {} dependence: {}  ->  {}".format(
            self.kind.value, self.source, self.target
        )


def _symbolic_dependence_pairs(
    instructions: Sequence[Instruction],
) -> set:
    """uid pairs with a *real* (symbolic-register or memory) dependence."""
    pairs = set()
    from repro.deps.datadeps import all_dependences

    for dep in all_dependences(instructions):
        pairs.add((dep.source.uid, dep.target.uid))
    return pairs


def find_false_dependences(
    original: Function,
    allocated: Function,
    machine: MachineDescription,
    use_regions: bool = True,
    include_anti: bool = False,
    engine: str = "bitset",
    region_cache=None,
    config_fingerprint: str = "",
    check_deadline: Optional[Callable[[], None]] = None,
) -> List[FalseDependenceViolation]:
    """All false dependences the allocation introduced.

    A false dependence is an introduced edge that destroys a co-issue
    opportunity — "(u, v) is a false dependence edge iff u and v can be
    scheduled together according to the schedule graph for the code
    when presented with symbolic registers".  Introduced *anti* edges
    are excluded by default: the hardware reads operands before
    writing results, so an anti edge still permits same-cycle issue
    (this is why Theorem 1's proof can show "no false anti dependence
    is generated" under the open-interval reuse convention).  Pass
    ``include_anti=True`` for the stricter reordering-loss analysis.

    Args:
        original: The symbolic-register function.
        allocated: Its rewrite with physical registers — instruction
            uids must match (``apply_assignment`` preserves them).
        machine: Machine model (shapes E_t, hence E_f).
        use_regions: Evaluate per scheduling region (the global form);
            otherwise per block.
        include_anti: Also report introduced anti edges landing in E_f.
        engine: ``"bitset"`` (default) derives E_f via the word-parallel
            kernel; ``"reference"`` uses the retained set-based
            pipeline — the hardened driver passes the engine its PIG
            phase settled on so a degraded compile stays off the
            failed kernel.
        region_cache: Optional region-kernel
            :class:`~repro.cache.store.CompileCache`.  The check runs
            the same per-region kernels the PIG phase does over the
            same symbolic function, so a cache the driver already
            populated serves every region here for free.  The caller
            owns the honesty gates (primary engine only, no armed
            faults) — pass None otherwise.
        config_fingerprint: ``DriverConfig.fingerprint()`` component
            of the region keys (only read when *region_cache* is set).
        check_deadline: Optional zero-argument callback polled before
            each region; it raises to preempt the check when the
            driver's wall-clock budget has expired mid-phase.

    Raises:
        IRError: when the two functions' instructions do not correspond.
    """
    if engine not in ("bitset", "reference"):
        raise IRError("unknown dependence engine {!r}".format(engine))
    allocated_by_uid: Dict[int, Instruction] = {
        instr.uid: instr for instr in allocated.instructions()
    }
    original_by_uid: Dict[int, Instruction] = {
        instr.uid: instr for instr in original.instructions()
    }
    if set(allocated_by_uid) != set(original_by_uid):
        raise IRError(
            "allocated function does not mirror the original "
            "(instruction uids differ)"
        )

    if use_regions:
        regions = schedule_regions(original)
    else:
        regions = [
            Region(blocks=(name,), index=i)
            for i, name in enumerate(original.block_names())
        ]

    # One whole-function dependence graph serves every multi-block
    # region's transit pass (lazy: all-single-block splits skip it).
    fdep: List[object] = [None]

    def _dependence_graph():
        if fdep[0] is None:
            from repro.deps.global_deps import (
                shared_function_dependence_graph,
            )

            fdep[0] = shared_function_dependence_graph(original)
        return fdep[0]

    violations: List[FalseDependenceViolation] = []
    for region in regions:
        if check_deadline is not None:
            check_deadline()
        symbolic_instrs: List[Instruction] = []
        for name in region.blocks:
            symbolic_instrs.extend(original.block(name).instructions)
        if not symbolic_instrs:
            continue
        if engine == "reference":
            from repro.deps.reference import reference_false_dependence_graph

            sg = region_schedule_graph(
                original, region.blocks, machine=machine,
                dependence_graph=(
                    _dependence_graph() if len(region.blocks) > 1 else None
                ),
            )
            fdg = reference_false_dependence_graph(sg, machine)
        else:
            # The IR-keyed path: a warm region cache replays the
            # kernel without rebuilding the schedule graph; with no
            # cache it degrades to a plain build that still shares
            # the function dependence graph.
            from repro.pipeline.incremental import cached_region_fdg_ir

            fdg = cached_region_fdg_ir(
                original, region, machine, region_cache,
                config_fingerprint=config_fingerprint,
                dependence_graph=_dependence_graph,
            )

        allocated_instrs = [allocated_by_uid[i.uid] for i in symbolic_instrs]
        real_pairs = _symbolic_dependence_pairs(symbolic_instrs)
        for dep in register_dependences(allocated_instrs):
            if dep.kind is DependenceKind.ANTI and not include_anti:
                continue  # anti edges permit same-cycle issue
            if (dep.source.uid, dep.target.uid) in real_pairs:
                continue  # the dependence existed before allocation
            source_sym = original_by_uid[dep.source.uid]
            target_sym = original_by_uid[dep.target.uid]
            if fdg.has_false_edge(source_sym, target_sym):
                violations.append(
                    FalseDependenceViolation(
                        source=dep.source,
                        target=dep.target,
                        kind=dep.kind,
                        region_index=region.index,
                    )
                )
    return violations


def count_false_dependences(
    original: Function,
    allocated: Function,
    machine: MachineDescription,
    use_regions: bool = True,
) -> int:
    """Convenience: just the violation count."""
    return len(
        find_false_dependences(original, allocated, machine, use_regions)
    )


def assert_no_false_dependences(
    original: Function,
    allocated: Function,
    machine: MachineDescription,
) -> None:
    """Raise :class:`IRError` listing any false dependences found —
    the executable form of Theorem 1's guarantee."""
    violations = find_false_dependences(original, allocated, machine)
    if violations:
        raise IRError(
            "allocation introduced {} false dependence(s): {}".format(
                len(violations),
                "; ".join(str(v) for v in violations[:5]),
            )
        )
