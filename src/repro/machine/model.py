"""Machine descriptions for instruction-level-parallel RISC processors.

The paper's machine model: "An instruction level parallel processor is
a RISC type processor comprising a collection of functional units that
potentially can each execute one instruction in the same machine
cycle."  A :class:`MachineDescription` captures exactly what the
framework consumes:

* how many functional units of each :class:`~repro.ir.opcodes.UnitKind`
  exist (the source of the non-precedence contention constraints);
* the issue width (how many instructions may start per cycle);
* per-opcode result latencies (used by EP numbers and the scheduler);
* the size of the register file.

The central predicate is :meth:`MachineDescription.can_coissue`: may
two given instructions start in the same cycle, resources permitting?
Its complement over unordered instruction pairs is what the paper adds
to ``E_t`` as "machine related dependences that are not of a precedence
type".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode, UnitKind
from repro.utils.errors import SchedulingError


@dataclass(frozen=True, eq=False)  # identity equality: models are singletons
class MachineDescription:
    """A superscalar (or single-issue pipelined) RISC processor model.

    Args:
        name: Human-readable model name (e.g. ``"rs6000-like"``).
        units: Count of functional units per kind.  A kind absent from
            the mapping has zero units, and instructions needing it are
            rejected by :meth:`check_supports`.
        issue_width: Maximum instructions issued per cycle.
        num_registers: Size of the physical register file (the default
            ``r`` for allocators driven by this machine).
        latencies: Per-opcode latency overrides; opcodes not listed use
            their IR default latency.
        unit_overrides: Per-opcode functional-unit remapping.  Lets a
            model route e.g. MOV/LOADI to a dedicated move port.
        pipelined: When True, units accept a new instruction every
            cycle even while earlier ones are still in flight; when
            False a unit is busy for the instruction's full latency.
    """

    name: str
    units: Mapping[UnitKind, int]
    issue_width: int = 2
    num_registers: int = 32
    latencies: Mapping[Opcode, int] = field(default_factory=dict)
    unit_overrides: Mapping[Opcode, UnitKind] = field(default_factory=dict)
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise SchedulingError("issue_width must be >= 1")
        if self.num_registers < 1:
            raise SchedulingError("num_registers must be >= 1")
        for kind, count in self.units.items():
            if count < 0:
                raise SchedulingError(
                    "negative unit count for {}".format(kind)
                )
        # Freeze the mappings so the dataclass is safely hashable-by-name
        # and cannot be mutated behind a scheduler's back.
        object.__setattr__(self, "units", dict(self.units))
        object.__setattr__(self, "latencies", dict(self.latencies))
        object.__setattr__(self, "unit_overrides", dict(self.unit_overrides))

    # ------------------------------------------------------------------
    # Instruction properties under this machine
    # ------------------------------------------------------------------

    def unit_for(self, instr: Instruction) -> UnitKind:
        """The functional-unit kind *instr* executes on."""
        return self.unit_overrides.get(instr.opcode, instr.opcode.unit)

    def latency_of(self, instr: Instruction) -> int:
        """Result latency of *instr* in cycles (always >= 1)."""
        return max(1, self.latencies.get(instr.opcode, instr.opcode.latency))

    def unit_count(self, kind: UnitKind) -> int:
        return self.units.get(kind, 0)

    def check_supports(self, instr: Instruction) -> None:
        """Raise :class:`SchedulingError` if no unit can run *instr*."""
        kind = self.unit_for(instr)
        if self.unit_count(kind) < 1:
            raise SchedulingError(
                "machine {!r} has no {} unit for {}".format(
                    self.name, kind.value, instr
                )
            )

    # ------------------------------------------------------------------
    # Co-issue predicate (source of non-precedence constraints)
    # ------------------------------------------------------------------

    def can_coissue(self, a: Instruction, b: Instruction) -> bool:
        """May *a* and *b* start in the same cycle, resources permitting?

        This checks only structural machine resources — issue slots,
        functional-unit counts and same-address memory port conflicts —
        never data dependences (those are the scheduler graph's job).
        """
        if self.issue_width < 2:
            return False
        kind_a = self.unit_for(a)
        kind_b = self.unit_for(b)
        if kind_a == kind_b and self.unit_count(kind_a) < 2:
            return False
        if self._same_address_conflict(a, b):
            return False
        return True

    @staticmethod
    def _same_address_conflict(a: Instruction, b: Instruction) -> bool:
        """The paper's "simultaneous access to the same memory address"
        constraint: two memory operations naming a common symbol may
        not share a cycle even on machines with several memory ports."""
        if not (a.is_memory_access and b.is_memory_access):
            return False
        symbols_a = set(a.memory_symbols())
        return bool(symbols_a.intersection(b.memory_symbols()))

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary (used by example scripts)."""
        lines = [
            "machine {}:".format(self.name),
            "  issue width : {}".format(self.issue_width),
            "  registers   : {}".format(self.num_registers),
            "  pipelined   : {}".format(self.pipelined),
        ]
        for kind, count in self.units.items():
            lines.append("  {:<12}: {}".format(kind.value + " units", count))
        if self.unit_overrides:
            lines.append("  unit overrides: {}".format(
                ", ".join(
                    "{}->{}".format(op.mnemonic, kind.value)
                    for op, kind in self.unit_overrides.items()
                )
            ))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.name


# ----------------------------------------------------------------------
# Wire form
# ----------------------------------------------------------------------


def machine_to_wire(machine: MachineDescription) -> Dict[str, object]:
    """A :class:`MachineDescription` as JSON-safe primitives (enum
    members travel by name).

    This is the *canonical* form the caches fingerprint (and
    :func:`machine_from_wire` rebuilds): every field that can change a
    compile — unit mix, issue width, register count, latencies,
    overrides, pipelining — appears here, so two machines with equal
    wire forms are interchangeable for compilation.
    """
    return {
        "name": machine.name,
        "units": {kind.name: count for kind, count in machine.units.items()},
        "issue_width": machine.issue_width,
        "num_registers": machine.num_registers,
        "latencies": {
            op.name: lat for op, lat in machine.latencies.items()
        },
        "unit_overrides": {
            op.name: kind.name
            for op, kind in machine.unit_overrides.items()
        },
        "pipelined": machine.pipelined,
    }


def machine_from_wire(wire: Dict[str, object]) -> MachineDescription:
    """Inverse of :func:`machine_to_wire`."""
    return MachineDescription(
        name=str(wire["name"]),
        units={
            UnitKind[name]: int(count)
            for name, count in dict(wire["units"]).items()
        },
        issue_width=int(wire["issue_width"]),
        num_registers=int(wire["num_registers"]),
        latencies={
            Opcode[name]: int(lat)
            for name, lat in dict(wire["latencies"]).items()
        },
        unit_overrides={
            Opcode[name]: UnitKind[kind]
            for name, kind in dict(wire["unit_overrides"]).items()
        },
        pipelined=bool(wire["pipelined"]),
    )
