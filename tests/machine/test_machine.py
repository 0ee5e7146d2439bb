"""Tests for machine descriptions, contention pairs and the
reservation table."""

import pytest

from repro.ir.builder import BlockBuilder
from repro.ir.opcodes import Opcode, UnitKind
from repro.machine.model import (
    MachineDescription,
    machine_from_wire,
    machine_to_wire,
)
from repro.machine.presets import (
    ALL_PRESETS,
    example1_machine,
    mips_r3000,
    rs6000,
    single_issue,
    two_unit_superscalar,
    wide_issue,
)
from repro.machine.resources import ReservationTable, contention_pairs
from repro.utils.errors import SchedulingError


class TestMachineDescription:
    def test_bad_issue_width(self):
        with pytest.raises(SchedulingError):
            MachineDescription("bad", {UnitKind.FIXED: 1}, issue_width=0)

    def test_bad_register_count(self):
        with pytest.raises(SchedulingError):
            MachineDescription(
                "bad", {UnitKind.FIXED: 1}, num_registers=0
            )

    def test_negative_units(self):
        with pytest.raises(SchedulingError):
            MachineDescription("bad", {UnitKind.FIXED: -1})

    def test_latency_override(self):
        m = MachineDescription(
            "m",
            {UnitKind.MEMORY: 1, UnitKind.FIXED: 1},
            latencies={Opcode.LOAD: 7},
        )
        b = BlockBuilder()
        b.load("x")
        load = b.instructions[0]
        assert m.latency_of(load) == 7

    def test_unit_override(self):
        m = example1_machine()
        b = BlockBuilder()
        b.loadi(1)
        assert m.unit_for(b.instructions[0]) is UnitKind.MOVE

    def test_check_supports(self):
        m = MachineDescription("m", {UnitKind.FIXED: 1})
        b = BlockBuilder()
        b.fload("x")
        with pytest.raises(SchedulingError):
            m.check_supports(b.instructions[0])

    def test_describe(self):
        text = two_unit_superscalar().describe()
        assert "issue width" in text


class TestCoissue:
    def test_single_issue_never_coissues(self):
        m = single_issue()
        b = BlockBuilder()
        x = b.load("x")
        b.fadd(x, x)
        assert not m.can_coissue(*b.instructions)

    def test_same_unit_conflict(self):
        m = two_unit_superscalar()
        b = BlockBuilder()
        x = b.loadi(1)
        b.add(x, x)
        b.mul(x, x)
        add, mul = b.instructions[1], b.instructions[2]
        assert not m.can_coissue(add, mul)  # one fixed unit

    def test_cross_unit_ok(self):
        m = two_unit_superscalar()
        b = BlockBuilder()
        x = b.loadi(1)
        b.add(x, x)
        b.fadd(x, x)
        assert m.can_coissue(b.instructions[1], b.instructions[2])

    def test_two_fixed_units_allow_pair(self):
        m = wide_issue(fixed=2)
        b = BlockBuilder()
        x = b.loadi(1)
        b.add(x, x)
        b.mul(x, x)
        assert m.can_coissue(b.instructions[1], b.instructions[2])

    def test_same_address_conflict(self):
        m = wide_issue(memory=2)
        b = BlockBuilder()
        b.load("cell")
        b.load("cell")
        b.load("other")
        assert not m.can_coissue(b.instructions[0], b.instructions[1])
        assert m.can_coissue(b.instructions[0], b.instructions[2])


class TestContentionPairs:
    def test_example2_loads_pairwise(self):
        """The paper: "since we have only one fetching unit we will also
        generate all the possible edges between the four load
        instructions"."""
        from repro.workloads import example2

        fn = example2()
        m = two_unit_superscalar()
        pairs = contention_pairs(fn.entry.instructions, m)
        loads = [i for i in fn.entry if i.opcode.is_load]
        load_pairs = [
            (a, b) for a, b in pairs if a in loads and b in loads
        ]
        assert len(load_pairs) == 6  # C(4,2)

    def test_no_pairs_on_wide_machine(self):
        b = BlockBuilder()
        x = b.loadi(1)
        b.add(x, x)
        b.mul(x, x)
        m = wide_issue(fixed=2)
        arith = b.instructions[1:]
        assert contention_pairs(arith, m) == []


class TestReservationTable:
    def test_issue_width_enforced(self):
        m = two_unit_superscalar()  # width 3
        table = ReservationTable(m)
        b = BlockBuilder()
        x = b.loadi(1)
        instrs = [b.add(x, i) for i in range(5)]
        fixed = b.instructions[1:]
        table.issue(fixed[0], 0)
        # second fixed op cannot go to cycle 0 (one fixed unit)
        assert not table.can_issue(fixed[1], 0)
        table.issue(fixed[1], 1)

    def test_issue_rejects_and_raises(self):
        m = single_issue()
        table = ReservationTable(m)
        b = BlockBuilder()
        b.loadi(1)
        b.loadi(2)
        table.issue(b.instructions[0], 0)
        with pytest.raises(SchedulingError):
            table.issue(b.instructions[1], 0)

    def test_nonpipelined_unit_busy_for_latency(self):
        m = MachineDescription(
            "np",
            {UnitKind.FIXED: 1, UnitKind.MOVE: 1},
            issue_width=2,
            pipelined=False,
        )
        b = BlockBuilder()
        x = b.loadi(1)
        b.mul(x, x)  # latency 2
        b.add(x, x)
        mul, add = b.instructions[1], b.instructions[2]
        table = ReservationTable(m)
        table.issue(mul, 0)
        assert not table.can_issue(add, 1)  # unit busy
        assert table.can_issue(add, 2)

    def test_pipelined_unit_accepts_next_cycle(self):
        m = two_unit_superscalar()
        b = BlockBuilder()
        x = b.loadi(1)
        b.mul(x, x)
        b.add(x, x)
        table = ReservationTable(m)
        table.issue(b.instructions[1], 0)
        assert table.can_issue(b.instructions[2], 1)

    def test_placements_and_busiest(self):
        m = two_unit_superscalar()
        table = ReservationTable(m)
        b = BlockBuilder()
        x = b.loadi(1)
        y = b.fadd(x, x)
        table.issue(b.instructions[0], 0)
        table.issue(b.instructions[1], 0)
        assert len(table.issued_in_cycle(0)) == 2
        assert table.busiest_cycle_load() == 2

    def test_missing_unit_raises(self):
        m = MachineDescription("m", {UnitKind.FIXED: 1})
        table = ReservationTable(m)
        b = BlockBuilder()
        b.fload("x")
        with pytest.raises(SchedulingError):
            table.can_issue(b.instructions[0], 0)


class TestPresets:
    def test_all_presets_constructible(self):
        for name, factory in ALL_PRESETS.items():
            machine = factory()
            assert machine.issue_width >= 1

    def test_r3000_single_issue(self):
        assert mips_r3000().issue_width == 1

    def test_rs6000_superscalar(self):
        assert rs6000().issue_width >= 2


class TestWire:
    def test_machine_roundtrip(self):
        for preset in (single_issue, two_unit_superscalar):
            machine = preset()
            clone = machine_from_wire(machine_to_wire(machine))
            assert clone.name == machine.name
            assert clone.num_registers == machine.num_registers
            assert clone.units == machine.units
