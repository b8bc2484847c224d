"""Tests for the path history register model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.footprint import branch_footprint
from repro.cpu.phr import PathHistoryRegister, replay_taken_branches


branch_strategy = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestConstruction:
    def test_default_is_zero(self):
        phr = PathHistoryRegister(194)
        assert phr.value == 0
        assert phr.capacity == 194
        assert phr.bits == 388

    def test_value_masked_to_capacity(self):
        phr = PathHistoryRegister(8, value=1 << 100)
        assert phr.value == 0

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            PathHistoryRegister(0)

    def test_from_doublets_roundtrip(self):
        doublets = [1, 3, 0, 2, 1, 1, 0, 3, 2]
        phr = PathHistoryRegister.from_doublets(doublets, capacity=16)
        assert phr.doublets()[:9] == doublets
        assert phr.doublets()[9:] == [0] * 7

    def test_from_doublets_overflow_rejected(self):
        with pytest.raises(ValueError):
            PathHistoryRegister.from_doublets([0] * 10, capacity=9)

    def test_from_doublets_bad_value_rejected(self):
        with pytest.raises(ValueError):
            PathHistoryRegister.from_doublets([4] * 8)


class TestUpdate:
    def test_update_shifts_and_xors(self):
        phr = PathHistoryRegister(194)
        pc, target = 0x41F2C4, 0x41F300
        phr.update(pc, target)
        assert phr.value == branch_footprint(pc, target)

    def test_two_updates_compose(self):
        phr = PathHistoryRegister(194)
        phr.update(0x1234, 0x1278)
        phr.update(0xABCC, 0xABF0)
        expected = ((branch_footprint(0x1234, 0x1278) << 2)
                    ^ branch_footprint(0xABCC, 0xABF0))
        assert phr.value == expected

    def test_truncates_at_capacity(self):
        phr = PathHistoryRegister(8)
        for _ in range(20):
            phr.update(0xFFFF, 0x3F)
        assert phr.value < (1 << 16)

    def test_doublet_0_is_footprint_doublet_0(self):
        """The property Pathfinder's backward search relies on."""
        phr = PathHistoryRegister(194, value=0x123456789)
        pc, target = 0x77F204, 0x77F280
        phr.update(pc, target)
        assert phr.doublet(0) == branch_footprint(pc, target) & 0b11


class TestShiftClear:
    def test_shift_moves_doublets(self):
        phr = PathHistoryRegister.from_doublets([3, 1], capacity=16)
        phr.shift(2)
        assert phr.doublets()[:4] == [0, 0, 3, 1]

    def test_shift_capacity_clears(self):
        phr = PathHistoryRegister(16, value=(1 << 32) - 1)
        phr.shift(16)
        assert phr.value == 0

    def test_clear(self):
        phr = PathHistoryRegister(194, value=12345)
        phr.clear()
        assert phr.value == 0

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            PathHistoryRegister(16).shift(-1)


class TestDoubletAccess:
    def test_set_doublet(self):
        phr = PathHistoryRegister(194)
        phr.set_doublet(193, 0b10)
        assert phr.doublet(193) == 0b10
        phr.set_doublet(193, 0b01)
        assert phr.doublet(193) == 0b01

    def test_out_of_range_rejected(self):
        phr = PathHistoryRegister(16)
        with pytest.raises(ValueError):
            phr.doublet(16)
        with pytest.raises(ValueError):
            phr.set_doublet(0, 4)


class TestEqualityCopy:
    def test_equal_registers(self):
        a = PathHistoryRegister(194, value=99)
        b = PathHistoryRegister(194, value=99)
        assert a == b
        assert hash(a) == hash(b)

    def test_capacity_distinguishes(self):
        assert PathHistoryRegister(93, 5) != PathHistoryRegister(194, 5)

    def test_copy_is_independent(self):
        a = PathHistoryRegister(194, value=7)
        b = a.copy()
        b.shift(1)
        assert a.value == 7


class TestReverseUpdate:
    @given(st.integers(min_value=0, max_value=2**386 - 1), branch_strategy)
    @settings(max_examples=40)
    def test_reverse_inverts_update_below_msb(self, initial, branch):
        """reverse_update recovers everything but the shifted-out doublet."""
        pc, target = branch
        phr = PathHistoryRegister(194, value=initial)
        before = phr.value
        phr.update(pc, target)
        recovered, unknown_index = phr.reverse_update(pc, target)
        assert unknown_index == 193
        low_mask = (1 << (2 * 193)) - 1
        assert recovered == before & low_mask

    def test_reverse_on_known_case(self):
        phr = PathHistoryRegister(194)
        phr.update(0x40AC00, 0x40AC40)
        recovered, __ = phr.reverse_update(0x40AC00, 0x40AC40)
        assert recovered == 0


class TestReplay:
    def test_replay_matches_manual(self):
        branches = [(0x1000, 0x1040), (0x2004, 0x2080), (0x3008, 0x30C0)]
        manual = PathHistoryRegister(194)
        for pc, target in branches:
            manual.update(pc, target)
        assert replay_taken_branches(194, branches).value == manual.value

    def test_replay_initial_value(self):
        replayed = replay_taken_branches(194, [], initial_value=0xF0)
        assert replayed.value == 0xF0

    @given(st.lists(branch_strategy, min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_skylake_is_truncated_raptor(self, branches):
        """Observation 1 flip side: only the capacity differs between
        machines; a smaller PHR is the truncation of a larger one."""
        small = replay_taken_branches(93, branches)
        large = replay_taken_branches(194, branches)
        assert small.value == large.value & ((1 << (2 * 93)) - 1)
