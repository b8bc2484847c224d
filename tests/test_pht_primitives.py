"""Tests for Write_PHT and Read_PHT (Attack Primitives 2 and 3)."""

import pytest

from repro.cpu import Machine, RAPTOR_LAKE
from repro.fuzz.twins import NaivePhtReader
from repro.primitives import PhtReader, PhtWriter
from repro.utils.rng import DeterministicRng

VICTIM_PC = 0x0040_AC00
VICTIM_TARGET = VICTIM_PC + 0x40


class TestWritePht:
    def test_planted_taken_prediction(self, machine):
        phr_value = DeterministicRng(1).value_bits(388)
        PhtWriter(machine).write(VICTIM_PC, phr_value, taken=True)
        machine.phr(0).set_value(phr_value)
        assert machine.cbp.predict(VICTIM_PC, machine.phr(0)).taken

    def test_planted_not_taken_prediction(self, machine):
        phr_value = DeterministicRng(2).value_bits(388)
        # Give the victim branch a taken bias first, as in the AES attack.
        for _ in range(4):
            machine.phr(0).set_value(phr_value)
            machine.observe_conditional(VICTIM_PC, VICTIM_TARGET, True)
        PhtWriter(machine).write(VICTIM_PC, phr_value, taken=False)
        machine.phr(0).set_value(phr_value)
        assert not machine.cbp.predict(VICTIM_PC, machine.phr(0)).taken

    def test_poison_is_phr_specific(self, machine):
        """The high-resolution property: other PHR values keep their own
        prediction."""
        rng = DeterministicRng(3)
        phr_poisoned = rng.value_bits(388)
        phr_other = rng.value_bits(388)
        for value in (phr_poisoned, phr_other):
            for _ in range(8):
                machine.phr(0).set_value(value)
                machine.observe_conditional(VICTIM_PC, VICTIM_TARGET, True)
        PhtWriter(machine).write(VICTIM_PC, phr_poisoned, taken=False)
        machine.phr(0).set_value(phr_poisoned)
        assert not machine.cbp.predict(VICTIM_PC, machine.phr(0)).taken
        machine.phr(0).set_value(phr_other)
        assert machine.cbp.predict(VICTIM_PC, machine.phr(0)).taken

    def test_cross_address_aliasing(self, machine):
        """The attacker's branch lives at a different address with equal
        low 16 bits; the victim still consumes the planted entry."""
        phr_value = DeterministicRng(4).value_bits(388)
        writer = PhtWriter(machine, pc_alias_offset=0x2_0000_0000)
        writer.write(VICTIM_PC, phr_value, taken=True)
        machine.phr(0).set_value(phr_value)
        assert machine.cbp.predict(VICTIM_PC, machine.phr(0)).taken

    def test_alias_offset_must_preserve_low_bits(self, machine):
        with pytest.raises(ValueError):
            PhtWriter(machine, pc_alias_offset=0x1234)

    def test_repetitions_validated(self, machine):
        with pytest.raises(ValueError):
            PhtWriter(machine, repetitions=0)


class TestReadPht:
    def test_untouched_entry_reads_as_strongly_not_taken(self, machine):
        phr_value = DeterministicRng(5).value_bits(388)
        reader = PhtReader(machine)
        result = reader.read(VICTIM_PC, phr_value, run_victim=lambda: None)
        assert result.mispredictions == 4
        assert result.inferred_counter == 0

    @pytest.mark.parametrize("victim_updates", [1, 2, 3])
    def test_counts_victim_taken_updates(self, machine, victim_updates):
        """Paper Section 4.4: '2 mispredictions indicates it moved two
        steps away, perhaps due to two taken branch instances'."""
        phr_value = DeterministicRng(6).value_bits(388)

        def run_victim():
            for _ in range(victim_updates):
                machine.phr(0).set_value(phr_value)
                machine.observe_conditional(VICTIM_PC, VICTIM_TARGET, True)

        reader = PhtReader(machine)
        result = reader.read(VICTIM_PC, phr_value, run_victim)
        assert result.mispredictions == 4 - victim_updates
        assert result.inferred_counter == victim_updates

    def test_prime_saturates_counter(self, machine):
        phr_value = DeterministicRng(7).value_bits(388)
        reader = PhtReader(machine)
        reader.prime(VICTIM_PC, phr_value)
        machine.phr(0).set_value(phr_value)
        prediction = machine.cbp.predict(VICTIM_PC, machine.phr(0))
        assert not prediction.taken
        assert prediction.entry is not None
        assert prediction.entry.counter.value == 0

    def test_read_is_repeatable(self, machine):
        phr_value = DeterministicRng(8).value_bits(388)
        reader = PhtReader(machine)
        first = reader.read(VICTIM_PC, phr_value, run_victim=lambda: None)
        second = reader.read(VICTIM_PC, phr_value, run_victim=lambda: None)
        assert first.mispredictions == second.mispredictions

    def test_read_batch_matches_naive_twin(self):
        """One replayed prime+victim prefix serves every coordinate
        exactly as re-running the prefix per coordinate does."""
        rng = DeterministicRng(9)
        coordinates = [(VICTIM_PC + 0x40 * i, rng.value_bits(388))
                       for i in range(3)]
        results = {}
        for name, reader_class in (("replay", PhtReader),
                                   ("naive", NaivePhtReader)):
            machine = Machine(RAPTOR_LAKE)

            def run_victim(machine=machine):
                for pc, value in coordinates[:2]:
                    machine.phr(0).set_value(value)
                    machine.observe_conditional(pc, pc + 0x40, True)

            results[name] = [(r.mispredictions, r.inferred_counter)
                             for r in reader_class(machine).read_batch(
                                 coordinates, run_victim)]
        assert results["replay"] == results["naive"]
        assert [counter for __, counter in results["replay"]] == [1, 1, 0]
