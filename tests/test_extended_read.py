"""Tests for Extended_Read_PHR (Attack Primitive 4, Figure 5)."""

import pytest

from repro.cpu import Machine, RAPTOR_LAKE, SKYLAKE
from repro.cpu.phr import PathHistoryRegister
from repro.fuzz.twins import NaiveExtendedPhrReader
from repro.primitives import ExtendedPhrReader, TakenBranch
from repro.utils.rng import DeterministicRng


def random_branches(count, seed, conditional_probability=0.75):
    rng = DeterministicRng(seed)
    branches = []
    pc = 0x40_0000
    for _ in range(count):
        pc += rng.integer(1, 4000) * 4
        target = pc + rng.integer(1, 2000) * 4
        conditional = rng.integer(1, 100) <= conditional_probability * 100
        branches.append(TakenBranch(pc, target, conditional))
    return branches


def unbounded_truth(branches):
    register = PathHistoryRegister(len(branches))
    for branch in branches:
        register.update(branch.pc, branch.target)
    return register.doublets()


class TestRecovery:
    def test_short_history_is_plain_read(self):
        branches = random_branches(50, seed=1)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        result = reader.read(branches)
        assert result.complete
        assert result.probes == 0
        assert result.doublets == unbounded_truth(branches)

    @pytest.mark.parametrize("count", [250, 400])
    def test_recovers_beyond_phr_capacity(self, count):
        branches = random_branches(count, seed=count)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        result = reader.read(branches)
        assert result.complete
        assert result.doublets == unbounded_truth(branches)
        assert result.probes > 0

    def test_skylake_smaller_window(self):
        branches = random_branches(150, seed=9)
        reader = ExtendedPhrReader(Machine(SKYLAKE))
        result = reader.read(branches)
        assert result.complete
        assert result.doublets == unbounded_truth(branches)

    def test_bridges_unconditional_gaps(self):
        branches = random_branches(260, seed=3,
                                   conditional_probability=0.5)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        result = reader.read(branches)
        assert result.complete
        assert result.max_gap >= 1
        assert result.doublets == unbounded_truth(branches)

    def test_all_conditional_needs_no_gap_handling(self):
        branches = random_branches(230, seed=5, conditional_probability=1.0)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        result = reader.read(branches)
        assert result.complete
        assert result.max_gap == 0
        assert result.doublets == unbounded_truth(branches)


class TestLimitations:
    def test_long_unconditional_run_fails(self):
        """The paper's stated limitation: long runs of unconditional taken
        branches defeat the PHT side channel."""
        conditional = random_branches(220, seed=7,
                                      conditional_probability=1.0)
        # Splice an unconditional run into the backward-walk region (the
        # branches beyond PHR capacity) longer than the gap budget.
        run_start = 200
        spliced = list(conditional)
        for index in range(run_start, run_start + 6):
            branch = spliced[index]
            spliced[index] = TakenBranch(branch.pc, branch.target, False)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE), max_gap=3)
        result = reader.read(spliced)
        assert not result.complete

    def test_derived_tail_for_oldest_doublets(self):
        """An unconditional branch at the oldest backward-walk position
        (index == PHR capacity) leaves a doublet no probe can reach; it is
        derived from the entry-anchored identities instead."""
        branches = random_branches(220, seed=11, conditional_probability=1.0)
        oldest_walked = branches[194]
        branches[194] = TakenBranch(oldest_walked.pc, oldest_walked.target,
                                    False)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        result = reader.read(branches)
        assert result.complete
        assert result.derived_tail >= 1
        assert result.doublets == unbounded_truth(branches)


class TestProbeMechanics:
    def test_collision_detected_on_true_candidate(self):
        machine = Machine(RAPTOR_LAKE)
        reader = ExtendedPhrReader(machine)
        truth = DeterministicRng(13).value_bits(388)
        assert reader._probe_collision(0x40AC00, truth, truth)

    def test_no_collision_on_wrong_candidate(self):
        machine = Machine(RAPTOR_LAKE)
        reader = ExtendedPhrReader(machine)
        rng = DeterministicRng(17)
        truth = rng.value_bits(388)
        wrong = truth ^ (0b11 << (2 * 193))
        assert not reader._probe_collision(0x40AC00, truth, wrong)

    def test_observed_doublets_can_be_supplied(self):
        """Feeding the Read_PHR output explicitly must give the same
        result as the internally computed history."""
        branches = random_branches(210, seed=19)
        physical = PathHistoryRegister(194)
        for branch in branches:
            physical.update(branch.pc, branch.target)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        result = reader.read(branches,
                             observed_phr_doublets=physical.doublets())
        assert result.complete
        assert result.doublets == unbounded_truth(branches)

    def test_short_observed_history_raises_named_error(self):
        """An undersized Read_PHR window raises HistoryLengthError
        instead of silently anchoring the reversal on a clipped value."""
        from repro.primitives import HistoryLengthError

        branches = random_branches(210, seed=19)
        reader = ExtendedPhrReader(Machine(RAPTOR_LAKE))
        with pytest.raises(HistoryLengthError):
            reader.read(branches, observed_phr_doublets=[0, 1, 2, 3])
        with pytest.raises(HistoryLengthError):
            reader.read(branches, observed_phr_doublets=[0] * 200)


class TestReusePolicies:
    def test_checkpoint_matches_naive_twin_bit_for_bit(self):
        """Order-independent probing through the replay engine: restore
        per probe must equal the naive twin's full victim refresh per
        round doublet for doublet."""
        branches = random_branches(206, seed=7)
        results = {}
        for reuse, reader_class in (("checkpoint", ExtendedPhrReader),
                                    ("none", NaiveExtendedPhrReader)):
            reader = reader_class(Machine(RAPTOR_LAKE),
                                  reset_between_probes=True)
            results[reuse] = reader.read(branches)
        assert results["checkpoint"].complete
        assert results["none"].complete
        assert results["checkpoint"].doublets == results["none"].doublets
        assert results["checkpoint"].doublets == unbounded_truth(branches)
        assert results["checkpoint"].probes == results["none"].probes
