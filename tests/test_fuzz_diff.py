"""The differential harness, invariant oracle, and shrinker."""

from __future__ import annotations

import pytest

from repro.cpu import Machine, RAPTOR_LAKE
from repro.fuzz import diff, generator
from repro.fuzz.oracle import (
    InvariantOracle,
    InvariantViolation,
    check_fast_invariants,
    check_structural_invariants,
)
from repro.fuzz.shrink import ddmin_positions
from repro.utils.rng import DeterministicRng


class TestCleanSweep:
    """The twins agree over a modest program sweep (the CI-sized slice;
    ``python -m repro.fuzz`` runs the full campaign)."""

    @pytest.mark.parametrize("index", range(15))
    def test_smoke_programs_clean(self, index):
        fp = generator.generate_program(0xD1FF, index, profile="smoke")
        assert diff.check_program(fp) == []

    @pytest.mark.fuzz
    @pytest.mark.slow
    @pytest.mark.parametrize("index", range(60))
    def test_default_profile_sweep(self, index):
        fp = generator.generate_program(0xD1FF, index)
        assert diff.check_program(fp) == []

    def test_aes_data_paths_agree(self):
        for index in range(3):
            rng = DeterministicRng(0xAE5).fork(index)
            assert diff.check_aes_data_paths(rng) == []

    def test_batch_twin_arm_clean_and_skips(self):
        pytest.importorskip("numpy")
        fp = generator.generate_program(0xD1FF, 0, profile="smoke")
        assert diff._check_batch_twin(fp, machine_mutator=None) == []
        # A machine_mutator perturbs scalar machines only, so the arm
        # must stand down rather than report spurious divergences.
        assert diff._check_batch_twin(fp, machine_mutator=lambda m: None) \
            == []

    def test_batch_twin_arm_is_not_vacuous(self, monkeypatch):
        """A perturbed batch replica must register as a divergence."""
        pytest.importorskip("numpy")
        import repro.batch as batch_module

        from repro.cpu.machine import Machine

        real = batch_module.BatchMachine

        class Perturbed(real):
            def run_batch(self, *args, **kwargs):
                results = super().run_batch(*args, **kwargs)
                # Rewind every replica to a fresh machine after the run:
                # the extracted snapshots no longer match the scalar
                # machines.
                self.load_snapshot(Machine(self.config).snapshot())
                return results

        monkeypatch.setattr(batch_module, "BatchMachine", Perturbed)
        fp = generator.generate_program(0xD1FF, 0, profile="smoke")
        divergences = diff._check_batch_twin(fp, machine_mutator=None)
        assert divergences, "perturbed batch arm reported no divergence"
        assert any(d.kind == "snapshot" for d in divergences)


class TestArmDigests:
    def test_run_arm_captures_commit_stream(self):
        fp = generator.generate_program(0, 1, profile="smoke")
        arm = diff.run_arm(fp, engine="fast")
        assert arm.halted
        assert arm.commits, "no branches committed"
        pc, kind, taken, phr, mispredictions = arm.commits[0]
        assert isinstance(pc, int) and isinstance(taken, bool)
        assert kind in ("conditional", "jump", "indirect", "call", "ret")

    def test_observer_cleared_after_run(self):
        fp = generator.generate_program(0, 1, profile="smoke")
        diff.run_arm(fp, engine="fast")
        # run_arm builds its own machine; verify via a reused machine.
        machine = Machine(fp.machine_config)
        diff.run_arm(fp, engine="fast", machine=machine)
        assert machine.branch_observer is None

    def test_engines_digest_identically(self):
        fp = generator.generate_program(0, 2, profile="smoke")
        ref = diff.run_arm(fp, engine="reference")
        fast = diff.run_arm(fp, engine="fast")
        assert ref.regs == fast.regs
        assert ref.trace == fast.trace
        assert ref.commits == fast.commits
        assert ref.fingerprint == fast.fingerprint


class TestOracle:
    def test_clean_machine_passes(self, machine):
        assert check_fast_invariants(machine) == []
        assert check_structural_invariants(machine, deep=True) == []

    def test_detects_phr_overflow(self, machine):
        phr = machine.thread().phr
        phr._value = 1 << (2 * phr.capacity + 3)
        violations = check_fast_invariants(machine)
        assert any("history value" in v for v in violations)

    def test_detects_counter_escape(self, machine):
        machine.observe_conditional(0x400000, 0x400100, True)
        base = machine.cbp.base
        index = next(iter(base._populated))
        base._counters[index].value = 99
        violations = check_structural_invariants(machine)
        assert any("outside" in v for v in violations)

    def test_detects_populated_drift(self, machine):
        machine.cbp.base._populated.add(12345 % len(
            machine.cbp.base._counters))
        violations = check_structural_invariants(machine)
        assert any("_populated" in v or "empty" in v for v in violations)

    def test_detects_perf_inconsistency(self, machine):
        machine.perf.conditional_mispredictions = 5
        violations = check_fast_invariants(machine)
        assert any("exceed" in v for v in violations)

    def test_oracle_raises_at_commit(self):
        machine = Machine(RAPTOR_LAKE)
        oracle = InvariantOracle(machine, stride=1)
        machine.perf.conditional_mispredictions = 7
        with pytest.raises(InvariantViolation, match="commit #1"):
            oracle(0x400000, None, True)

    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError):
            InvariantOracle(Machine(RAPTOR_LAKE), stride=-1)

    def test_violation_lands_in_digest_not_raise(self):
        """run_arm converts oracle violations into the digest."""
        fp = generator.generate_program(0, 3, profile="smoke")

        def poison(machine):
            machine.perf.conditional_mispredictions = 10_000

        arm = diff.run_arm(fp, engine="fast", machine_mutator=poison)
        assert arm.oracle_violation is not None
        divergences = diff.check_program(fp, machine_mutator=poison)
        assert any(d.kind == "invariant" for d in divergences)


class TestDdmin:
    def test_single_culprit_isolated(self):
        culprit = 7
        result = ddmin_positions(
            tuple(range(12)), lambda subset: culprit in subset)
        assert result == (culprit,)

    def test_pair_interaction_isolated(self):
        result = ddmin_positions(
            tuple(range(16)),
            lambda subset: 3 in subset and 11 in subset)
        assert result == (3, 11)

    def test_result_is_one_minimal(self):
        def fails(subset):
            return sum(subset) >= 10 and len(subset) >= 2

        result = ddmin_positions(tuple(range(1, 9)), fails)
        assert fails(result)
        for drop in range(len(result)):
            candidate = result[:drop] + result[drop + 1:]
            assert not (candidate and fails(candidate))

    def test_preserves_order(self):
        result = ddmin_positions(
            (2, 5, 9, 14), lambda subset: {5, 14} <= set(subset))
        assert result == (5, 14)
