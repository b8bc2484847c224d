"""Tests for the AES victim program, oracle and the Section 9 attack."""

import pytest

from repro.aes import (AesSpectreAttack, AmbiguousChannelError,
                       EncryptionOracle, LeakResult, ecb_encrypt)
from repro.aes.victim import AesVictim
from repro.cpu import Machine, RAPTOR_LAKE
from repro.isa.interpreter import CpuState
from repro.isa.memory import Memory
from repro.utils.rng import DeterministicRng


KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


class TestVictimProgram:
    def run_victim(self, plaintext, key=KEY):
        victim = AesVictim(key)
        machine = Machine(RAPTOR_LAKE)
        memory = Memory()
        victim.provision(memory, plaintext)
        machine.run(victim.program, state=CpuState(), memory=memory,
                    entry=victim.program.address_of("aes_encrypt"))
        return victim.read_ciphertext(memory)

    def test_output_matches_reference(self):
        plaintext = bytes(range(16))
        assert self.run_victim(plaintext) == ecb_encrypt(plaintext, KEY)

    def test_output_matches_reference_random(self):
        rng = DeterministicRng(3)
        for _ in range(3):
            key = rng.bytes(16)
            plaintext = rng.bytes(16)
            assert self.run_victim(plaintext, key) == \
                   ecb_encrypt(plaintext, key)

    def test_aes256_victim(self):
        key = bytes(range(32))
        plaintext = bytes(range(16))
        assert self.run_victim(plaintext, key) == ecb_encrypt(plaintext, key)

    def test_loop_branch_pattern(self):
        """The loop back edge is taken rounds-2 times, then falls through
        (AES-128: 10 rounds, 9 loop iterations, 8 taken back edges)."""
        victim = AesVictim(KEY)
        machine = Machine(RAPTOR_LAKE)
        memory = Memory()
        victim.provision(memory, bytes(16))
        result = machine.run(victim.program, state=CpuState(), memory=memory,
                             entry=victim.program.address_of("aes_encrypt"))
        loop_records = [r for r in result.trace
                        if r.pc == victim.loop_branch_pc]
        assert [r.taken for r in loop_records] == [True] * 8 + [False]


class TestOracle:
    def test_oracle_returns_ciphertext(self):
        machine = Machine(RAPTOR_LAKE)
        oracle = EncryptionOracle(machine, KEY)
        plaintext = bytes(range(16))
        ciphertext, __ = oracle.run_and_read(plaintext)
        assert ciphertext == ecb_encrypt(plaintext, KEY)

    def test_oracle_leak_gadget_touches_probe(self):
        machine = Machine(RAPTOR_LAKE)
        oracle = EncryptionOracle(machine, KEY)
        oracle.channel.flush()
        ciphertext, __ = oracle.run_and_read(bytes(16))
        hot = set(oracle.channel.hot_slots())
        for position in range(16):
            assert position * 256 + ciphertext[position] in hot


class TestAttack:
    @pytest.fixture
    def attack(self):
        return AesSpectreAttack(Machine(RAPTOR_LAKE), KEY,
                                rng=DeterministicRng(0xA))

    def test_profile_finds_nine_iterations(self, attack):
        assert sorted(attack.profile()) == list(range(1, 10))

    def test_profile_phr_values_distinct(self, attack):
        values = list(attack.profile().values())
        assert len(set(values)) == len(values)

    @pytest.mark.parametrize("exit_iteration", [1, 4, 8])
    def test_leak_matches_ground_truth(self, attack, exit_iteration):
        plaintext = DeterministicRng(exit_iteration).bytes(16)
        leak = attack.leak_reduced_round(plaintext, exit_iteration)
        truth = attack.ground_truth_rrc(plaintext, exit_iteration)
        assert bytes(leak.recovered) == truth
        assert leak.coverage == 1.0

    def test_poison_hits_only_target_iteration(self, attack):
        """The high-resolution claim: exactly one extra misprediction, at
        the poisoned iteration."""
        plaintext = bytes(16)
        attack.profile()
        machine = attack.machine
        # Warm run to settle predictions.
        machine.clear_phr()
        attack.oracle.run(plaintext)
        machine.clear_phr()
        warm = attack.oracle.run(plaintext)
        warm_misses = warm.perf.conditional_mispredictions
        leak_before = machine.perf.snapshot()
        attack.leak_reduced_round(plaintext, exit_iteration=3)
        delta = machine.perf.delta(leak_before)
        poisoned_misses = delta.per_pc_mispredictions.get(
            attack.oracle.victim.loop_branch_pc, 0
        )
        assert poisoned_misses == warm_misses + 1

    def test_invalid_iteration_rejected(self, attack):
        with pytest.raises(ValueError):
            attack.leak_reduced_round(bytes(16), exit_iteration=10)

    def test_success_rate_is_full_in_simulator(self, attack):
        plaintext = DeterministicRng(5).bytes(16)
        assert attack.success_rate(plaintext, 2) == 1.0

    def test_two_round_oracle_output(self, attack):
        plaintext = DeterministicRng(6).bytes(16)
        assert attack.two_round_oracle(plaintext) == \
               attack.ground_truth_rrc(plaintext, 1)


class TestRetryBudget:
    """``two_round_leak`` against a channel that never disambiguates."""

    @staticmethod
    def ambiguous_attack(use_checkpoints, budget=3):
        attack = AesSpectreAttack(Machine(RAPTOR_LAKE), KEY,
                                  retry_budget=budget,
                                  use_checkpoints=use_checkpoints)
        calls = []

        def leak_reduced_round(plaintext, exit_iteration,
                               from_checkpoint=None):
            leak = LeakResult(recovered=[-1] + [0] * 15,
                              ciphertext=bytes(16), coverage=15 / 16)
            calls.append((exit_iteration, from_checkpoint, leak))
            return leak

        attack.leak_reduced_round = leak_reduced_round
        return attack, calls

    @pytest.mark.parametrize("use_checkpoints", [False, True])
    def test_budget_runs_out_with_the_last_attempt(self, use_checkpoints):
        attack, calls = self.ambiguous_attack(use_checkpoints)
        with pytest.raises(AmbiguousChannelError) as excinfo:
            attack.two_round_leak(bytes(16))
        error = excinfo.value
        assert error.attempts == attack.retry_budget == len(calls) == 3
        assert error.last is calls[-1][2] and error.last.attempts == 3
        assert error.plaintext == bytes(16)
        assert [call[:2] for call in calls] == [
            (1, use_checkpoints), (1, False), (1, False)]

    def test_explicit_budget_overrides_the_attack_budget(self):
        attack, calls = self.ambiguous_attack(True)
        with pytest.raises(AmbiguousChannelError) as excinfo:
            attack.two_round_leak(bytes(16), retry_budget=5)
        assert excinfo.value.attempts == len(calls) == 5

    def test_zero_budget_is_rejected(self):
        attack, calls = self.ambiguous_attack(False)
        with pytest.raises(ValueError, match="retry budget"):
            attack.two_round_leak(bytes(16), retry_budget=0)
        with pytest.raises(ValueError, match="retry budget"):
            AesSpectreAttack(Machine(RAPTOR_LAKE), KEY, retry_budget=0)
        assert calls == []


class TestKeyRecoveryIntegration:
    def test_recover_single_key_byte_through_full_stack(self):
        """One byte through the complete pipeline."""
        from repro.aes.keyrecovery import recover_key_byte

        rng = DeterministicRng(0xFACE)
        key = rng.bytes(16)
        attack = AesSpectreAttack(Machine(RAPTOR_LAKE), key, rng=rng.fork(1))
        base_plaintext = rng.bytes(16)
        recovered = recover_key_byte(attack.two_round_oracle, base_plaintext,
                                     index=0)
        assert recovered == key[0]

    def test_recover_full_key_through_full_stack(self):
        rng = DeterministicRng(0xBEEF)
        key = rng.bytes(16)
        attack = AesSpectreAttack(Machine(RAPTOR_LAKE), key, rng=rng.fork(1),
                                  use_checkpoints=True)
        assert attack.recover_key(workers=1) == key

    @pytest.mark.parametrize("workers", [0, 2])
    def test_recover_key_runs_serially_only(self, workers):
        attack = AesSpectreAttack(Machine(RAPTOR_LAKE), KEY)
        with pytest.raises(ValueError, match="workers must be None or 1"):
            attack.recover_key(workers=workers)
