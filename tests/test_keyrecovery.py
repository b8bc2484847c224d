"""Tests for the differential two-round key recovery (pure cryptanalysis).

These use a direct (non-simulated) reduced-round oracle so they exercise
the mathematics independently of the microarchitectural pipeline.  The
table-driven survivor filter is pinned against the plain loop it
replaced (:func:`reference_survivors`), which tries every ``u`` per guess
and output row, and against its numpy twin for the wide sweep.
"""

import numpy as np
import pytest

from repro.aes.core import SBOX, _gf_mul, reduced_round_ciphertext
from repro.aes.keyrecovery import (
    DEFAULT_DELTAS,
    _difference_table,
    _mc_coefficient,
    affected_output_bytes,
    key_byte_survivors,
    recover_key_byte,
    recover_key_from_two_round_oracle,
)
from repro.aes.keyschedule import expand_key
from repro.utils.rng import DeterministicRng


def direct_oracle(key):
    round_keys = expand_key(key)

    def oracle(plaintext: bytes) -> bytes:
        return reduced_round_ciphertext(plaintext, round_keys, 1)

    return oracle


def reference_survivors(base_byte, index, deltas, observed):
    """The survivor filter as a plain loop: every ``u`` per guess and
    output row, no tables (the loop :func:`key_byte_survivors`
    replaced)."""
    survivors = []
    for guess in range(256):
        # The inner differences this guess predicts, per delta.
        inner = {
            delta: SBOX[base_byte ^ guess] ^ SBOX[base_byte ^ delta ^ guess]
            for delta in deltas
        }
        consistent = False
        for output_row in range(4):
            coefficient = _mc_coefficient(index, output_row)
            for u in range(256):
                if all(
                    (SBOX[u] ^ SBOX[u ^ _gf_mul(inner[delta], coefficient)])
                    == observed[position][output_row]
                    for position, delta in enumerate(deltas)
                ):
                    consistent = True
                    break
            if consistent:
                break
        if consistent:
            survivors.append(guess)
    return survivors


def reference_recover_key_byte(oracle, base_plaintext, index, base_rrc=None,
                               deltas=DEFAULT_DELTAS):
    """:func:`recover_key_byte` over :func:`reference_survivors`."""
    if base_rrc is None:
        base_rrc = oracle(base_plaintext)
    observed = observe(oracle, base_plaintext, base_rrc, index, deltas)
    survivors = reference_survivors(base_plaintext[index], index, deltas,
                                    observed)
    if len(survivors) == 1:
        return survivors[0]
    if not survivors:
        raise RuntimeError(f"no key-byte candidate survived at index {index}")
    extra = [d for d in range(1, 256) if d not in deltas][:4]
    return reference_recover_key_byte(oracle, base_plaintext, index,
                                      base_rrc=base_rrc,
                                      deltas=tuple(deltas) + tuple(extra))


SBOX_ARRAY = np.array(SBOX, dtype=np.uint8)
GF_MULTIPLY = {coefficient: np.array([_gf_mul(x, coefficient)
                                      for x in range(256)], dtype=np.uint8)
               for coefficient in (1, 2, 3)}


def vectorized_reference_survivors(base_byte, index, deltas, observed):
    """:func:`reference_survivors` over all (guess, u) pairs at once.

    The same exhaustive predicate in numpy (exact integer arithmetic),
    fast enough to sweep hundreds of cases; tied to the loop by
    ``test_forced_ambiguity_refines_with_the_same_queries``.
    """
    guesses = np.arange(256, dtype=np.uint8)[:, None]
    every_u = np.arange(256, dtype=np.uint8)[None, :]
    alive = np.zeros(256, dtype=bool)
    for output_row in range(4):
        multiply = GF_MULTIPLY[_mc_coefficient(index, output_row)]
        consistent = np.ones((256, 256), dtype=bool)
        for position, delta in enumerate(deltas):
            inner = (SBOX_ARRAY[base_byte ^ guesses]
                     ^ SBOX_ARRAY[base_byte ^ delta ^ guesses])
            consistent &= ((SBOX_ARRAY[every_u]
                            ^ SBOX_ARRAY[every_u ^ multiply[inner]])
                           == observed[position][output_row])
        alive |= consistent.any(axis=1)
    return np.flatnonzero(alive).tolist()


def observe(oracle, base_plaintext, base_rrc, index, deltas):
    """``observed[j][row]`` for :func:`key_byte_survivors`."""
    observed = []
    for delta in deltas:
        flipped = bytearray(base_plaintext)
        flipped[index] ^= delta
        rrc = oracle(bytes(flipped))
        observed.append([base_rrc[b] ^ rrc[b]
                         for b in affected_output_bytes(index)])
    return observed


def recording(oracle):
    """``oracle`` plus the list of plaintexts it was asked, in order."""
    queries = []

    def recorded(plaintext):
        queries.append(plaintext)
        return oracle(plaintext)

    return recorded, queries


class TestAffectedBytes:
    def test_each_plaintext_byte_hits_four_outputs(self):
        for index in range(16):
            affected = affected_output_bytes(index)
            assert len(set(affected)) == 4

    def test_prediction_matches_reality(self):
        """Flipping plaintext byte i changes exactly the predicted four
        output bytes."""
        key = DeterministicRng(1).bytes(16)
        oracle = direct_oracle(key)
        base = DeterministicRng(2).bytes(16)
        base_rrc = oracle(base)
        for index in range(16):
            flipped = bytearray(base)
            flipped[index] ^= 0x35
            rrc = oracle(bytes(flipped))
            changed = {i for i in range(16) if rrc[i] != base_rrc[i]}
            assert changed <= set(affected_output_bytes(index))
            assert len(changed) >= 3  # differentials rarely cancel


class TestKeyByteRecovery:
    def test_recovers_each_byte_position(self):
        key = DeterministicRng(3).bytes(16)
        oracle = direct_oracle(key)
        base = DeterministicRng(4).bytes(16)
        for index in (0, 5, 10, 15):
            assert recover_key_byte(oracle, base, index) == key[index]

    def test_works_for_all_zero_key(self):
        oracle = direct_oracle(bytes(16))
        base = DeterministicRng(5).bytes(16)
        assert recover_key_byte(oracle, base, 7) == 0


class TestTableDrivenFilter:
    def test_difference_table_is_four_uniform(self):
        counts, solutions = _difference_table()
        assert max(counts) == 4
        for a in (0x01, 0x4A, 0xFF):
            assert sum(counts[a << 8:(a + 1) << 8]) == 256
            for b in range(256):
                slot = (a << 8) | b
                found = solutions[4 * slot:4 * slot + counts[slot]]
                assert sorted(found) == [u for u in range(256)
                                         if SBOX[u] ^ SBOX[u ^ a] == b]

    def test_survivors_match_reference(self):
        """32 random (key, base) pairs x all 16 indices, with the default
        deltas (a unique survivor, almost always) and with one random
        delta (many survivors, so every output row is exercised)."""
        rng = DeterministicRng(0x5EED)
        ambiguous = 0
        for _ in range(32):
            key, base = rng.bytes(16), rng.bytes(16)
            oracle = direct_oracle(key)
            base_rrc = oracle(base)
            for index in range(16):
                for deltas in (DEFAULT_DELTAS, (rng.integer(1, 255),)):
                    observed = observe(oracle, base, base_rrc, index, deltas)
                    survivors = key_byte_survivors(base[index], index,
                                                   deltas, observed)
                    assert survivors == vectorized_reference_survivors(
                        base[index], index, deltas, observed)
                    assert key[index] in survivors
                    ambiguous += len(survivors) > 1
        assert ambiguous >= 16 * 32

    def test_forced_ambiguity_refines_with_the_same_queries(self):
        """One delta leaves several survivors: the refinement branch
        queries four more deltas and reuses the one already measured --
        the reference's queries in its order, minus its re-query."""
        key = DeterministicRng(9).bytes(16)
        base = DeterministicRng(10).bytes(16)
        oracle = direct_oracle(key)
        base_rrc = oracle(base)
        deltas = (0x01,)
        for tried in (deltas, (0x01, 0x02, 0x03, 0x04, 0x05)):
            observed = observe(oracle, base, base_rrc, 0, tried)
            survivors = key_byte_survivors(base[0], 0, tried, observed)
            assert survivors == reference_survivors(base[0], 0, tried,
                                                    observed)
            assert survivors == vectorized_reference_survivors(
                base[0], 0, tried, observed)
            assert key[0] in survivors
            assert (len(survivors) > 1) == (tried == deltas)

        new_oracle, new_queries = recording(oracle)
        old_oracle, old_queries = recording(oracle)
        assert recover_key_byte(new_oracle, base, 0, base_rrc=base_rrc,
                                deltas=deltas) == key[0]
        assert reference_recover_key_byte(old_oracle, base, 0,
                                          base_rrc=base_rrc,
                                          deltas=deltas) == key[0]
        assert new_queries == list(dict.fromkeys(old_queries))
        flipped = [query[0] ^ base[0] for query in new_queries]
        assert flipped == [0x01, 0x02, 0x03, 0x04, 0x05]

    @pytest.mark.parametrize("deltas", [(), (0x00, 0x01), (0x01, 0x100)])
    def test_rejects_deltas_outside_one_byte(self, deltas):
        with pytest.raises(ValueError, match="deltas"):
            key_byte_survivors(0, 0, deltas, [[0] * 4] * len(deltas))


class TestFullKeyRecovery:
    def test_recovers_full_key(self):
        key = DeterministicRng(6).bytes(16)
        recovered = recover_key_from_two_round_oracle(
            direct_oracle(key), rng=DeterministicRng(7)
        )
        assert recovered == key

    def test_recovers_structured_key(self):
        key = bytes(range(16))
        recovered = recover_key_from_two_round_oracle(
            direct_oracle(key), rng=DeterministicRng(8)
        )
        assert recovered == key
