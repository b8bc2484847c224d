"""Tests for the AES core against FIPS-197 vectors and round properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aes.core import (
    INV_SHIFT_ROWS_MAP,
    SBOX,
    INV_SBOX,
    SHIFT_ROWS_MAP,
    add_round_key,
    aesenc,
    aesenclast,
    decrypt_block,
    encrypt_block,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    reduced_round_ciphertext,
    shift_rows,
    sub_bytes,
)
from repro.aes.keyschedule import expand_key
from repro.fuzz.twins import (
    aesenc_reference,
    aesenclast_reference,
    inv_mix_columns_reference,
    mix_columns_reference,
)

block_strategy = st.binary(min_size=16, max_size=16)
key_strategy = st.binary(min_size=16, max_size=16)


class TestFipsVectors:
    def test_appendix_b_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        ciphertext = encrypt_block(plaintext, expand_key(key))
        assert ciphertext.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_appendix_c1_aes128(self):
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = encrypt_block(plaintext, expand_key(key))
        assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_appendix_c2_aes192(self):
        key = bytes(range(24))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = encrypt_block(plaintext, expand_key(key))
        assert ciphertext.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_appendix_c3_aes256(self):
        key = bytes(range(32))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = encrypt_block(plaintext, expand_key(key))
        assert ciphertext.hex() == "8ea2b7ca516745bfeafc49904b496089"


class TestSbox:
    def test_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_sbox(self):
        assert all(INV_SBOX[SBOX[x]] == x for x in range(256))

    def test_no_fixed_points(self):
        assert all(SBOX[x] != x for x in range(256))


class TestRoundOperations:
    def test_shift_rows_row0_fixed(self):
        state = bytes(range(16))
        shifted = shift_rows(state)
        assert [shifted[4 * c] for c in range(4)] == \
               [state[4 * c] for c in range(4)]

    def test_shift_rows_row1_rotates(self):
        state = bytes(range(16))
        shifted = shift_rows(state)
        # Row 1 (indices 1,5,9,13) rotates left by one column.
        assert [shifted[1 + 4 * c] for c in range(4)] == [5, 9, 13, 1]

    def test_shift_maps_are_inverse(self):
        assert sorted(SHIFT_ROWS_MAP) == list(range(16))
        for out_index in range(16):
            assert INV_SHIFT_ROWS_MAP[SHIFT_ROWS_MAP[out_index]] == out_index

    @given(block_strategy)
    def test_sub_bytes_roundtrip(self, state):
        assert inv_sub_bytes(sub_bytes(state)) == state

    @given(block_strategy)
    def test_shift_rows_roundtrip(self, state):
        assert inv_shift_rows(shift_rows(state)) == state

    @given(block_strategy)
    @settings(max_examples=30)
    def test_mix_columns_roundtrip(self, state):
        assert inv_mix_columns(mix_columns(state)) == state

    @given(block_strategy, key_strategy)
    def test_add_round_key_is_involution(self, state, key):
        assert add_round_key(add_round_key(state, key), key) == state

    def test_mix_columns_known_column(self):
        # FIPS-197 example: db 13 53 45 -> 8e 4d a1 bc
        state = bytes([0xDB, 0x13, 0x53, 0x45] + [0] * 12)
        mixed = mix_columns(state)
        assert mixed[:4] == bytes([0x8E, 0x4D, 0xA1, 0xBC])


class TestAesniModel:
    @given(block_strategy, key_strategy)
    @settings(max_examples=30)
    def test_aesenc_composition(self, state, key):
        expected = add_round_key(mix_columns(shift_rows(sub_bytes(state))),
                                 key)
        assert aesenc(state, key) == expected

    @given(block_strategy, key_strategy)
    def test_aesenclast_composition(self, state, key):
        expected = add_round_key(shift_rows(sub_bytes(state)), key)
        assert aesenclast(state, key) == expected

    def test_encrypt_block_equals_aesni_loop(self):
        """The looped AES-NI victim's math equals the reference."""
        key = bytes(range(16))
        plaintext = bytes(range(100, 116))
        round_keys = expand_key(key)
        state = add_round_key(plaintext, round_keys[0])
        for round_key in round_keys[1:10]:
            state = aesenc(state, round_key)
        state = aesenclast(state, round_keys[10])
        assert state == encrypt_block(plaintext, round_keys)


class TestFastReferenceTwins:
    """The table-based fast round primitives vs. their definitional
    ``*_reference`` twins in :mod:`repro.fuzz.twins` (DESIGN.md
    decision 5): bit-identical over
    random blocks and keys."""

    @given(block_strategy, key_strategy)
    @settings(max_examples=200)
    def test_aesenc_twin(self, state, key):
        assert aesenc(state, key) == aesenc_reference(state, key)

    @given(block_strategy, key_strategy)
    @settings(max_examples=200)
    def test_aesenclast_twin(self, state, key):
        assert aesenclast(state, key) == aesenclast_reference(state, key)

    @given(block_strategy)
    @settings(max_examples=200)
    def test_mix_columns_twin(self, state):
        assert mix_columns(state) == mix_columns_reference(state)

    @given(block_strategy)
    @settings(max_examples=200)
    def test_inv_mix_columns_twin(self, state):
        assert inv_mix_columns(state) == inv_mix_columns_reference(state)

    def test_single_byte_exhaustive(self):
        """Every byte value through every table position, via blocks that
        isolate one byte at a time."""
        for value in range(256):
            for position in range(16):
                block = bytearray(16)
                block[position] = value
                block = bytes(block)
                assert mix_columns(block) == mix_columns_reference(block)
                assert aesenc(block, bytes(16)) == \
                    aesenc_reference(block, bytes(16))


class TestRoundtrip:
    @given(block_strategy, key_strategy)
    @settings(max_examples=30)
    def test_encrypt_decrypt_128(self, plaintext, key):
        round_keys = expand_key(key)
        assert decrypt_block(encrypt_block(plaintext, round_keys),
                             round_keys) == plaintext

    @given(block_strategy, st.binary(min_size=32, max_size=32))
    @settings(max_examples=15)
    def test_encrypt_decrypt_256(self, plaintext, key):
        round_keys = expand_key(key)
        assert decrypt_block(encrypt_block(plaintext, round_keys),
                             round_keys) == plaintext

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            encrypt_block(b"short", expand_key(bytes(16)))
        with pytest.raises(ValueError):
            decrypt_block(b"short", expand_key(bytes(16)))


class TestReducedRound:
    def test_matches_manual_early_exit(self):
        """RRC_j = aesenclast(state_j, rk[j+1]) -- the Listing 1 semantics."""
        key = bytes(range(16))
        plaintext = bytes(range(16, 32))
        round_keys = expand_key(key)
        state = add_round_key(plaintext, round_keys[0])
        for exit_iteration in range(1, 10):
            state = aesenc(state, round_keys[exit_iteration])
            expected = aesenclast(state, round_keys[exit_iteration + 1])
            assert reduced_round_ciphertext(
                plaintext, round_keys, exit_iteration
            ) == expected

    def test_exit_bounds_validated(self):
        round_keys = expand_key(bytes(16))
        with pytest.raises(ValueError):
            reduced_round_ciphertext(bytes(16), round_keys, 0)
        with pytest.raises(ValueError):
            reduced_round_ciphertext(bytes(16), round_keys, 10)

    def test_two_round_formula(self):
        """Matches the paper's RRC = k2 ^ SR(SB(k1 ^ MC(SR(SB(k0 ^ P)))))."""
        key = bytes(range(50, 66))
        plaintext = bytes(range(66, 82))
        k = expand_key(key)
        inner = mix_columns(shift_rows(sub_bytes(add_round_key(plaintext,
                                                               k[0]))))
        expected = add_round_key(
            shift_rows(sub_bytes(add_round_key(inner, k[1]))), k[2]
        )
        assert reduced_round_ciphertext(plaintext, k, 1) == expected
