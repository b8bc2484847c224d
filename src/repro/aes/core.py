"""AES round primitives and block encryption (FIPS-197, from scratch).

State representation: a 16-byte ``bytes`` value in FIPS order -- byte
``i`` holds state matrix element ``(row i % 4, column i // 4)``.  This is
also exactly the byte order AES-NI's XMM registers use, so the
``aesenc``/``aesenclast`` helpers here are drop-in models of the hardware
instructions the Intel-IPP victim executes.
"""

from __future__ import annotations

from typing import List, Tuple

#: The AES S-box, generated from the multiplicative inverse in GF(2^8)
#: followed by the affine transform (computed once at import, no tables
#: copied from elsewhere).


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> Tuple[List[int], List[int]]:
    # Multiplicative inverses via exponentiation (a^254 == a^-1).
    def inverse(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        exponent = 254
        base = a
        while exponent:
            if exponent & 1:
                result = _gf_mul(result, base)
            base = _gf_mul(base, base)
            exponent >>= 1
        return result

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        x = inverse(value)
        # Affine transform: b ^= rot(b,1)^rot(b,2)^rot(b,3)^rot(b,4) ^ 0x63
        y = x
        for shift in (1, 2, 3, 4):
            y ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        y ^= 0x63
        sbox[value] = y & 0xFF
    for value, substituted in enumerate(sbox):
        inv_sbox[substituted] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

#: ShiftRows permutation: output index -> input index, for the flat FIPS
#: layout (index = row + 4*column).
SHIFT_ROWS_MAP = [0] * 16
for _row in range(4):
    for _column in range(4):
        SHIFT_ROWS_MAP[_row + 4 * _column] = _row + 4 * ((_column + _row) % 4)

INV_SHIFT_ROWS_MAP = [0] * 16
for _out, _in in enumerate(SHIFT_ROWS_MAP):
    INV_SHIFT_ROWS_MAP[_in] = _out

# ----------------------------------------------------------------------
# GF(2^8) multiplication tables (fast path)
# ----------------------------------------------------------------------
# 256-entry tables for the fixed MixColumns coefficients, built once at
# import from the bit-serial ``_gf_mul``.  The definitional twins live in
# :mod:`repro.fuzz.twins`; ``tests/test_aes_core.py`` pins the two
# bit-identical (same obligation as the predictor shortcut caches,
# DESIGN.md decision 5).

_MUL2 = tuple(_gf_mul(x, 2) for x in range(256))
_MUL3 = tuple(_gf_mul(x, 3) for x in range(256))
_MUL9 = tuple(_gf_mul(x, 9) for x in range(256))
_MUL11 = tuple(_gf_mul(x, 11) for x in range(256))
_MUL13 = tuple(_gf_mul(x, 13) for x in range(256))
_MUL14 = tuple(_gf_mul(x, 14) for x in range(256))

#: SubBytes fused with the MixColumns coefficients
#: (``_SBOX2[x] == gf_mul(SBOX[x], 2)``).
_SBOX_T = tuple(SBOX)
_SBOX2 = tuple(_MUL2[s] for s in SBOX)
_SBOX3 = tuple(_MUL3[s] for s in SBOX)
_SHIFT_T = tuple(SHIFT_ROWS_MAP)

#: Classic 32-bit T-tables: ``_T{r}[x]`` is the little-endian column word
#: contributed by byte ``x`` arriving in row ``r`` of a column after
#: ShiftRows, i.e. SubBytes and the MDS-matrix column for that row fused
#: into one lookup.  ``aesenc`` becomes four lookups and three XORs per
#: column plus a single 128-bit AddRoundKey.
_T0 = tuple((_MUL2[s]) | (s << 8) | (s << 16) | (_MUL3[s] << 24)
            for s in SBOX)
_T1 = tuple((_MUL3[s]) | (_MUL2[s] << 8) | (s << 16) | (s << 24)
            for s in SBOX)
_T2 = tuple(s | (_MUL3[s] << 8) | (_MUL2[s] << 16) | (s << 24)
            for s in SBOX)
_T3 = tuple(s | (s << 8) | (_MUL3[s] << 16) | (_MUL2[s] << 24)
            for s in SBOX)

# The flat ShiftRows source indices per output column, as aesenc below
# hardcodes them.
assert _SHIFT_T == (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)


def sub_bytes(state: bytes) -> bytes:
    """SubBytes: byte-wise S-box substitution."""
    return bytes(SBOX[b] for b in state)


def inv_sub_bytes(state: bytes) -> bytes:
    """Inverse SubBytes."""
    return bytes(INV_SBOX[b] for b in state)


def shift_rows(state: bytes) -> bytes:
    """ShiftRows: rotate row ``r`` left by ``r`` positions."""
    return bytes(state[SHIFT_ROWS_MAP[i]] for i in range(16))


def inv_shift_rows(state: bytes) -> bytes:
    """Inverse ShiftRows."""
    return bytes(state[INV_SHIFT_ROWS_MAP[i]] for i in range(16))


def mix_columns(state: bytes) -> bytes:
    """MixColumns: multiply each column by the fixed MDS matrix."""
    mul2 = _MUL2
    mul3 = _MUL3
    out = bytearray(16)
    for c in (0, 4, 8, 12):
        a0 = state[c]
        a1 = state[c + 1]
        a2 = state[c + 2]
        a3 = state[c + 3]
        out[c] = mul2[a0] ^ mul3[a1] ^ a2 ^ a3
        out[c + 1] = a0 ^ mul2[a1] ^ mul3[a2] ^ a3
        out[c + 2] = a0 ^ a1 ^ mul2[a2] ^ mul3[a3]
        out[c + 3] = mul3[a0] ^ a1 ^ a2 ^ mul2[a3]
    return bytes(out)


def inv_mix_columns(state: bytes) -> bytes:
    """Inverse MixColumns."""
    mul9 = _MUL9
    mul11 = _MUL11
    mul13 = _MUL13
    mul14 = _MUL14
    out = bytearray(16)
    for c in (0, 4, 8, 12):
        a0 = state[c]
        a1 = state[c + 1]
        a2 = state[c + 2]
        a3 = state[c + 3]
        out[c] = mul14[a0] ^ mul11[a1] ^ mul13[a2] ^ mul9[a3]
        out[c + 1] = mul9[a0] ^ mul14[a1] ^ mul11[a2] ^ mul13[a3]
        out[c + 2] = mul13[a0] ^ mul9[a1] ^ mul14[a2] ^ mul11[a3]
        out[c + 3] = mul11[a0] ^ mul13[a1] ^ mul9[a2] ^ mul14[a3]
    return bytes(out)


def add_round_key(state: bytes, round_key: bytes) -> bytes:
    """AddRoundKey: XOR with the 16-byte round key."""
    return bytes(s ^ k for s, k in zip(state, round_key))


# ----------------------------------------------------------------------
# AES-NI instruction models
# ----------------------------------------------------------------------

def aesenc(state: bytes, round_key: bytes) -> bytes:
    """One full AES round, exactly as the ``aesenc`` instruction:
    ``AddRoundKey(MixColumns(ShiftRows(SubBytes(state))), key)``.

    SubBytes, ShiftRows and MixColumns are fused into the ``_T0``..``_T3``
    word tables; :func:`repro.fuzz.twins.aesenc_reference` keeps the
    four-stage composition and the property tests pin the two
    bit-identical.
    """
    t0 = _T0
    t1 = _T1
    t2 = _T2
    t3 = _T3
    w0 = t0[state[0]] ^ t1[state[5]] ^ t2[state[10]] ^ t3[state[15]]
    w1 = t0[state[4]] ^ t1[state[9]] ^ t2[state[14]] ^ t3[state[3]]
    w2 = t0[state[8]] ^ t1[state[13]] ^ t2[state[2]] ^ t3[state[7]]
    w3 = t0[state[12]] ^ t1[state[1]] ^ t2[state[6]] ^ t3[state[11]]
    return ((w0 | (w1 << 32) | (w2 << 64) | (w3 << 96))
            ^ int.from_bytes(round_key, "little")).to_bytes(16, "little")


def aesenclast(state: bytes, round_key: bytes) -> bytes:
    """The final AES round (no MixColumns), as ``aesenclast``."""
    sbox = _SBOX_T
    shift = _SHIFT_T
    return bytes(
        sbox[state[shift[i]]] ^ round_key[i] for i in range(16))


# ----------------------------------------------------------------------
# Block encryption
# ----------------------------------------------------------------------

def encrypt_block(plaintext: bytes, round_keys: List[bytes]) -> bytes:
    """Encrypt one 16-byte block with the expanded ``round_keys``."""
    if len(plaintext) != 16:
        raise ValueError("AES blocks are 16 bytes")
    state = add_round_key(plaintext, round_keys[0])
    for round_key in round_keys[1:-1]:
        state = aesenc(state, round_key)
    return aesenclast(state, round_keys[-1])


def decrypt_block(ciphertext: bytes, round_keys: List[bytes]) -> bytes:
    """Decrypt one 16-byte block with the expanded ``round_keys``."""
    if len(ciphertext) != 16:
        raise ValueError("AES blocks are 16 bytes")
    state = add_round_key(ciphertext, round_keys[-1])
    state = inv_shift_rows(inv_sub_bytes(state))
    for round_key in reversed(round_keys[1:-1]):
        state = add_round_key(state, round_key)
        state = inv_mix_columns(state)
        state = inv_shift_rows(inv_sub_bytes(state))
    return add_round_key(state, round_keys[0])


def reduced_round_ciphertext(plaintext: bytes, round_keys: List[bytes],
                             exit_iteration: int) -> bytes:
    """Ground truth for the Section 9 speculative early exit.

    Models the Listing 1 victim exiting its loop after ``exit_iteration``
    iterations of ``aesenc`` (1 <= exit_iteration <= rounds-1) and running
    ``aesenclast`` with the *next* round key (the key pointer has been
    advanced ``exit_iteration`` times, so ``aesenclast`` consumes
    ``round_keys[exit_iteration + 1]``).
    """
    total_rounds = len(round_keys) - 1
    if not 1 <= exit_iteration <= total_rounds - 1:
        raise ValueError(
            f"exit iteration must be in [1, {total_rounds - 1}], "
            f"got {exit_iteration}"
        )
    state = add_round_key(plaintext, round_keys[0])
    for round_number in range(1, exit_iteration + 1):
        state = aesenc(state, round_keys[round_number])
    return aesenclast(state, round_keys[exit_iteration + 1])
