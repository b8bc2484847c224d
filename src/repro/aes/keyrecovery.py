"""Differential key recovery from two-round AES ciphertexts.

Section 9's "Key Extraction Algorithm": a two-round ciphertext

    RRC = k2 ^ SR(SB(k1 ^ MC(SR(SB(k0 ^ P)))))

contains only one MixColumns, so changing a single plaintext byte disturbs
exactly four output bytes through a fully traceable path.  Guessing one
byte of ``k0`` predicts the inner difference entering the second SubBytes;
the S-box's differential behaviour then filters the guesses:

* pick a plaintext byte position ``i`` and an affected output byte ``b``;
* for plaintext pairs differing only in byte ``i`` by ``d``, the observed
  output difference must satisfy
  ``RRC[b] ^ RRC'[b] == SB(u) ^ SB(u ^ mc_coef * (SB(P[i]^g) ^ SB(P[i]^d^g)))``
  for the correct guess ``g = k0[i]`` and some byte ``u`` (the stable
  second-round S-box input);
* intersecting the surviving ``(g, u)`` pairs over several differences
  ``d`` leaves the unique ``g``.

The filter never searches ``u``: the S-box difference-distribution
table lists, for each input difference and observed output difference,
the at most four ``u`` that fit, so each (guess, output row) test is one
table lookup plus a check of those candidates against the other
differences.

Recovering all 16 bytes of ``k0`` yields the master key directly (for
AES-128, round key 0 *is* the key; the key schedule inversion in
:mod:`repro.aes.keyschedule` generalises the final step).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.aes.core import INV_SHIFT_ROWS_MAP, SBOX, _MUL2, _MUL3
from repro.utils.rng import DeterministicRng

#: MixColumns coefficient matrix: row r of the output column is
#: sum(M[r][j] * input[j]).
MC_MATRIX = (
    (2, 3, 1, 1),
    (1, 2, 3, 1),
    (1, 1, 2, 3),
    (3, 1, 1, 2),
)

#: Default plaintext-byte differences; any set of distinct non-zero bytes
#: works, more differences give stronger filtering.
DEFAULT_DELTAS = (0x01, 0x4A, 0x93, 0xE7)


def affected_output_bytes(plaintext_index: int) -> List[int]:
    """The four RRC byte positions a given plaintext byte influences.

    Plaintext byte ``i = row + 4*column`` moves (through the first
    ShiftRows) into column ``(column - row) mod 4`` of the MixColumns
    input, spreading to that column's four bytes, which the second
    ShiftRows then scatters.
    """
    row = plaintext_index % 4
    column = plaintext_index // 4
    mixed_column = (column - row) % 4
    return [INV_SHIFT_ROWS_MAP[4 * mixed_column + out_row]
            for out_row in range(4)]


def _mc_coefficient(plaintext_index: int, output_row: int) -> int:
    """MixColumns coefficient linking plaintext byte ``i`` to the affected
    column's ``output_row``."""
    row = plaintext_index % 4
    return MC_MATRIX[output_row][row]


#: GF(2^8) multiply rows for the MixColumns coefficients 1, 2 and 3.
_MUL_ROWS = {1: tuple(range(256)), 2: _MUL2, 3: _MUL3}

#: The S-box difference-distribution solutions, built on first use:
#: ``(counts, solutions)`` where, for the slot ``(a << 8) | b`` of input
#: difference ``a`` and output difference ``b``, the ``counts[slot]``
#: bytes of ``solutions`` from ``4 * slot`` are the ``u`` with
#: ``SBOX[u] ^ SBOX[u ^ a] == b``.  The AES S-box is differentially
#: 4-uniform, so four bytes per slot hold them all (320 KiB in total).
_DIFFERENCE_TABLE: Optional[Tuple[bytes, bytes]] = None


def _difference_table() -> Tuple[bytes, bytes]:
    global _DIFFERENCE_TABLE
    if _DIFFERENCE_TABLE is None:
        counts = bytearray(1 << 16)
        solutions = bytearray(4 << 16)
        for a in range(1, 256):
            for u in range(256):
                slot = (a << 8) | (SBOX[u] ^ SBOX[u ^ a])
                solutions[4 * slot + counts[slot]] = u
                counts[slot] += 1
        _DIFFERENCE_TABLE = (bytes(counts), bytes(solutions))
    return _DIFFERENCE_TABLE


def key_byte_survivors(
    base_byte: int,
    index: int,
    deltas: Sequence[int],
    observed: Sequence[Sequence[int]],
) -> List[int]:
    """The guesses of ``k0[index]`` the observed differences allow.

    ``observed[j][row]`` is the RRC difference at
    ``affected_output_bytes(index)[row]`` when plaintext byte ``index``
    (``base_byte`` in the base block) is flipped by ``deltas[j]``.  A
    guess survives when, for some output row, one second-round S-box
    input ``u`` explains every delta at once: the first delta's
    difference-table slot names the (at most four) candidates ``u``, and
    the other deltas check them.
    """
    if not deltas or not all(0 < delta < 256 for delta in deltas):
        raise ValueError(f"deltas must be non-empty bytes 1..255, "
                         f"got {tuple(deltas)}")
    counts, solutions = _difference_table()
    rows = [(_MUL_ROWS[_mc_coefficient(index, output_row)],
             [differences[output_row] for differences in observed])
            for output_row in range(4)]
    survivors = []
    for guess in range(256):
        byte = base_byte ^ guess
        sbox_byte = SBOX[byte]
        # The inner differences this guess predicts, per delta.
        inner = [sbox_byte ^ SBOX[byte ^ delta] for delta in deltas]
        for mul, seen in rows:
            predicted = [mul[x] for x in inner]
            slot = (predicted[0] << 8) | seen[0]
            start = 4 * slot
            if any(all(SBOX[u] ^ SBOX[u ^ a] == b
                       for a, b in zip(predicted, seen))
                   for u in solutions[start:start + counts[slot]]):
                survivors.append(guess)
                break
    return survivors


def recover_key_byte(
    oracle: Callable[[bytes], bytes],
    base_plaintext: bytes,
    index: int,
    base_rrc: Optional[bytes] = None,
    deltas: Sequence[int] = DEFAULT_DELTAS,
) -> int:
    """Recover ``k0[index]`` via the differential filter.

    ``oracle`` maps a plaintext block to its two-round ciphertext.
    """
    if base_rrc is None:
        base_rrc = oracle(base_plaintext)
    affected = affected_output_bytes(index)

    # Observed output differences per delta, per output row.
    observed = []
    for delta in deltas:
        flipped = bytearray(base_plaintext)
        flipped[index] ^= delta
        rrc = oracle(bytes(flipped))
        observed.append([base_rrc[b] ^ rrc[b] for b in affected])

    survivors = key_byte_survivors(base_plaintext[index], index, deltas,
                                   observed)
    if len(survivors) == 1:
        return survivors[0]
    if not survivors:
        raise RuntimeError(f"no key-byte candidate survived at index {index}")
    # Refine ambiguous survivors with extra differences.
    extra = [d for d in range(1, 256)
             if d not in deltas][:4]
    return recover_key_byte(oracle, base_plaintext, index,
                            base_rrc=base_rrc,
                            deltas=tuple(deltas) + tuple(extra))


def recover_key_from_two_round_oracle(
    oracle: Callable[[bytes], bytes],
    rng: Optional[DeterministicRng] = None,
    deltas: Sequence[int] = DEFAULT_DELTAS,
) -> bytes:
    """Recover the full AES-128 key from a two-round-ciphertext oracle."""
    if rng is None:
        rng = DeterministicRng(0xD1FF)
    base_plaintext = rng.bytes(16)
    base_rrc = oracle(base_plaintext)
    key = bytearray(16)
    for index in range(16):
        key[index] = recover_key_byte(oracle, base_plaintext, index,
                                      base_rrc=base_rrc, deltas=deltas)
    return bytes(key)
