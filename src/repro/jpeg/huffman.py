"""Baseline JPEG entropy coding: categories, run-lengths and Huffman codes.

Implements the full Annex-K baseline luminance coding path:

* DC coefficients are coded as the *category* (bit length) of the
  difference to the previous block's DC, followed by the magnitude bits;
* AC coefficients are coded as (zero-run, category) symbols with ``EOB``
  (end of block) and ``ZRL`` (16 zeros) escapes;
* symbols use canonical Huffman codes built from the standard BITS/HUFFVAL
  tables of ISO/IEC 10918-1 Annex K.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: Standard luminance DC table (Annex K.3.1): BITS then HUFFVAL.
DC_LUMINANCE_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMINANCE_VALUES = list(range(12))

#: Standard luminance AC table (Annex K.3.2).
AC_LUMINANCE_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMINANCE_VALUES = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

EOB = 0x00
ZRL = 0xF0


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, count: int) -> None:
        """Append the low ``count`` bits of ``value``, MSB first."""
        for position in range(count - 1, -1, -1):
            self._bits.append((value >> position) & 1)

    def getvalue(self) -> bytes:
        """The buffer padded with 1-bits to a byte boundary (JPEG style)."""
        bits = list(self._bits)
        while len(bits) % 8:
            bits.append(1)
        out = bytearray()
        for offset in range(0, len(bits), 8):
            byte = 0
            for bit in bits[offset:offset + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)

    def __len__(self) -> int:
        return len(self._bits)


class BitReader:
    """MSB-first bit consumer over a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._position = 0

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._position, 8)
        if byte_index >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value


def build_canonical_codes(bits: List[int],
                          values: List[int]) -> Dict[int, Tuple[int, int]]:
    """Build symbol -> (code, length) from a BITS/HUFFVAL specification."""
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    value_index = 0
    for length_minus_one, count in enumerate(bits):
        length = length_minus_one + 1
        for _ in range(count):
            codes[values[value_index]] = (code, length)
            code += 1
            value_index += 1
        code <<= 1
    return codes


def magnitude_category(value: int) -> int:
    """The JPEG category (bit length) of a coefficient value."""
    return abs(value).bit_length()


def magnitude_bits(value: int, category: int) -> int:
    """The magnitude bits: value itself if positive, else value-1's low bits
    (one's-complement style negative encoding)."""
    if value >= 0:
        return value
    return value + (1 << category) - 1


def decode_magnitude(bits: int, category: int) -> int:
    """Invert :func:`magnitude_bits`."""
    if category == 0:
        return 0
    if bits >> (category - 1):
        return bits
    return bits - (1 << category) + 1


class HuffmanCodec:
    """Encode/decode zigzag coefficient blocks with the standard tables."""

    def __init__(self) -> None:
        self.dc_codes = build_canonical_codes(DC_LUMINANCE_BITS,
                                              DC_LUMINANCE_VALUES)
        self.ac_codes = build_canonical_codes(AC_LUMINANCE_BITS,
                                              AC_LUMINANCE_VALUES)
        self._dc_decode = {code: symbol
                           for symbol, code in self.dc_codes.items()}
        self._ac_decode = {code: symbol
                           for symbol, code in self.ac_codes.items()}

    # ----- encoding -----------------------------------------------------

    def encode_blocks(self, blocks: Iterable[List[int]]) -> bytes:
        """Entropy-code a sequence of 64-entry zigzag blocks."""
        writer = BitWriter()
        previous_dc = 0
        for block in blocks:
            previous_dc = self._encode_block(writer, block, previous_dc)
        return writer.getvalue()

    def _encode_block(self, writer: BitWriter, block: List[int],
                      previous_dc: int) -> int:
        if len(block) != 64:
            raise ValueError(f"expected 64 coefficients, got {len(block)}")
        # DC difference.
        difference = block[0] - previous_dc
        category = magnitude_category(difference)
        self._write_symbol(writer, self.dc_codes, category)
        writer.write(magnitude_bits(difference, category), category)
        # AC run-lengths.
        run = 0
        for coefficient in block[1:]:
            if coefficient == 0:
                run += 1
                continue
            while run > 15:
                self._write_symbol(writer, self.ac_codes, ZRL)
                run -= 16
            category = magnitude_category(coefficient)
            self._write_symbol(writer, self.ac_codes, (run << 4) | category)
            writer.write(magnitude_bits(coefficient, category), category)
            run = 0
        if run:
            self._write_symbol(writer, self.ac_codes, EOB)
        return block[0]

    @staticmethod
    def _write_symbol(writer: BitWriter,
                      codes: Dict[int, Tuple[int, int]],
                      symbol: int) -> None:
        try:
            code, length = codes[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol:#x} has no Huffman code") from None
        writer.write(code, length)

    # ----- decoding -----------------------------------------------------

    def decode_blocks(self, data: bytes, block_count: int) -> List[List[int]]:
        """Decode ``block_count`` zigzag blocks from an entropy stream."""
        reader = BitReader(data)
        blocks: List[List[int]] = []
        previous_dc = 0
        for _ in range(block_count):
            block, previous_dc = self._decode_block(reader, previous_dc)
            blocks.append(block)
        return blocks

    def _decode_block(self, reader: BitReader,
                      previous_dc: int) -> Tuple[List[int], int]:
        category = self._read_symbol(reader, self._dc_decode)
        difference = decode_magnitude(reader.read(category), category)
        dc = previous_dc + difference
        block = [dc] + [0] * 63
        position = 1
        while position < 64:
            symbol = self._read_symbol(reader, self._ac_decode)
            if symbol == EOB:
                break
            if symbol == ZRL:
                position += 16
                continue
            run = symbol >> 4
            category = symbol & 0x0F
            position += run
            if position >= 64:
                raise ValueError("AC run escaped the block")
            block[position] = decode_magnitude(reader.read(category),
                                               category)
            position += 1
        return block, dc

    @staticmethod
    def _read_symbol(reader: BitReader,
                     decode_table: Dict[Tuple[int, int], int]) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | reader.read_bit()
            symbol = decode_table.get((code, length))
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in stream")
