"""The Intel-IPP style looped AES victim (paper Listing 1 / Figure 6).

The victim is compiled into the reproduction ISA with the same control
flow skeleton as the paper's disassembly: a prologue that loads the round
count from the key structure (the attacker flushes exactly this load to
widen the speculation window), a loop whose body performs one ``aesenc``
and whose back edge is the branch the attack poisons, a fix-up block and
an ``aesenclast`` epilogue.

Memory layout (all attacker-known, per the threat model):

========================  ======================================
``key_base + 0x10 * i``   round key ``i`` (16 bytes)
``key_base + 0xF0``       ``rounds`` field (8 bytes)
``plaintext_address``     input block (16 bytes)
``ciphertext_address``    output block (16 bytes)
``state_address``         the xmm0 model (16 bytes, internal)
========================  ======================================
"""

from __future__ import annotations

from typing import Dict, List

from repro.aes.core import aesenc, aesenclast
from repro.aes.keyschedule import expand_key, rounds_for_key
from repro.isa.builder import ProgramBuilder
from repro.isa.memory import Memory
from repro.isa.program import Program

#: Fixed addresses of the victim's data (see module docstring).
KEY_BASE = 0x0010_0000
PLAINTEXT_ADDRESS = 0x0020_0000
CIPHERTEXT_ADDRESS = 0x0020_0100
STATE_ADDRESS = 0x0020_0200
ROUNDS_OFFSET = 0xF0

#: Code base mirroring the paper's Figure 6 disassembly address.
VICTIM_BASE = 0x0041_0EC0


def _xor_key0(reads: Dict[str, int], memory) -> Dict[str, int]:
    """state = plaintext ^ round_key[0] (the pre-whitening xor)."""
    plaintext = memory.read_bytes(PLAINTEXT_ADDRESS, 16)
    round_key = memory.read_bytes(KEY_BASE, 16)
    memory.write_bytes(STATE_ADDRESS,
                       bytes(p ^ k for p, k in zip(plaintext, round_key)))
    return {}


def _aesenc_op(reads: Dict[str, int], memory) -> Dict[str, int]:
    """state = aesenc(state, [key cursor])."""
    state = memory.read_bytes(STATE_ADDRESS, 16)
    round_key = memory.read_bytes(reads["rbx"], 16)
    memory.write_bytes(STATE_ADDRESS, aesenc(state, round_key))
    return {}


def _aesenclast_op(reads: Dict[str, int], memory) -> Dict[str, int]:
    """state = aesenclast(state, [key cursor]); store to ciphertext."""
    state = memory.read_bytes(STATE_ADDRESS, 16)
    round_key = memory.read_bytes(reads["rbx"], 16)
    memory.write_bytes(CIPHERTEXT_ADDRESS, aesenclast(state, round_key))
    return {}


class AesVictim:
    """Builds and provisions the looped AES victim."""

    #: The ``(xor_key0, aesenc, aesenclast)`` PyOps: fused table-based
    #: rounds over block-wide memory I/O.  The byte-at-a-time reference
    #: twin (:class:`repro.fuzz.twins.ReferenceAesVictim`) swaps them;
    #: the control-flow skeleton -- the part the Pathfinder attack
    #: consumes -- is identical either way.
    _pyops = (_xor_key0, _aesenc_op, _aesenclast_op)

    def __init__(self, key: bytes):
        self.key = key
        self.rounds = rounds_for_key(key)
        self.round_keys: List[bytes] = expand_key(key)
        self.program = self._build_program()

    def _build_program(self) -> Program:
        xor_key0, aesenc_op, aesenclast_op = self._pyops
        b = ProgramBuilder("aes_looped", base=VICTIM_BASE)
        b.label("aes_encrypt")
        b.mov_imm("rdx", KEY_BASE)
        # The round-count load: flushing KEY_BASE + 0xF0 makes this miss,
        # delaying the loop branch's resolution (Section 9's window widener).
        b.load("rcx", "rdx", offset=ROUNDS_OFFSET, width=8)
        b.pyop("xor_key0", xor_key0, touches_memory=True)
        b.mov("rbx", "rdx")
        b.add("rbx", imm=0x10)          # rd_key cursor -> round key 1
        b.mov_imm("rax", 1)
        b.label("loop")
        b.pyop("aesenc", aesenc_op, reads=("rbx",), touches_memory=True)
        b.add("rbx", imm=0x10)
        b.add("rax", imm=1)
        b.cmp("rax", "rcx")
        b.label("loop_branch")
        b.jne("loop")
        b.nop()                          # the rdi fix-up block (BB 4)
        b.label("final")
        b.pyop("aesenclast", aesenclast_op, reads=("rbx",),
               touches_memory=True)
        b.ret()
        return b.build()

    # ------------------------------------------------------------------

    @property
    def loop_branch_pc(self) -> int:
        """Address of the poisoned loop back edge."""
        return self.program.address_of("loop_branch")

    @property
    def loop_block_start(self) -> int:
        """Start address of the loop body block."""
        return self.program.address_of("loop")

    @property
    def rounds_address(self) -> int:
        """Address of the ``rounds`` field the attacker flushes."""
        return KEY_BASE + ROUNDS_OFFSET

    def provision(self, memory: Memory, plaintext: bytes) -> None:
        """Install key schedule, round count and plaintext into memory."""
        if len(plaintext) != 16:
            raise ValueError("plaintext blocks are 16 bytes")
        for index, round_key in enumerate(self.round_keys):
            memory.write_bytes(KEY_BASE + 0x10 * index, round_key)
        memory.write(KEY_BASE + ROUNDS_OFFSET, 8, self.rounds)
        memory.write_bytes(PLAINTEXT_ADDRESS, plaintext)

    def read_ciphertext(self, memory: Memory) -> bytes:
        """Fetch the output block after a run."""
        return memory.read_bytes(CIPHERTEXT_ADDRESS, 16)


class AesUnrolledVictim:
    """The *unrolled* AES implementation (paper Section 9).

    "Intel-IPP offers an assembly implementation that uses unrolled AES
    when the plaintext size is less than 64 bytes, employing the looped
    version otherwise."  The unrolled flavour has no loop back edge --
    every ``aesenc`` is straight-line code -- so there is no conditional
    branch whose instance the PHT poisoning could select; the attack
    surface of Section 9 specifically requires the looped variant.  This
    victim exists to demonstrate that distinction.
    """

    def __init__(self, key: bytes):
        self.key = key
        self.rounds = rounds_for_key(key)
        self.round_keys: List[bytes] = expand_key(key)
        self.program = self._build_program()

    def _build_program(self) -> Program:
        b = ProgramBuilder("aes_unrolled", base=VICTIM_BASE + 0x4000)
        b.label("aes_encrypt_unrolled")
        b.mov_imm("rdx", KEY_BASE)
        b.pyop("xor_key0", _xor_key0, touches_memory=True)
        b.mov("rbx", "rdx")
        for _ in range(1, self.rounds):
            b.add("rbx", imm=0x10)
            b.pyop("aesenc", _aesenc_op, reads=("rbx",),
                   touches_memory=True)
        b.add("rbx", imm=0x10)
        b.pyop("aesenclast", _aesenclast_op, reads=("rbx",),
               touches_memory=True)
        b.ret()
        return b.build()

    def provision(self, memory: Memory, plaintext: bytes) -> None:
        """Install key schedule and plaintext (no rounds field needed --
        the unrolled code never reads it)."""
        if len(plaintext) != 16:
            raise ValueError("plaintext blocks are 16 bytes")
        for index, round_key in enumerate(self.round_keys):
            memory.write_bytes(KEY_BASE + 0x10 * index, round_key)
        memory.write_bytes(PLAINTEXT_ADDRESS, plaintext)

    def read_ciphertext(self, memory: Memory) -> bytes:
        """Fetch the output block after a run."""
        return memory.read_bytes(CIPHERTEXT_ADDRESS, 16)

    def conditional_branch_count(self) -> int:
        """The poisoning surface: zero conditional branches."""
        from repro.isa.program import conditional_branches

        return len(conditional_branches(self.program))
