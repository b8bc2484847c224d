"""PHR manipulation macros: ``Shift_PHR``, ``Clear_PHR``, ``Write_PHR``.

Section 4 of the paper builds everything on three observations:

* a taken branch whose address bits B15..B0 and target bits T5..T0 are all
  zero has a zero footprint, so it *only* shifts the PHR left one doublet
  (``Shift_PHR``),
* shifting ``capacity`` times zeroes the register (``Clear_PHR``), and
* a branch with zeroed addresses except target bits T0/T1 writes an
  arbitrary value into doublet 0, so 194 such branches write the whole
  register (``Write_PHR``).

Each macro exists in three equivalent forms:

1. **emit** -- real branch instructions appended to a
   :class:`~repro.isa.builder.ProgramBuilder` (what attacker binaries
   contain),
2. **apply** -- the same branch commits driven directly into a
   :class:`~repro.cpu.machine.Machine` (one ``record_taken_branch`` per
   macro branch; used by attack loops to skip interpretation overhead),
3. **transform** -- the closed-form PHR state change.

``tests/test_macros.py`` asserts the three forms produce bit-identical
PHR values; the macros consist exclusively of unconditional direct
branches, which never touch the PHTs, so PHR equality is full
microarchitectural equivalence for the structures the attacks observe.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.cpu.machine import Machine
from repro.cpu.phr import PathHistoryRegister
from repro.isa.builder import ProgramBuilder, unique_label
from repro.isa.instructions import Nop

#: Size of one macro branch "unit" in the address space: each macro branch
#: sits at a 64KiB boundary so its address bits B15..B0 are zero.
REGION = 0x10000


def _doublet_to_target_offset(doublet: int) -> int:
    """Target-address low bits encoding ``doublet`` into footprint doublet 0.

    Footprint doublet 0 is ``(B3^T0, B4^T1)``; with a 64KiB-aligned branch
    the B bits vanish, leaving ``(T0, T1)``.  Doublet value ``d`` therefore
    needs target bit0 = d>>1 and bit1 = d&1.
    """
    if not 0 <= doublet <= 0b11:
        raise ValueError(f"doublet value out of range: {doublet}")
    return (doublet >> 1) | ((doublet & 0b1) << 1)


class PhrMacros:
    """Factory for the PHR macros against one machine configuration."""

    def __init__(self, machine: Machine, region_base: int = 0x7F00_0000):
        if region_base % REGION:
            raise ValueError("macro region base must be 64KiB aligned")
        self.machine = machine
        self.region_base = region_base

    @property
    def capacity(self) -> int:
        """PHR capacity (doublets) of the attached machine."""
        return self.machine.config.phr_capacity

    # ------------------------------------------------------------------
    # closed-form transforms
    # ------------------------------------------------------------------

    @staticmethod
    def shift_transform(phr: PathHistoryRegister, amount: int) -> None:
        """``Shift_PHR[amount]`` as a state transform."""
        phr.shift(amount)

    @staticmethod
    def write_transform(phr: PathHistoryRegister, value: int) -> None:
        """``Write_PHR(value)`` as a state transform."""
        phr.set_value(value)

    # ------------------------------------------------------------------
    # machine-apply forms (one branch commit per macro branch)
    # ------------------------------------------------------------------

    def _shift_branches(self, amount: int) -> List[Tuple[int, int]]:
        """The ``(pc, target)`` pairs of ``Shift_PHR[amount]``."""
        return [
            (self.region_base + unit * REGION,
             self.region_base + (unit + 1) * REGION)
            for unit in range(amount)
        ]

    def _write_branches(self, doublets: Sequence[int]) -> List[Tuple[int, int]]:
        """The ``(pc, target)`` pairs of a write of ``doublets``.

        ``doublets`` is most-significant first (the paper's
        ``Write_PHR(P193, ..., P0)`` argument order): the first branch's
        doublet ends up shifted into the most significant position.
        """
        branches = []
        for unit, doublet in enumerate(doublets):
            pc = self.region_base + unit * REGION
            target = (self.region_base + (unit + 1) * REGION
                      - 64 + _doublet_to_target_offset(doublet))
            branches.append((pc, target))
        return branches

    def apply_shift(self, amount: int, thread: int = 0) -> None:
        """Commit ``Shift_PHR[amount]`` through the machine."""
        for pc, target in self._shift_branches(amount):
            self.machine.record_taken_branch(pc, target, thread=thread)

    def apply_clear(self, thread: int = 0) -> None:
        """Commit ``Clear_PHR`` (== ``Shift_PHR[capacity]``)."""
        self.apply_shift(self.capacity, thread=thread)

    def apply_write(self, value: int, thread: int = 0) -> None:
        """Commit ``Write_PHR(value)`` through the machine.

        ``value`` is the raw ``2*capacity``-bit PHR value to install.
        """
        phr = PathHistoryRegister(self.capacity, value)
        doublets_msb_first = list(reversed(phr.doublets()))
        for pc, target in self._write_branches(doublets_msb_first):
            self.machine.record_taken_branch(pc, target, thread=thread)

    # ------------------------------------------------------------------
    # instruction-emitting forms
    # ------------------------------------------------------------------

    def emit_shift(self, builder: ProgramBuilder, amount: int) -> None:
        """Emit ``Shift_PHR[amount]`` as real instructions.

        Layout: ``amount`` chained unconditional jumps, each at a 64KiB
        boundary targeting the next boundary, so every footprint is zero.
        Ends with the builder positioned at the boundary after the last
        unit.
        """
        if amount == 0:
            return
        for pc, target in self._shift_branches(amount):
            builder.at(pc)
            label = unique_label("shift")
            builder.jmp(label)
            # Define the landing label at the next boundary; the jump
            # instruction itself occupies [pc, pc+4), the rest of the
            # region is unreachable padding that the assembler skips.
            builder.at(target)
            builder.label(label)
        builder.nop()  # give the final label an instruction to land on

    def emit_write(self, builder: ProgramBuilder, value: int) -> None:
        """Emit ``Write_PHR(value)`` as real instructions.

        Each unit jumps from its 64KiB boundary to a landing pad placed 64
        bytes before the *next* boundary, offset by the doublet encoding in
        target bits T0/T1; the pad falls through nops into the next unit,
        adding no extra taken branches.
        """
        phr = PathHistoryRegister(self.capacity, value)
        doublets_msb_first = list(reversed(phr.doublets()))
        for pc, target in self._write_branches(doublets_msb_first):
            builder.at(pc)
            label = unique_label("write")
            builder.jmp(label)
            builder.at(target)
            builder.label(label)
            offset = target & 0x3F
            pad_bytes = 64 - offset
            # Fill [target, next boundary) with nops; first nop absorbs the
            # doublet-encoding misalignment.
            first_size = pad_bytes % 4 or 4
            builder.raw(Nop(size=first_size))
            for _ in range((pad_bytes - first_size) // 4):
                builder.raw(Nop())
        builder.nop()

    def emit_clear(self, builder: ProgramBuilder) -> None:
        """Emit ``Clear_PHR`` as real instructions."""
        self.emit_shift(builder, self.capacity)


def branch_pairs_footprint_free(pairs: Iterable[Tuple[int, int]]) -> bool:
    """Whether every ``(pc, target)`` pair has a zero footprint.

    A helper for tests and for the Section 10 PHR-flush mitigation, which
    needs 194 unconditional *footprint-free* branches.
    """
    from repro.cpu.footprint import branch_footprint

    return all(branch_footprint(pc, target) == 0 for pc, target in pairs)
