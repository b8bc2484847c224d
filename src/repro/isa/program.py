"""Program container and address assignment (the "assembler").

A :class:`Program` is an ordered list of instructions placed at explicit
byte addresses.  Layout control matters here far more than in a typical
toy ISA: the PHR footprint of a branch is a function of address bits
B15..B0 and target bits T5..T0 (Figure 2 of the paper), so the attack
macros need branches at, e.g., 64KiB-aligned addresses with 64-byte aligned
targets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.isa.instructions import (
    Align,
    Call,
    CondBranch,
    Instruction,
    Jump,
    Label,
)


class ProgramError(Exception):
    """Raised for malformed programs (duplicate labels, overlap, ...)."""


class Program:
    """An assembled program: instructions at resolved byte addresses.

    Instances are built through :class:`repro.isa.builder.ProgramBuilder`
    (or :meth:`assemble`) and are immutable afterwards.
    """

    def __init__(
        self,
        instructions: Dict[int, Instruction],
        labels: Dict[str, int],
        entry: int,
        name: str = "program",
    ):
        self._instructions = dict(instructions)
        self._labels = dict(labels)
        self._entry = entry
        self.name = name
        #: Lazily compiled threaded-code handler tables (predecode pass).
        #: Programs are immutable after assembly, so the tables never need
        #: invalidation; keys are ``("committed", trace_mode)`` and
        #: ``"transient"``.
        self._predecoded: Dict[object, Dict[int, object]] = {}
        #: Entry -> control-flow graph, filled by
        #: :func:`repro.pathfinder.cfg.cached_cfg`.  Held here so that
        #: the graphs die with the program.
        self.cfg_memo: Dict[int, object] = {}
        self._validate()

    def _validate(self) -> None:
        for label, address in self._labels.items():
            if address not in self._instructions:
                raise ProgramError(
                    f"label {label!r} points at {address:#x}, which holds no instruction"
                )
        if self._entry not in self._instructions:
            raise ProgramError(f"entry point {self._entry:#x} holds no instruction")
        for address, instruction in self._instructions.items():
            target = getattr(instruction, "target", None)
            if target is not None and target not in self._labels:
                raise ProgramError(
                    f"instruction at {address:#x} targets unknown label {target!r}"
                )

    @property
    def entry(self) -> int:
        """Address of the first instruction to execute."""
        return self._entry

    @property
    def labels(self) -> Dict[str, int]:
        """Label name to address mapping (copy)."""
        return dict(self._labels)

    def address_of(self, label: str) -> int:
        """Resolve ``label`` to its address."""
        try:
            return self._labels[label]
        except KeyError:
            raise ProgramError(f"unknown label {label!r}") from None

    def instruction_at(self, address: int) -> Instruction:
        """Return the instruction at ``address``."""
        try:
            return self._instructions[address]
        except KeyError:
            raise ProgramError(f"no instruction at {address:#x}") from None

    def has_instruction_at(self, address: int) -> bool:
        """Whether an instruction exists at ``address``."""
        return address in self._instructions

    def next_address(self, address: int) -> int:
        """Address of the instruction physically following ``address``."""
        instruction = self.instruction_at(address)
        return address + instruction.size

    def committed_handlers(self, trace_mode: str = "full"):
        """The predecoded committed-path handler table for ``trace_mode``.

        Compiled on first use (one closure per static instruction, label
        targets and fallthroughs resolved to absolute addresses) and
        cached for the program's lifetime; see :mod:`repro.isa.predecode`.
        """
        key = ("committed", trace_mode)
        table = self._predecoded.get(key)
        if table is None:
            from repro.isa.predecode import compile_committed

            table = compile_committed(self, trace_mode)
            self._predecoded[key] = table
        return table

    def transient_handlers(self):
        """The predecoded wrong-path handler table (compiled on first use)."""
        table = self._predecoded.get("transient")
        if table is None:
            from repro.isa.predecode import compile_transient

            table = compile_transient(self)
            self._predecoded["transient"] = table
        return table

    def items(self) -> Iterator[Tuple[int, Instruction]]:
        """Iterate ``(address, instruction)`` in ascending address order."""
        return iter(sorted(self._instructions.items()))

    def __len__(self) -> int:
        return len(self._instructions)

    def branch_addresses(self) -> List[int]:
        """Addresses of all control-flow instructions, ascending."""
        return [addr for addr, ins in self.items() if ins.is_branch]

    def branch_target(self, address: int) -> Optional[int]:
        """Resolved target address of the direct branch at ``address``.

        Returns None for indirect jumps and returns, whose targets are
        dynamic.
        """
        instruction = self.instruction_at(address)
        target = getattr(instruction, "target", None)
        if target is None:
            return None
        return self.address_of(target)

    @classmethod
    def assemble(
        cls,
        items: Iterable[Tuple[Optional[int], Instruction]],
        name: str = "program",
        base: int = 0x400000,
        entry_label: Optional[str] = None,
    ) -> "Program":
        """Assign addresses to a stream of ``(placement, instruction)``.

        ``placement`` of None means "directly after the previous
        instruction"; an integer forces an absolute address (which must not
        move backwards over already-emitted code).  :class:`Align` and
        :class:`Label` consume no space.
        """
        instructions: Dict[int, Instruction] = {}
        labels: Dict[str, int] = {}
        cursor = base
        high_water = base
        pending_labels: List[str] = []
        first_address: Optional[int] = None

        for placement, instruction in items:
            if placement is not None:
                if placement < high_water:
                    raise ProgramError(
                        f"placement {placement:#x} overlaps code ending at {high_water:#x}"
                    )
                cursor = placement
            if isinstance(instruction, Align):
                boundary = instruction.boundary
                cursor = (cursor + boundary - 1) & ~(boundary - 1)
                continue
            if isinstance(instruction, Label):
                if instruction.name in labels or instruction.name in pending_labels:
                    raise ProgramError(f"duplicate label {instruction.name!r}")
                pending_labels.append(instruction.name)
                continue
            for label in pending_labels:
                labels[label] = cursor
            pending_labels.clear()
            if cursor in instructions:
                raise ProgramError(f"two instructions at {cursor:#x}")
            instructions[cursor] = instruction
            if first_address is None:
                first_address = cursor
            cursor += instruction.size
            high_water = max(high_water, cursor)

        if pending_labels:
            raise ProgramError(f"labels at end of program: {pending_labels}")
        if first_address is None:
            raise ProgramError("cannot assemble an empty program")
        entry = labels[entry_label] if entry_label is not None else first_address
        return cls(instructions, labels, entry, name=name)

    def disassemble(self) -> str:
        """Human-readable listing, one instruction per line."""
        address_to_labels: Dict[int, List[str]] = {}
        for label, address in self._labels.items():
            address_to_labels.setdefault(address, []).append(label)
        lines: List[str] = []
        for address, instruction in self.items():
            for label in sorted(address_to_labels.get(address, [])):
                lines.append(f"{label}:")
            lines.append(f"  {address:#010x}: {instruction!r}")
        return "\n".join(lines)


def conditional_branches(program: Program) -> List[int]:
    """Addresses of the conditional branches in ``program``."""
    return [
        addr
        for addr, ins in program.items()
        if isinstance(ins, CondBranch)
    ]


def unconditional_branches(program: Program) -> List[int]:
    """Addresses of unconditional direct jumps/calls in ``program``."""
    return [
        addr
        for addr, ins in program.items()
        if isinstance(ins, (Jump, Call))
    ]
