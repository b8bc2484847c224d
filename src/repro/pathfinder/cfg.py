"""Control-flow-graph construction over reproduction-ISA programs.

The paper uses the angr binary-analysis framework to lift victim binaries;
here the victim *is* a :class:`~repro.isa.program.Program`, so the CFG is
built directly.  Blocks are maximal straight-line instruction runs; edges
carry the branch address, target and footprint that the path search needs
to reverse PHR updates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cpu.footprint import branch_footprint
from repro.isa.instructions import (
    Call,
    CondBranch,
    Halt,
    Jump,
    JumpIndirect,
    Ret,
)
from repro.isa.program import Program


class EdgeKind(enum.Enum):
    """How control reaches the destination block."""

    #: Conditional branch, taken (updates the PHR).
    TAKEN = "taken"
    #: Conditional branch, not taken (no PHR effect).
    NOT_TAKEN = "not-taken"
    #: Unconditional jump (updates the PHR).
    JUMP = "jump"
    #: Call into a function (updates the PHR).
    CALL = "call"
    #: Return to a call continuation (updates the PHR).
    RET = "ret"
    #: Straight-line fall-through into a new block (no branch at all).
    FALLTHROUGH = "fallthrough"

    @property
    def updates_phr(self) -> bool:
        """Whether traversing this edge folds a footprint into the PHR."""
        return self in (EdgeKind.TAKEN, EdgeKind.JUMP, EdgeKind.CALL,
                        EdgeKind.RET)

    @property
    def is_conditional(self) -> bool:
        """Whether this edge comes from a conditional branch."""
        return self in (EdgeKind.TAKEN, EdgeKind.NOT_TAKEN)


@dataclass(frozen=True)
class Edge:
    """A CFG edge, annotated for PHR reversal."""

    kind: EdgeKind
    source: int  # source block start address
    destination: int  # destination block start address
    branch_pc: Optional[int] = None
    #: Footprint folded into the PHR when this edge executes (None when
    #: the edge does not update the PHR).
    footprint: Optional[int] = None


@dataclass
class BasicBlock:
    """A maximal single-entry straight-line region."""

    start: int
    end: int  # address one past the last instruction
    instruction_addresses: List[int] = field(default_factory=list)
    terminator: Optional[object] = None  # the final Instruction, if a branch
    is_exit: bool = False

    def __repr__(self) -> str:
        return f"BasicBlock({self.start:#x}..{self.end:#x})"


class ControlFlowGraph:
    """Blocks plus forward and reverse edge indexes."""

    def __init__(self, program: Program, entry: Optional[int] = None):
        self.program = program
        self.entry = program.entry if entry is None else entry
        self.blocks: Dict[int, BasicBlock] = {}
        self.edges_out: Dict[int, List[Edge]] = {}
        self.edges_in: Dict[int, List[Edge]] = {}
        #: Return-continuation address -> list of callee entry addresses,
        #: used by the path search to pair rets with their call sites.
        self.call_continuations: Dict[int, List[int]] = {}
        #: Bumped by every post-build mutation (:meth:`add_edge`) so
        #: consumers holding derived indexes (:class:`PathSearch`'s
        #: doublet-indexed edge lookup) can detect staleness.
        self.version: int = 0
        #: ``(mode, max_states, max_paths)`` -> path search, filled by
        #: :func:`repro.pathfinder.search.cached_path_search`.  Held here
        #: so that the searches die with the graph.
        self.search_memo: Dict[tuple, object] = {}
        self._build()

    # ------------------------------------------------------------------

    def _leaders(self) -> List[int]:
        program = self.program
        leaders = {self.entry}
        for address, instruction in program.items():
            if not instruction.is_branch:
                continue
            next_address = address + instruction.size
            if program.has_instruction_at(next_address):
                leaders.add(next_address)
            if isinstance(instruction, (CondBranch, Jump, Call)):
                leaders.add(program.address_of(instruction.target))
        return sorted(leader for leader in leaders
                      if program.has_instruction_at(leader))

    def _build(self) -> None:
        program = self.program
        leaders = self._leaders()
        leader_set = set(leaders)
        addresses = [address for address, _ in program.items()]

        # Carve blocks.
        current: Optional[BasicBlock] = None
        for address in addresses:
            instruction = program.instruction_at(address)
            if address in leader_set or current is None:
                current = BasicBlock(start=address, end=address)
                self.blocks[address] = current
            elif address != current.end:
                # Address gap (alignment padding): force a new block.
                current = BasicBlock(start=address, end=address)
                self.blocks[address] = current
            current.instruction_addresses.append(address)
            current.end = address + instruction.size
            if instruction.is_branch or isinstance(instruction, Halt):
                current.terminator = instruction
                if isinstance(instruction, (Halt, Ret)):
                    current.is_exit = isinstance(instruction, Halt)
                current = None

        # Wire edges.
        for block in self.blocks.values():
            self._wire_block(block)

        for block in self.blocks.values():
            if isinstance(block.terminator, Ret):
                block.is_exit = block.is_exit or not self.call_continuations

    def _wire_block(self, block: BasicBlock) -> None:
        program = self.program
        terminator = block.terminator
        last_address = block.instruction_addresses[-1]

        def add(edge: Edge) -> None:
            self.edges_out.setdefault(edge.source, []).append(edge)
            self.edges_in.setdefault(edge.destination, []).append(edge)

        if terminator is None:
            # Fell off into the next leader (or a padding gap).
            if program.has_instruction_at(block.end):
                add(Edge(EdgeKind.FALLTHROUGH, block.start, block.end))
            else:
                block.is_exit = True
            return

        if isinstance(terminator, CondBranch):
            target = program.address_of(terminator.target)
            fallthrough = last_address + terminator.size
            add(Edge(EdgeKind.TAKEN, block.start, target,
                     branch_pc=last_address,
                     footprint=branch_footprint(last_address, target)))
            if program.has_instruction_at(fallthrough):
                add(Edge(EdgeKind.NOT_TAKEN, block.start, fallthrough,
                         branch_pc=last_address))
        elif isinstance(terminator, Jump):
            target = program.address_of(terminator.target)
            add(Edge(EdgeKind.JUMP, block.start, target,
                     branch_pc=last_address,
                     footprint=branch_footprint(last_address, target)))
        elif isinstance(terminator, Call):
            target = program.address_of(terminator.target)
            continuation = last_address + terminator.size
            add(Edge(EdgeKind.CALL, block.start, target,
                     branch_pc=last_address,
                     footprint=branch_footprint(last_address, target)))
            self.call_continuations.setdefault(continuation, []).append(target)
        elif isinstance(terminator, JumpIndirect):
            # Indirect targets are unknown statically; the paper notes angr
            # has the same limitation and that it rarely matters.  The
            # search treats blocks reached only indirectly as unreachable.
            pass
        # Ret and Halt produce no static edges; rets are resolved
        # dynamically by the path search via call_continuations.

    # ------------------------------------------------------------------

    def add_edge(self, edge: Edge) -> None:
        """Insert a dynamically discovered edge after construction.

        The static builder cannot resolve indirect jump targets (the
        paper notes the same angr limitation); a driver that observes one
        at runtime can patch it in here.  Both endpoints must be existing
        block starts.  Bumps :attr:`version` so every memoized consumer
        (cached searches and their edge indexes) rebuilds instead of
        serving stale results.
        """
        if edge.source not in self.blocks:
            raise KeyError(f"no block starts at source {edge.source:#x}")
        if edge.destination not in self.blocks:
            raise KeyError(
                f"no block starts at destination {edge.destination:#x}")
        if edge.kind.updates_phr and edge.footprint is None:
            raise ValueError(f"{edge.kind.value} edge needs a footprint")
        self.edges_out.setdefault(edge.source, []).append(edge)
        self.edges_in.setdefault(edge.destination, []).append(edge)
        if edge.kind is EdgeKind.CALL:
            assert edge.branch_pc is not None
            continuation = edge.branch_pc + 4
            self.call_continuations.setdefault(
                continuation, []).append(edge.destination)
        self.version += 1

    def block_at(self, address: int) -> BasicBlock:
        """The block starting exactly at ``address``."""
        return self.blocks[address]

    def block_containing(self, address: int) -> BasicBlock:
        """The block whose address range contains ``address``."""
        for block in self.blocks.values():
            if block.start <= address < block.end:
                return block
        raise KeyError(f"no block contains {address:#x}")

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks that terminate the function/program."""
        exits = [b for b in self.blocks.values()
                 if b.is_exit or isinstance(b.terminator, Ret)]
        return sorted(exits, key=lambda b: b.start)

    def ret_blocks(self) -> List[BasicBlock]:
        """Blocks ending in a return."""
        return sorted(
            (b for b in self.blocks.values() if isinstance(b.terminator, Ret)),
            key=lambda b: b.start,
        )

    def conditional_branch_pcs(self) -> List[int]:
        """Addresses of all conditional branches in the CFG."""
        return sorted(
            edge.branch_pc
            for edges in self.edges_out.values()
            for edge in edges
            if edge.kind is EdgeKind.TAKEN
        )

    def block_count(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)

    def describe(self) -> str:
        """Multi-line textual summary (block list with edges)."""
        lines = []
        for start in sorted(self.blocks):
            block = self.blocks[start]
            lines.append(f"block {start:#x}..{block.end:#x}"
                         + ("  [exit]" if block.is_exit else ""))
            for edge in self.edges_out.get(start, []):
                lines.append(f"    -{edge.kind.value}-> {edge.destination:#x}")
        return "\n".join(lines)


def cached_cfg(program: Program, entry: Optional[int] = None
               ) -> ControlFlowGraph:
    """The memoized :class:`ControlFlowGraph` of ``(program, entry)``.

    Attack drivers that rebuild the same victim's CFG per trial (image
    recovery runs one per block pattern, the AES attack one per leak)
    share a single instance instead.  Callers must treat the returned CFG
    as read-only.  Programs are immutable after assembly, so a CFG never
    goes stale; the memo lives on the program (``program.cfg_memo``), so
    a dropped program takes its CFGs with it.
    """
    resolved_entry = program.entry if entry is None else entry
    cfg = program.cfg_memo.get(resolved_entry)
    if cfg is None:
        cfg = program.cfg_memo[resolved_entry] = ControlFlowGraph(
            program, entry=resolved_entry)
    return cfg
