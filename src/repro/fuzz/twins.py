"""Reference and naive twins of the production fast paths.

Every optimised primitive keeps a slow twin that does the same job the
obvious way (DESIGN.md decision 5): the fuzz arms and the equivalence
tests pin fast == twin bit for bit, and the speedup benchmarks time the
twin as their baseline.  No module outside :mod:`repro.fuzz` imports
this one (``tests/test_layering.py``), so no production signature
carries an option that selects a twin.  A twin stands alone or
subclasses its production class and overrides one private method or
class attribute:

* :class:`ReferenceInterpreter` / :class:`ReferenceMachine` -- the
  original ``isinstance``-dispatch loops (committed and wrong-path) in
  place of the predecoded threaded code; the machine swaps
  ``Machine._interpreter``.
* :class:`ReferenceAesVictim` -- the stage-by-stage AES rounds over
  byte-at-a-time memory I/O (the seed data path); it swaps
  ``AesVictim._pyops``.
* :class:`NaiveReplayEngine` -- caches nothing and re-runs the builder
  chain from the root on every establish; :class:`NaivePhrReader` and
  :class:`NaivePhtReader` build it through their ``_replay_engine``.
* :class:`NaiveExtendedPhrReader` -- re-commits the victim's whole
  conditional history on every probe round.
* :class:`ExhaustivePathSearch` -- the Pathfinder search without its
  dead-state transposition table.
* :class:`EagerDataCache` -- a Flush+Reload sweep that fills every probe
  line at once instead of owing the fills (swaps ``DataCache._reload``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.aes.core import _gf_mul, add_round_key, shift_rows, sub_bytes
from repro.aes.victim import (CIPHERTEXT_ADDRESS, KEY_BASE,
                              PLAINTEXT_ADDRESS, STATE_ADDRESS, AesVictim)
from repro.cpu.cache import DataCache
from repro.cpu.machine import Machine
from repro.cpu.phr import PathHistoryRegister
from repro.isa.instructions import (WORD_MASK, BinaryOp, Call, CondBranch,
                                    Halt, Jump, JumpIndirect, Load, Mov,
                                    MovImm, Nop, PyOp, Ret, Store,
                                    compute_flags)
from repro.isa.interpreter import (CpuHooks, CpuState, ExecutionLimitExceeded,
                                   ExecutionResult)
from repro.isa.memory import Memory, TransientMemory
from repro.isa.predecode import BranchKind, BranchRecord
from repro.isa.program import Program, ProgramError
from repro.pathfinder.search import PathSearch
from repro.primitives.extended_read import ExtendedPhrReader
from repro.primitives.read_phr import PhrReader
from repro.primitives.read_pht import PhtReader
from repro.replay import ReplayEngine

# ----------------------------------------------------------------------
# the dispatch-loop interpreter
# ----------------------------------------------------------------------

class ReferenceInterpreter:
    """The original ``isinstance``-dispatch twin of
    :class:`~repro.isa.interpreter.Interpreter`.

    Same constructor, :meth:`run` and :meth:`run_transient` contract;
    every committed run records the full trace whatever ``trace`` asks.
    """

    def __init__(self, program: Program, hooks: Optional[CpuHooks] = None):
        self.program = program
        self.hooks = hooks if hooks is not None else CpuHooks()

    def run(
        self,
        state: Optional[CpuState] = None,
        memory: Optional[Memory] = None,
        entry: Optional[int] = None,
        max_instructions: int = 2_000_000,
        trace: str = "full",
        on_limit: str = "raise",
    ) -> ExecutionResult:
        """Run from ``entry`` until Halt (or an outermost ``Ret``)."""
        del trace  # the reference loop always records every branch
        if on_limit not in ("raise", "stop"):
            raise ValueError(f"unknown on_limit policy {on_limit!r}")
        if state is None:
            state = CpuState()
        if memory is None:
            memory = Memory()
        pc = self.program.entry if entry is None else entry
        records: List[BranchRecord] = []
        executed = 0
        halted = False

        while True:
            if executed >= max_instructions:
                if on_limit == "stop":
                    return ExecutionResult(trace=records,
                                           instructions=executed,
                                           state=state, halted=False,
                                           next_pc=pc)
                raise ExecutionLimitExceeded(
                    f"{self.program.name} exceeded {max_instructions} "
                    f"instructions"
                )
            instruction = self.program.instruction_at(pc)
            executed += 1
            next_pc = pc + instruction.size

            if isinstance(instruction, Halt):
                self.hooks.instruction_retired(pc)
                halted = True
                break
            pc = self._execute_one(instruction, pc, next_pc, state, memory,
                                   records)
            if pc is None:  # Ret from the outermost frame
                halted = True
                break

        return ExecutionResult(trace=records, instructions=executed,
                               state=state, halted=halted)

    def _execute_one(
        self,
        instruction,
        pc: int,
        next_pc: int,
        state: CpuState,
        memory: Memory,
        trace: List[BranchRecord],
    ) -> Optional[int]:
        """Execute one committed instruction; return the next pc."""
        hooks = self.hooks

        if isinstance(instruction, Nop):
            pass
        elif isinstance(instruction, MovImm):
            state.write(instruction.dst, instruction.imm)
            state.reg_latency[instruction.dst] = 0
        elif isinstance(instruction, Mov):
            state.write(instruction.dst, state.read(instruction.src))
            state.reg_latency[instruction.dst] = state.latency_of(
                instruction.src)
        elif isinstance(instruction, BinaryOp):
            lhs = state.read(instruction.dst)
            rhs = (instruction.imm if instruction.imm is not None
                   else state.read(instruction.src))
            latency = max(
                state.latency_of(instruction.dst),
                state.latency_of(instruction.src),
            )
            if instruction.set_flags:
                state.flags = compute_flags(lhs, rhs)
                state.flags_latency = latency
            if not instruction.cmp_only:
                state.write(instruction.dst, instruction.apply(lhs, rhs))
                state.reg_latency[instruction.dst] = latency
        elif isinstance(instruction, Load):
            address = (state.read(instruction.base)
                       + instruction.offset) & WORD_MASK
            latency = hooks.load(address, instruction.width)
            state.write(instruction.dst, memory.read(address,
                                                     instruction.width))
            state.reg_latency[instruction.dst] = latency
        elif isinstance(instruction, Store):
            address = (state.read(instruction.base)
                       + instruction.offset) & WORD_MASK
            memory.write(address, instruction.width,
                         state.read(instruction.src))
            hooks.store(address, instruction.width)
        elif isinstance(instruction, PyOp):
            reads = {reg: state.read(reg) for reg in instruction.reads}
            if instruction.touches_memory:
                writes = instruction.fn(reads, memory)
            else:
                writes = instruction.fn(reads)
            for reg in instruction.writes:
                if reg not in writes:
                    raise ProgramError(
                        f"PyOp {instruction.name!r} did not produce {reg!r}"
                    )
                state.write(reg, writes[reg])
                state.reg_latency[reg] = 0
        elif isinstance(instruction, CondBranch):
            target = self.program.address_of(instruction.target)
            taken = state.flags.satisfies(instruction.condition)
            resolve_latency = state.flags_latency
            hooks.conditional_branch(pc, target, next_pc, taken,
                                     resolve_latency)
            actual_next = target if taken else next_pc
            trace.append(BranchRecord(pc, BranchKind.CONDITIONAL, taken,
                                      target, next_pc, actual_next))
            hooks.instruction_retired(pc)
            return actual_next
        elif isinstance(instruction, Jump):
            target = self.program.address_of(instruction.target)
            hooks.unconditional_branch(pc, target, BranchKind.JUMP, next_pc)
            trace.append(BranchRecord(pc, BranchKind.JUMP, True,
                                      target, next_pc, target))
            hooks.instruction_retired(pc)
            return target
        elif isinstance(instruction, JumpIndirect):
            target = state.read(instruction.reg)
            hooks.unconditional_branch(pc, target, BranchKind.INDIRECT,
                                       next_pc)
            trace.append(BranchRecord(pc, BranchKind.INDIRECT, True,
                                      target, next_pc, target))
            hooks.instruction_retired(pc)
            return target
        elif isinstance(instruction, Call):
            target = self.program.address_of(instruction.target)
            state.call_stack.append(next_pc)
            hooks.unconditional_branch(pc, target, BranchKind.CALL, next_pc)
            trace.append(BranchRecord(pc, BranchKind.CALL, True,
                                      target, next_pc, target))
            hooks.instruction_retired(pc)
            return target
        elif isinstance(instruction, Ret):
            if not state.call_stack:
                hooks.instruction_retired(pc)
                return None
            target = state.call_stack.pop()
            hooks.unconditional_branch(pc, target, BranchKind.RET, next_pc)
            trace.append(BranchRecord(pc, BranchKind.RET, True,
                                      target, next_pc, target))
            hooks.instruction_retired(pc)
            return target
        else:
            raise ProgramError(f"cannot execute {instruction!r} at {pc:#x}")

        hooks.instruction_retired(pc)
        return next_pc

    def run_transient(
        self,
        start_pc: int,
        state: CpuState,
        memory: Memory,
        budget: int,
    ) -> int:
        """The original wrong-path dispatch loop; returns the number of
        instructions that executed transiently."""
        transient_state = state.copy()
        transient_memory = TransientMemory(memory)
        pc = start_pc
        executed = 0

        while executed < budget:
            if not self.program.has_instruction_at(pc):
                break
            instruction = self.program.instruction_at(pc)
            executed += 1
            next_pc = pc + instruction.size

            if isinstance(instruction, Halt):
                break
            if isinstance(instruction, Nop):
                pc = next_pc
            elif isinstance(instruction, MovImm):
                transient_state.write(instruction.dst, instruction.imm)
                pc = next_pc
            elif isinstance(instruction, Mov):
                transient_state.write(instruction.dst,
                                      transient_state.read(instruction.src))
                pc = next_pc
            elif isinstance(instruction, BinaryOp):
                lhs = transient_state.read(instruction.dst)
                rhs = (instruction.imm if instruction.imm is not None
                       else transient_state.read(instruction.src))
                if instruction.set_flags:
                    transient_state.flags = compute_flags(lhs, rhs)
                if not instruction.cmp_only:
                    transient_state.write(instruction.dst,
                                          instruction.apply(lhs, rhs))
                pc = next_pc
            elif isinstance(instruction, Load):
                address = (transient_state.read(instruction.base)
                           + instruction.offset) & WORD_MASK
                self.hooks.transient_load(address, instruction.width)
                transient_state.write(
                    instruction.dst,
                    transient_memory.read(address, instruction.width),
                )
                pc = next_pc
            elif isinstance(instruction, Store):
                address = (transient_state.read(instruction.base)
                           + instruction.offset) & WORD_MASK
                transient_memory.write(address, instruction.width,
                                       transient_state.read(instruction.src))
                pc = next_pc
            elif isinstance(instruction, PyOp):
                reads = {reg: transient_state.read(reg)
                         for reg in instruction.reads}
                if instruction.touches_memory:
                    writes = instruction.fn(reads, transient_memory)
                else:
                    writes = instruction.fn(reads)
                for reg in instruction.writes:
                    transient_state.write(reg, writes[reg])
                pc = next_pc
            elif isinstance(instruction, CondBranch):
                target = self.program.address_of(instruction.target)
                taken = transient_state.flags.satisfies(instruction.condition)
                pc = target if taken else next_pc
            elif isinstance(instruction, Jump):
                pc = self.program.address_of(instruction.target)
            elif isinstance(instruction, JumpIndirect):
                pc = transient_state.read(instruction.reg)
            elif isinstance(instruction, Call):
                transient_state.call_stack.append(next_pc)
                pc = self.program.address_of(instruction.target)
            elif isinstance(instruction, Ret):
                if not transient_state.call_stack:
                    break
                pc = transient_state.call_stack.pop()
            else:
                break

        return executed


class ReferenceMachine(Machine):
    """A :class:`~repro.cpu.machine.Machine` whose runs (committed and
    wrong-path) go through :class:`ReferenceInterpreter`."""

    _interpreter = ReferenceInterpreter


# ----------------------------------------------------------------------
# the definitional AES data path
# ----------------------------------------------------------------------

def mix_columns_reference(state: bytes) -> bytes:
    """Definitional MixColumns via bit-serial ``_gf_mul`` (the twin that
    pins the table-based :func:`repro.aes.core.mix_columns`)."""
    out = bytearray(16)
    for column in range(4):
        a = state[4 * column:4 * column + 4]
        out[4 * column + 0] = (_gf_mul(a[0], 2) ^ _gf_mul(a[1], 3)
                               ^ a[2] ^ a[3])
        out[4 * column + 1] = (a[0] ^ _gf_mul(a[1], 2)
                               ^ _gf_mul(a[2], 3) ^ a[3])
        out[4 * column + 2] = (a[0] ^ a[1]
                               ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3))
        out[4 * column + 3] = (_gf_mul(a[0], 3) ^ a[1]
                               ^ a[2] ^ _gf_mul(a[3], 2))
    return bytes(out)


def inv_mix_columns_reference(state: bytes) -> bytes:
    """Definitional inverse MixColumns (twin of
    :func:`repro.aes.core.inv_mix_columns`)."""
    out = bytearray(16)
    for column in range(4):
        a = state[4 * column:4 * column + 4]
        out[4 * column + 0] = (_gf_mul(a[0], 14) ^ _gf_mul(a[1], 11)
                               ^ _gf_mul(a[2], 13) ^ _gf_mul(a[3], 9))
        out[4 * column + 1] = (_gf_mul(a[0], 9) ^ _gf_mul(a[1], 14)
                               ^ _gf_mul(a[2], 11) ^ _gf_mul(a[3], 13))
        out[4 * column + 2] = (_gf_mul(a[0], 13) ^ _gf_mul(a[1], 9)
                               ^ _gf_mul(a[2], 14) ^ _gf_mul(a[3], 11))
        out[4 * column + 3] = (_gf_mul(a[0], 11) ^ _gf_mul(a[1], 13)
                               ^ _gf_mul(a[2], 9) ^ _gf_mul(a[3], 14))
    return bytes(out)


def aesenc_reference(state: bytes, round_key: bytes) -> bytes:
    """Stage-by-stage ``aesenc`` (twin of the fused
    :func:`repro.aes.core.aesenc`)."""
    return add_round_key(
        mix_columns_reference(shift_rows(sub_bytes(state))), round_key)


def aesenclast_reference(state: bytes, round_key: bytes) -> bytes:
    """Stage-by-stage ``aesenclast`` (twin of
    :func:`repro.aes.core.aesenclast`)."""
    return add_round_key(shift_rows(sub_bytes(state)), round_key)


def _read_block(memory, address: int) -> bytes:
    return bytes(memory.read(address + i, 1) for i in range(16))


def _write_block(memory, address: int, block: bytes) -> None:
    for i, byte in enumerate(block):
        memory.write(address + i, 1, byte)


def _xor_key0(reads: Dict[str, int], memory) -> Dict[str, int]:
    """Byte-at-a-time pre-whitening xor."""
    plaintext = _read_block(memory, PLAINTEXT_ADDRESS)
    round_key = _read_block(memory, KEY_BASE)
    _write_block(memory, STATE_ADDRESS,
                 bytes(p ^ k for p, k in zip(plaintext, round_key)))
    return {}


def _aesenc_op(reads: Dict[str, int], memory) -> Dict[str, int]:
    """``aesenc`` on the definitional AES round."""
    state = _read_block(memory, STATE_ADDRESS)
    round_key = _read_block(memory, reads["rbx"])
    _write_block(memory, STATE_ADDRESS, aesenc_reference(state, round_key))
    return {}


def _aesenclast_op(reads: Dict[str, int], memory) -> Dict[str, int]:
    """``aesenclast`` on the definitional last round."""
    state = _read_block(memory, STATE_ADDRESS)
    round_key = _read_block(memory, reads["rbx"])
    _write_block(memory, CIPHERTEXT_ADDRESS,
                 aesenclast_reference(state, round_key))
    return {}


class ReferenceAesVictim(AesVictim):
    """The looped AES victim on the seed data path: stage-by-stage
    rounds over byte-at-a-time memory I/O.  Same program skeleton, same
    ciphertexts, traces and counters as :class:`AesVictim`."""

    _pyops = (_xor_key0, _aesenc_op, _aesenclast_op)


# ----------------------------------------------------------------------
# naive prefix replay
# ----------------------------------------------------------------------

class NaiveReplayEngine(ReplayEngine):
    """Caches nothing: every establish of a built checkpoint re-runs its
    whole builder chain from the root (captured and adopted checkpoints
    still restore, as they have no builder)."""

    def _establish_built(self, key) -> None:
        self._rebuild(key)


class NaivePhrReader(PhrReader):
    """``Read_PHR`` re-running ``Clear_PHR``; victim call per guess --
    the paper's naive per-trial protocol."""

    _replay_engine = NaiveReplayEngine


class NaivePhtReader(PhtReader):
    """``Read_PHT`` batches re-running the prime+victim prefix per
    coordinate."""

    _replay_engine = NaiveReplayEngine


class NaiveExtendedPhrReader(ExtendedPhrReader):
    """``Extended_Read_PHR`` whose every round re-commits the victim's
    entire conditional history, each branch at its true pre-branch PHR
    -- the full Figure 5 victim re-invocation.  Only the probed entry
    feeds the aliased probe, so the recovered doublets equal the
    production reader's.  Construct with ``reset_between_probes=True``
    for order-independent probes, as the production comparison does.
    """

    _refresh_for = None
    _refresh = ()

    def _refresh_victim(self, victim_pc: int,
                        victim_phr: PathHistoryRegister) -> None:
        if self._refresh_for is not self._history:
            branches, pre_phr_values = self._history
            self._refresh = [
                (branch.pc, PathHistoryRegister(self.capacity, value))
                for branch, value in zip(branches, pre_phr_values)
                if branch.conditional
            ]
            self._refresh_for = self._history
        machine = self.machine
        for pc, pre_phr in self._refresh:
            machine.cbp.observe(pc, pre_phr, True)


# ----------------------------------------------------------------------
# exhaustive Pathfinder search
# ----------------------------------------------------------------------

class _NoDeadStates:
    """A dead-state table that remembers nothing."""

    def __contains__(self, key) -> bool:
        return False

    def add(self, key) -> None:
        pass


class ExhaustivePathSearch(PathSearch):
    """:class:`~repro.pathfinder.search.PathSearch` without the
    dead-state transposition table: the naive exhaustive walk, which
    never prunes (``pruned`` stays 0)."""

    def _dead_states(self) -> _NoDeadStates:
        return _NoDeadStates()


# ----------------------------------------------------------------------
# the eager Flush+Reload sweep
# ----------------------------------------------------------------------

class EagerDataCache(DataCache):
    """:class:`~repro.cpu.cache.DataCache` whose reload walks and fills
    every probe line at once -- the full ``access_resolved`` sweep,
    O(probe lines) per reload and per following restore."""

    def _reload(self, resolved, groups) -> List[int]:
        return self._fill(resolved)
