"""Predecoded threaded-code compilation for the reproduction ISA.

The reference interpreter (`repro.fuzz.twins.ReferenceInterpreter`)
walks an ``isinstance`` chain for every dynamic instruction and
re-resolves each branch label through ``Program.address_of``.  Every
end-to-end experiment (the Fig 6 AES attack, the Fig 7 libjpeg
recovery, the Section 10 mitigation sweeps) funnels millions of dynamic
instructions through that loop, so this module compiles each *static*
instruction once into a bound handler closure:

* opcode dispatch disappears -- each address maps straight to a handler;
* label targets are resolved to absolute addresses at compile time;
* the fallthrough ``next_pc`` is precomputed from ``instruction.size``;
* per-instruction constants (register names, immediates, binary-op
  functions, condition evaluators) are bound into the closure, and hot
  attribute walks (``state.read``/``state.write`` method calls, the
  ``Flags.satisfies`` enum chain) are flattened to direct dict/attr ops.

Two tables are compiled per program -- one for the committed path and one
for the transient (wrong-path) path -- and cached on the ``Program``
(compilation is pure: programs are immutable after assembly).  Committed
handlers have the signature ``handler(state, memory, hooks, trace) ->
next_pc | None`` (``None`` terminates the run); transient handlers take
``(state, memory, hooks)`` where ``memory`` is the store-buffer overlay.

Per DESIGN.md decision 5 the dispatch-loop twins survive as
:class:`repro.fuzz.twins.ReferenceInterpreter` (outside the production
call graph) and property tests (tests/test_interpreter_equivalence.py)
pin the compiled handlers
bit-identical to them -- registers, flags, memory, trace, perf-counter
deltas and transient-executed counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.isa.instructions import (
    _BINARY_FUNCS,
    CONDITION_EVALUATORS,
    WORD_MASK,
    BinaryOp,
    compute_flags as _compute_flags_fast,
    Call,
    CondBranch,
    Halt,
    Instruction,
    Jump,
    JumpIndirect,
    Load,
    Mov,
    MovImm,
    Nop,
    PyOp,
    Ret,
    Store,
)
from repro.isa.program import Program, ProgramError

#: Valid ``trace=`` modes for a committed run: ``"full"`` records every
#: dynamic branch, ``"branches"`` only conditional branches (what the CBP
#: sees), ``"none"`` skips BranchRecord allocation entirely.  Hooks fire
#: identically in all three modes.
TRACE_MODES = ("full", "branches", "none")


class BranchKind(enum.Enum):
    """Taxonomy of control transfers, mirroring the paper's Figure 1."""

    CONDITIONAL = "conditional"
    JUMP = "jump"
    INDIRECT = "indirect"
    CALL = "call"
    RET = "ret"


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic branch outcome.

    ``target`` is the taken destination (for conditional branches, the
    destination the branch would go to when taken, even if this instance
    fell through); ``next_pc`` is where execution actually continued.
    """

    pc: int
    kind: BranchKind
    taken: bool
    target: int
    fallthrough: int
    next_pc: int


#: Committed handler: ``(state, memory, hooks, trace) -> next_pc | None``.
CommittedHandler = Callable[..., Optional[int]]
#: Transient handler: ``(state, memory, hooks) -> next_pc | None``.
TransientHandler = Callable[..., Optional[int]]


# ----------------------------------------------------------------------
# committed-path compilation
# ----------------------------------------------------------------------

def compile_committed(program: Program,
                      trace_mode: str = "full") -> Dict[int, CommittedHandler]:
    """Compile ``program`` into a per-address committed handler table."""
    if trace_mode not in TRACE_MODES:
        raise ValueError(
            f"unknown trace mode {trace_mode!r}; pick one of {TRACE_MODES}"
        )
    record_cond = trace_mode in ("full", "branches")
    record_uncond = trace_mode == "full"
    return {
        address: _compile_committed_one(program, address, instruction,
                                        record_cond, record_uncond)
        for address, instruction in program.items()
    }


def _compile_committed_one(program: Program, pc: int, instruction: Instruction,
                           record_cond: bool,
                           record_uncond: bool) -> CommittedHandler:
    next_pc = pc + instruction.size

    if isinstance(instruction, Halt):
        def handler(state, memory, hooks, trace):
            hooks.instruction_retired(pc)
            return None
        return handler

    if isinstance(instruction, Nop):
        def handler(state, memory, hooks, trace):
            hooks.instruction_retired(pc)
            return next_pc
        return handler

    if isinstance(instruction, MovImm):
        dst = instruction.dst
        imm = instruction.imm & WORD_MASK

        def handler(state, memory, hooks, trace):
            state.regs[dst] = imm
            state.reg_latency[dst] = 0
            hooks.instruction_retired(pc)
            return next_pc
        return handler

    if isinstance(instruction, Mov):
        dst, src = instruction.dst, instruction.src

        def handler(state, memory, hooks, trace):
            state.regs[dst] = state.regs.get(src, 0)
            state.reg_latency[dst] = state.reg_latency.get(src, 0)
            hooks.instruction_retired(pc)
            return next_pc
        return handler

    if isinstance(instruction, BinaryOp):
        fn = _BINARY_FUNCS[instruction.op]
        dst, src, imm = instruction.dst, instruction.src, instruction.imm
        set_flags, write_back = instruction.set_flags, not instruction.cmp_only
        compute = _compute_flags_fast

        if imm is not None:
            def handler(state, memory, hooks, trace):
                regs = state.regs
                lhs = regs.get(dst, 0)
                latency = state.reg_latency.get(dst, 0)
                if latency < 0:
                    latency = 0
                if set_flags:
                    state.flags = compute(lhs, imm)
                    state.flags_latency = latency
                if write_back:
                    regs[dst] = fn(lhs, imm) & WORD_MASK
                    state.reg_latency[dst] = latency
                hooks.instruction_retired(pc)
                return next_pc
        else:
            def handler(state, memory, hooks, trace):
                regs = state.regs
                reg_latency = state.reg_latency
                lhs = regs.get(dst, 0)
                rhs = regs.get(src, 0)
                latency = max(reg_latency.get(dst, 0), reg_latency.get(src, 0))
                if set_flags:
                    state.flags = compute(lhs, rhs)
                    state.flags_latency = latency
                if write_back:
                    regs[dst] = fn(lhs, rhs) & WORD_MASK
                    reg_latency[dst] = latency
                hooks.instruction_retired(pc)
                return next_pc
        return handler

    if isinstance(instruction, Load):
        dst, base = instruction.dst, instruction.base
        offset, width = instruction.offset, instruction.width

        def handler(state, memory, hooks, trace):
            address = (state.regs.get(base, 0) + offset) & WORD_MASK
            latency = hooks.load(address, width)
            state.regs[dst] = memory.read(address, width) & WORD_MASK
            state.reg_latency[dst] = latency
            hooks.instruction_retired(pc)
            return next_pc
        return handler

    if isinstance(instruction, Store):
        src, base = instruction.src, instruction.base
        offset, width = instruction.offset, instruction.width

        def handler(state, memory, hooks, trace):
            address = (state.regs.get(base, 0) + offset) & WORD_MASK
            memory.write(address, width, state.regs.get(src, 0))
            hooks.store(address, width)
            hooks.instruction_retired(pc)
            return next_pc
        return handler

    if isinstance(instruction, PyOp):
        fn, name = instruction.fn, instruction.name
        reads, writes = instruction.reads, instruction.writes
        touches_memory = instruction.touches_memory

        def handler(state, memory, hooks, trace):
            regs = state.regs
            values = {reg: regs.get(reg, 0) for reg in reads}
            produced = fn(values, memory) if touches_memory else fn(values)
            for reg in writes:
                if reg not in produced:
                    raise ProgramError(
                        f"PyOp {name!r} did not produce {reg!r}"
                    )
                regs[reg] = produced[reg] & WORD_MASK
                state.reg_latency[reg] = 0
            hooks.instruction_retired(pc)
            return next_pc
        return handler

    if isinstance(instruction, CondBranch):
        target = program.address_of(instruction.target)
        evaluate = CONDITION_EVALUATORS[instruction.condition]
        kind = BranchKind.CONDITIONAL
        record = BranchRecord

        if record_cond:
            def handler(state, memory, hooks, trace):
                taken = evaluate(state.flags)
                hooks.conditional_branch(pc, target, next_pc, taken,
                                         state.flags_latency)
                actual_next = target if taken else next_pc
                trace.append(record(pc, kind, taken, target, next_pc,
                                    actual_next))
                hooks.instruction_retired(pc)
                return actual_next
        else:
            def handler(state, memory, hooks, trace):
                taken = evaluate(state.flags)
                hooks.conditional_branch(pc, target, next_pc, taken,
                                         state.flags_latency)
                hooks.instruction_retired(pc)
                return target if taken else next_pc
        return handler

    if isinstance(instruction, Jump):
        target = program.address_of(instruction.target)
        kind = BranchKind.JUMP
        record = BranchRecord

        if record_uncond:
            def handler(state, memory, hooks, trace):
                hooks.unconditional_branch(pc, target, kind, next_pc)
                trace.append(record(pc, kind, True, target, next_pc, target))
                hooks.instruction_retired(pc)
                return target
        else:
            def handler(state, memory, hooks, trace):
                hooks.unconditional_branch(pc, target, kind, next_pc)
                hooks.instruction_retired(pc)
                return target
        return handler

    if isinstance(instruction, JumpIndirect):
        reg = instruction.reg
        kind = BranchKind.INDIRECT
        record = BranchRecord

        if record_uncond:
            def handler(state, memory, hooks, trace):
                target = state.regs.get(reg, 0)
                hooks.unconditional_branch(pc, target, kind, next_pc)
                trace.append(record(pc, kind, True, target, next_pc, target))
                hooks.instruction_retired(pc)
                return target
        else:
            def handler(state, memory, hooks, trace):
                target = state.regs.get(reg, 0)
                hooks.unconditional_branch(pc, target, kind, next_pc)
                hooks.instruction_retired(pc)
                return target
        return handler

    if isinstance(instruction, Call):
        target = program.address_of(instruction.target)
        kind = BranchKind.CALL
        record = BranchRecord

        if record_uncond:
            def handler(state, memory, hooks, trace):
                state.call_stack.append(next_pc)
                hooks.unconditional_branch(pc, target, kind, next_pc)
                trace.append(record(pc, kind, True, target, next_pc, target))
                hooks.instruction_retired(pc)
                return target
        else:
            def handler(state, memory, hooks, trace):
                state.call_stack.append(next_pc)
                hooks.unconditional_branch(pc, target, kind, next_pc)
                hooks.instruction_retired(pc)
                return target
        return handler

    if isinstance(instruction, Ret):
        kind = BranchKind.RET
        record = BranchRecord

        if record_uncond:
            def handler(state, memory, hooks, trace):
                stack = state.call_stack
                if not stack:
                    hooks.instruction_retired(pc)
                    return None
                target = stack.pop()
                hooks.unconditional_branch(pc, target, kind, next_pc)
                trace.append(record(pc, kind, True, target, next_pc, target))
                hooks.instruction_retired(pc)
                return target
        else:
            def handler(state, memory, hooks, trace):
                stack = state.call_stack
                if not stack:
                    hooks.instruction_retired(pc)
                    return None
                target = stack.pop()
                hooks.unconditional_branch(pc, target, kind, next_pc)
                hooks.instruction_retired(pc)
                return target
        return handler

    def handler(state, memory, hooks, trace):
        raise ProgramError(f"cannot execute {instruction!r} at {pc:#x}")
    return handler


# ----------------------------------------------------------------------
# transient-path compilation
# ----------------------------------------------------------------------

def compile_transient(program: Program) -> Dict[int, TransientHandler]:
    """Compile ``program`` into a per-address wrong-path handler table.

    Transient handlers operate on the sandboxed register-state copy and
    the store-buffer memory overlay; only ``hooks.transient_load`` is
    reported.  A ``None`` return stops the wrong path (halt, return from
    an empty speculative call stack, or an uninterpretable instruction);
    the caller stops on unmapped addresses before invoking any handler.
    """
    return {
        address: _compile_transient_one(program, address, instruction)
        for address, instruction in program.items()
    }


def _compile_transient_one(program: Program, pc: int,
                           instruction: Instruction) -> TransientHandler:
    next_pc = pc + instruction.size

    if isinstance(instruction, Nop):
        def handler(state, memory, hooks):
            return next_pc
        return handler

    if isinstance(instruction, MovImm):
        dst = instruction.dst
        imm = instruction.imm & WORD_MASK

        def handler(state, memory, hooks):
            state.regs[dst] = imm
            return next_pc
        return handler

    if isinstance(instruction, Mov):
        dst, src = instruction.dst, instruction.src

        def handler(state, memory, hooks):
            state.regs[dst] = state.regs.get(src, 0)
            return next_pc
        return handler

    if isinstance(instruction, BinaryOp):
        fn = _BINARY_FUNCS[instruction.op]
        dst, src, imm = instruction.dst, instruction.src, instruction.imm
        set_flags, write_back = instruction.set_flags, not instruction.cmp_only
        compute = _compute_flags_fast

        def handler(state, memory, hooks):
            regs = state.regs
            lhs = regs.get(dst, 0)
            rhs = imm if imm is not None else regs.get(src, 0)
            if set_flags:
                state.flags = compute(lhs, rhs)
            if write_back:
                regs[dst] = fn(lhs, rhs) & WORD_MASK
            return next_pc
        return handler

    if isinstance(instruction, Load):
        dst, base = instruction.dst, instruction.base
        offset, width = instruction.offset, instruction.width

        def handler(state, memory, hooks):
            address = (state.regs.get(base, 0) + offset) & WORD_MASK
            hooks.transient_load(address, width)
            state.regs[dst] = memory.read(address, width) & WORD_MASK
            return next_pc
        return handler

    if isinstance(instruction, Store):
        src, base = instruction.src, instruction.base
        offset, width = instruction.offset, instruction.width

        def handler(state, memory, hooks):
            address = (state.regs.get(base, 0) + offset) & WORD_MASK
            memory.write(address, width, state.regs.get(src, 0))
            return next_pc
        return handler

    if isinstance(instruction, PyOp):
        fn = instruction.fn
        reads, writes = instruction.reads, instruction.writes
        touches_memory = instruction.touches_memory

        def handler(state, memory, hooks):
            regs = state.regs
            values = {reg: regs.get(reg, 0) for reg in reads}
            produced = fn(values, memory) if touches_memory else fn(values)
            for reg in writes:
                regs[reg] = produced[reg] & WORD_MASK
            return next_pc
        return handler

    if isinstance(instruction, CondBranch):
        target = program.address_of(instruction.target)
        evaluate = CONDITION_EVALUATORS[instruction.condition]

        def handler(state, memory, hooks):
            return target if evaluate(state.flags) else next_pc
        return handler

    if isinstance(instruction, Jump):
        target = program.address_of(instruction.target)

        def handler(state, memory, hooks):
            return target
        return handler

    if isinstance(instruction, JumpIndirect):
        reg = instruction.reg

        def handler(state, memory, hooks):
            return state.regs.get(reg, 0)
        return handler

    if isinstance(instruction, Call):
        target = program.address_of(instruction.target)

        def handler(state, memory, hooks):
            state.call_stack.append(next_pc)
            return target
        return handler

    if isinstance(instruction, Ret):
        def handler(state, memory, hooks):
            stack = state.call_stack
            if not stack:
                return None
            return stack.pop()
        return handler

    # Halt and anything uninterpretable stop the wrong path (after the
    # budget accounting the caller already performed).
    def handler(state, memory, hooks):
        return None
    return handler
