"""Architectural interpreter for the reproduction ISA.

The interpreter executes a :class:`~repro.isa.program.Program` and reports
every control-flow event to a pluggable :class:`CpuHooks` object.  The
microarchitectural machinery (branch predictors, caches, speculation)
lives in :mod:`repro.cpu.machine`, which implements those hooks; running a
program with the default hooks gives a purely architectural execution,
which is what the Pathfinder CFG tool and the codec ground truths use.

Execution runs through *predecoded threaded code*: the first run of a
program compiles every static instruction into a bound handler closure
(:mod:`repro.isa.predecode`), so the hot loop is one dict index plus one
call per dynamic instruction -- no ``isinstance`` chain, no per-branch
label resolution.  Per DESIGN.md decision 5 the original dispatch loops
survive as the reference twin :class:`repro.fuzz.twins.ReferenceInterpreter`,
outside the production call graph, and property tests pin the two paths
bit-identical (registers, flags, memory, trace, perf-counter deltas,
transient-executed counts).

Committed runs accept ``trace='full'|'branches'|'none'``: ``full``
records every dynamic branch (the default, and the reference twin's only
behaviour), ``branches`` records conditional branches only, and ``none``
skips :class:`BranchRecord` allocation entirely for pure-throughput runs.
Hooks fire identically in every mode.

Transient (wrong-path) execution is supported through
:meth:`Interpreter.run_transient`: the machine invokes it after a
misprediction with a sandboxed copy of the register state and a
store-buffer memory overlay.  Wrong-path loads are routed through the
hooks so they can perturb the simulated data cache -- the covert channel
the AES attack depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from repro.isa.instructions import WORD_BITS, WORD_MASK, Flags
from repro.isa.memory import Memory, TransientMemory
from repro.isa.predecode import TRACE_MODES, BranchKind, BranchRecord
from repro.isa.program import Program, ProgramError

__all__ = [
    "BranchKind",
    "BranchRecord",
    "CpuHooks",
    "CpuState",
    "ExecutionLimitExceeded",
    "ExecutionResult",
    "Interpreter",
    "TRACE_MODES",
    "WORD_BITS",
    "WORD_MASK",
]


class ExecutionLimitExceeded(Exception):
    """Raised when a program exceeds its dynamic instruction budget."""


class CpuHooks:
    """Microarchitectural observation points.

    The default implementations are no-ops with ideal (taken == prediction)
    behaviour; :class:`repro.cpu.machine.Machine` overrides all of them.
    """

    def conditional_branch(
        self, pc: int, target: int, fallthrough: int, taken: bool,
        resolve_latency: int,
    ) -> None:
        """Called after each conditional branch resolves architecturally."""

    def unconditional_branch(self, pc: int, target: int, kind: BranchKind,
                             next_pc: int) -> None:
        """Called for each taken jump/call/ret/indirect branch.

        ``next_pc`` is the sequential successor (``pc + size``) -- the
        return address a call pushes onto the RAS, which matters for
        variable-size ``Call`` encodings.
        """

    def load(self, address: int, width: int) -> int:
        """Called for each committed load; returns its latency in cycles."""
        return 1

    def store(self, address: int, width: int) -> None:
        """Called for each committed store."""

    def transient_load(self, address: int, width: int) -> int:
        """Called for each wrong-path load; returns its latency in cycles."""
        return 1

    def instruction_retired(self, pc: int) -> None:
        """Called once per committed instruction."""


@dataclass
class CpuState:
    """Architectural register state."""

    regs: Dict[str, int] = field(default_factory=dict)
    flags: Flags = field(default_factory=Flags)
    call_stack: List[int] = field(default_factory=list)
    #: Cycles until each register's most recent producing load completes;
    #: drives the misprediction resolution latency (Section 9's cache flush
    #: of the round count widens the speculation window through this).
    reg_latency: Dict[str, int] = field(default_factory=dict)
    #: Latency of the operation that produced the current flags.
    flags_latency: int = 0

    def read(self, reg: str) -> int:
        return self.regs.get(reg, 0)

    def write(self, reg: str, value: int) -> None:
        self.regs[reg] = value & WORD_MASK

    def latency_of(self, reg: Optional[str]) -> int:
        if reg is None:
            return 0
        return self.reg_latency.get(reg, 0)

    def copy(self) -> "CpuState":
        return CpuState(
            regs=dict(self.regs),
            flags=self.flags,
            call_stack=list(self.call_stack),
            reg_latency=dict(self.reg_latency),
            flags_latency=self.flags_latency,
        )


@dataclass
class ExecutionResult:
    """Outcome of an architectural run."""

    trace: List[BranchRecord]
    instructions: int
    state: CpuState
    halted: bool
    #: Resume point when the run stopped at its instruction budget with
    #: ``on_limit='stop'`` (None after a normal halt).  Re-entering at
    #: ``next_pc`` with the same state/memory/hooks continues the run
    #: exactly where it left off -- the prefix+suffix replay contract.
    next_pc: Optional[int] = None

    @cached_property
    def taken_branches(self) -> List[BranchRecord]:
        """The dynamic taken branches, in order (what the PHR records).

        Computed once and cached: results are immutable after the run, so
        repeated access must not re-scan the trace.
        """
        return [record for record in self.trace if record.taken]

    @cached_property
    def conditional_records(self) -> List[BranchRecord]:
        """The dynamic conditional branches, in order (cached)."""
        return [r for r in self.trace if r.kind is BranchKind.CONDITIONAL]


class Interpreter:
    """Executes programs architecturally, reporting events to hooks."""

    def __init__(self, program: Program, hooks: Optional[CpuHooks] = None):
        self.program = program
        self.hooks = hooks if hooks is not None else CpuHooks()

    # ------------------------------------------------------------------
    # committed execution (predecoded fast path)
    # ------------------------------------------------------------------

    def run(
        self,
        state: Optional[CpuState] = None,
        memory: Optional[Memory] = None,
        entry: Optional[int] = None,
        max_instructions: int = 2_000_000,
        trace: str = "full",
        on_limit: str = "raise",
    ) -> ExecutionResult:
        """Run from ``entry`` (default: program entry) until Halt.

        A ``Ret`` with an empty call stack also terminates the run, which
        lets victim *functions* be executed directly.  ``trace`` selects
        how much of the dynamic branch trace is materialised (see the
        module docstring); it never changes hook behaviour.

        ``on_limit`` chooses what hitting ``max_instructions`` means:
        ``'raise'`` (the default) treats it as a runaway program;
        ``'stop'`` returns a partial, resumable result (``halted=False``,
        ``next_pc`` set) with no instruction executed beyond the budget.
        """
        if on_limit not in ("raise", "stop"):
            raise ValueError(f"unknown on_limit policy {on_limit!r}")
        if state is None:
            state = CpuState()
        if memory is None:
            memory = Memory()
        handlers = self.program.committed_handlers(trace)
        hooks = self.hooks
        pc = self.program.entry if entry is None else entry
        records: List[BranchRecord] = []
        executed = 0

        while True:
            if executed >= max_instructions:
                if on_limit == "stop":
                    return ExecutionResult(trace=records,
                                           instructions=executed,
                                           state=state, halted=False,
                                           next_pc=pc)
                raise ExecutionLimitExceeded(
                    f"{self.program.name} exceeded {max_instructions} instructions"
                )
            try:
                handler = handlers[pc]
            except KeyError:
                raise ProgramError(f"no instruction at {pc:#x}") from None
            executed += 1
            pc = handler(state, memory, hooks, records)
            if pc is None:  # Halt, or Ret from the outermost frame
                break

        return ExecutionResult(trace=records, instructions=executed,
                               state=state, halted=True)

    # ------------------------------------------------------------------
    # transient (wrong-path) execution
    # ------------------------------------------------------------------

    def run_transient(
        self,
        start_pc: int,
        state: CpuState,
        memory: Memory,
        budget: int,
    ) -> int:
        """Execute the wrong path for at most ``budget`` instructions.

        Runs with a *copy* of the register state and a store-buffer overlay
        so that nothing architectural survives the squash.  Wrong-path
        loads are reported through :meth:`CpuHooks.transient_load`, which
        is how they perturb the simulated cache.  Returns the number of
        instructions that executed transiently.
        """
        transient_state = state.copy()
        transient_memory = TransientMemory(memory)
        handlers = self.program.transient_handlers()
        handler_at = handlers.get
        hooks = self.hooks
        pc = start_pc
        executed = 0

        while executed < budget:
            handler = handler_at(pc)
            if handler is None:  # wrong path ran off the mapped code
                break
            executed += 1
            pc = handler(transient_state, transient_memory, hooks)
            if pc is None:  # halt / empty-stack ret / uninterpretable
                break

        return executed
