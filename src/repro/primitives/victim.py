"""Victim invocation handles.

The paper's threat model (Section 3) lets the attacker invoke the victim
repeatedly with fixed (but unknown) inputs, and assumes deterministic
branching.  :class:`VictimHandle` wraps that contract: it runs a victim
program on the shared machine and -- because the run is deterministic --
can replay the victim's recorded effect cheaply on subsequent calls.

Two invocation modes exist:

* ``execute`` -- interpret the victim program end to end (every call);
* ``replay`` -- after one profiling execution, subsequent calls replay the
  recorded branch commits (same CBP updates, same PHR updates) without
  re-interpreting data instructions.

Replay performs the *identical* sequence of predictor interactions, so
the two modes are microarchitecturally equivalent for everything the
attacks measure; ``tests/test_victim_handle.py`` asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cpu.machine import Machine
from repro.isa.interpreter import BranchKind, CpuState
from repro.isa.memory import Memory
from repro.isa.program import Program


@dataclass(frozen=True)
class RecordedBranch:
    """One committed branch from the profiling run."""

    pc: int
    target: int
    conditional: bool
    taken: bool


class VictimHandle:
    """Invokable victim with deterministic control flow.

    ``setup`` (optional) prepares registers/memory before each execution;
    it must be deterministic for the handle's replay cache to be valid.
    """

    def __init__(
        self,
        machine: Machine,
        program: Program,
        setup: Optional[Callable[[CpuState, Memory], None]] = None,
        entry: Optional[int] = None,
        mode: str = "replay",
        max_instructions: int = 5_000_000,
    ):
        if mode not in ("replay", "execute"):
            raise ValueError(f"unknown victim mode {mode!r}")
        self.machine = machine
        self.program = program
        self.setup = setup
        self.entry = entry
        self.mode = mode
        self.max_instructions = max_instructions
        self._recorded: Optional[List[RecordedBranch]] = None

    # ------------------------------------------------------------------

    def _execute(self, thread: int) -> None:
        state = CpuState()
        memory = Memory()
        if self.setup is not None:
            self.setup(state, memory)
        result = self.machine.run(
            self.program,
            thread=thread,
            state=state,
            memory=memory,
            entry=self.entry,
            max_instructions=self.max_instructions,
        )
        self._recorded = [
            RecordedBranch(
                pc=record.pc,
                target=record.target,
                conditional=record.kind is BranchKind.CONDITIONAL,
                taken=record.taken,
            )
            for record in result.trace
        ]

    def invoke(self, thread: int = 0) -> None:
        """Run the victim once on ``thread`` (execute or replay)."""
        if self.mode == "execute" or self._recorded is None:
            self._execute(thread)
            return
        machine = self.machine
        for branch in self._recorded:
            if branch.conditional:
                machine.observe_conditional(branch.pc, branch.target,
                                            branch.taken, thread=thread)
            elif branch.taken:
                machine.record_taken_branch(branch.pc, branch.target,
                                            thread=thread)

    # ------------------------------------------------------------------
    # profiling accessors (oracle-side ground truth for experiments)
    # ------------------------------------------------------------------

    def profile(self, thread: int = 0) -> List[RecordedBranch]:
        """The victim's committed branch sequence (profiling run)."""
        if self._recorded is None:
            self._execute(thread)
        assert self._recorded is not None
        return list(self._recorded)

    def taken_branches(self, thread: int = 0) -> List[Tuple[int, int]]:
        """Ordered ``(pc, target)`` pairs of the victim's taken branches."""
        return [
            (branch.pc, branch.target)
            for branch in self.profile(thread)
            if branch.taken
        ]
