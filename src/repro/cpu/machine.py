"""The simulated machine: BPU + cache + speculation + protection domains.

A :class:`Machine` owns one physical core's shared predictor state (the
direction predictor's tables, the BTB, the IBP) and per-logical-thread
state (the history register and the RAS) -- the sharing granularity the
paper establishes in Section 7.3: *"the PHR is not shared between two
SMT threads ... the PHTs are indeed shared"*.

The conditional direction predictor and the history register are built
by a pluggable :class:`~repro.cpu.model.PredictorModel` family selected
through :attr:`MachineConfig.predictor_model` (ARCHITECTURE.md §13); the
machine itself is family-agnostic glue.  With the default ``intel-cbp``
family this is exactly the paper's machine -- CBP + 194-doublet PHR --
pinned bit-identical to the pre-interface behaviour by golden hashes.

Programs run through :meth:`Machine.run`, which wires the architectural
interpreter to microarchitectural hooks: every conditional branch is
predicted by the direction predictor, mispredictions trigger bounded
wrong-path (transient) execution whose loads perturb the data cache, and
every committed branch updates the running thread's history register
under the family's update discipline.

The machine also exposes the *functional* entry points the attack
primitives use on their fast path (`observe_conditional`,
`record_taken_branch`); tests assert these are bit-identical to running
the equivalent instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.cpu.btb import BranchTargetBuffer
from repro.cpu.cache import DataCache
from repro.cpu.config import MachineConfig, RAPTOR_LAKE
from repro.cpu.ibp import IndirectBranchPredictor
from repro.cpu.model import build_model
from repro.cpu.perf import PerfCounters
from repro.cpu.ras import ReturnAddressStack
from repro.cpu.serialize import SnapshotFormatError
from repro.isa.interpreter import (
    BranchKind,
    CpuHooks,
    CpuState,
    ExecutionResult,
    Interpreter,
)
from repro.isa.memory import Memory
from repro.isa.program import Program


@dataclass
class ThreadContext:
    """Per-logical-thread (SMT) microarchitectural state."""

    thread_id: int
    #: The thread's branch-history register, built by the machine's
    #: predictor family (:meth:`repro.cpu.model.PredictorModel.build_history`).
    #: Named ``phr`` for the paper's register; other families bind their
    #: own register kind here (e.g. a tournament GHR), all speaking the
    #: history protocol documented in :mod:`repro.cpu.model`.
    phr: Any
    ras: ReturnAddressStack
    #: Informational label of the security domain currently executing.
    domain: str = "user"


@dataclass(frozen=True)
class MachineSnapshot:
    """A value checkpoint of every stateful machine component.

    Produced by :meth:`Machine.snapshot` and consumed by
    :meth:`Machine.restore`.  Snapshots are sparse (only live predictor /
    cache state is copied) and immutable, so one checkpoint can seed any
    number of restores -- the trial-harness pattern of training a machine
    once and resetting it before every independent trial.
    """

    cbp: tuple
    btb: tuple
    ibp: tuple
    cache: tuple
    perf: PerfCounters
    #: Per logical thread: (phr value, ras snapshot, domain label).
    threads: Tuple[Tuple[int, tuple, str], ...]
    ibrs_enabled: bool
    #: PHR capacity (doublets) of the source machine, for restore checks.
    phr_capacity: int = 0
    #: Predictor-family id of the source machine.  :meth:`Machine.restore`
    #: rejects a snapshot whose family differs from the restoring
    #: machine's backend -- the table/history payloads above are
    #: family-shaped and silently mis-restoring them would corrupt state.
    predictor_model: str = "intel-cbp"

    def to_bytes(self) -> bytes:
        """Serialize to the versioned artifact format.

        The inverse of :meth:`from_bytes`; see
        :mod:`repro.cpu.serialize` for the format contract.  Round-trips
        are bit-identical (``from_bytes(to_bytes(s)) == s``), which is
        what lets the service layer's checkpoint store share snapshots
        across processes and worker restarts.
        """
        from repro.cpu.serialize import snapshot_to_bytes

        return snapshot_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MachineSnapshot":
        """Deserialize a :meth:`to_bytes` artifact.

        Raises :class:`repro.cpu.serialize.SnapshotFormatError` on a
        magic/version mismatch or a damaged payload.
        """
        from repro.cpu.serialize import snapshot_from_bytes

        return snapshot_from_bytes(data)


@dataclass
class MachineRunResult:
    """Outcome of one :meth:`Machine.run` invocation."""

    execution: ExecutionResult
    perf: PerfCounters
    phr_value: int

    @property
    def trace(self):
        """The dynamic branch trace of the run."""
        return self.execution.trace

    @property
    def state(self) -> CpuState:
        """Final architectural register state."""
        return self.execution.state


class _MachineHooks(CpuHooks):
    """Binds a running interpreter to the machine's microarchitecture."""

    def __init__(self, machine: "Machine", thread: ThreadContext,
                 speculate: bool):
        self.machine = machine
        self.thread = thread
        self.speculate = speculate
        #: Filled in by Machine.run before execution starts.
        self.state: Optional[CpuState] = None
        self.memory: Optional[Memory] = None
        #: The wrong-path runner of the interpreter executing the run.
        self.run_transient = None

    def conditional_branch(self, pc: int, target: int, fallthrough: int,
                           taken: bool, resolve_latency: int) -> None:
        machine = self.machine
        mispredicted = machine._resolve_conditional(
            self.thread, pc, target, taken, resolve_latency,
            hooks=self if self.speculate else None,
            fallthrough=fallthrough,
        )
        del mispredicted  # counters already updated

    def unconditional_branch(self, pc: int, target: int,
                             kind: BranchKind, next_pc: int) -> None:
        self.machine._resolve_unconditional(self.thread, pc, target, kind,
                                            next_pc)

    def load(self, address: int, width: int) -> int:
        return self.machine.cache.access(address)

    def transient_load(self, address: int, width: int) -> int:
        return self.machine.cache.access(address)

    def store(self, address: int, width: int) -> None:
        self.machine.cache.access(address)

    def instruction_retired(self, pc: int) -> None:
        self.machine.perf.instructions += 1


class Machine:
    """One simulated physical core."""

    #: The interpreter :meth:`run` drives.  The dispatch-loop reference
    #: twin (:class:`repro.fuzz.twins.ReferenceMachine`) swaps it.
    _interpreter = Interpreter

    def __init__(self, config: MachineConfig = RAPTOR_LAKE):
        self.config = config
        #: The predictor family backing this machine (ARCHITECTURE.md §13).
        self.model = build_model(config)
        #: The family's direction predictor; the default ``intel-cbp``
        #: binds a :class:`~repro.cpu.cbp.ConditionalBranchPredictor`.
        self.cbp = self.model.build_direction_predictor()
        self.btb = BranchTargetBuffer()
        self.ibp = IndirectBranchPredictor()
        self.cache = DataCache(
            sets=config.cache_sets,
            ways=config.cache_ways,
            line_size=config.cache_line_size,
            hit_latency=config.cache_hit_latency,
            miss_latency=config.cache_miss_latency,
        )
        self.perf = PerfCounters()
        self.threads: List[ThreadContext] = [
            ThreadContext(
                thread_id=tid,
                phr=self.model.build_history(),
                ras=ReturnAddressStack(),
            )
            for tid in range(config.smt_threads)
        ]
        self.ibrs_enabled = False
        #: Optional per-commit observation point ``(pc, kind, taken)``,
        #: fired after every committed branch has fully updated the
        #: predictors (conditional branches report their architectural
        #: direction; non-conditional taken branches report their true
        #: :class:`BranchKind`, including CALL/RET).  ``None`` -- the
        #: default -- costs one
        #: attribute check per branch; the differential fuzzer hangs its
        #: invariant oracle and commit-stream capture here.
        self.branch_observer: Optional[
            Callable[[int, BranchKind, bool], None]] = None
        #: Machine-level share of the mutation epoch: bumped by whole-
        #: machine operations (:meth:`run`, :meth:`restore`, :meth:`touch`)
        #: whose component-level footprint would be awkward to enumerate.
        #: See :attr:`state_epoch`.
        self._mutation_epoch = 0

    # ------------------------------------------------------------------
    # mutation epoch
    # ------------------------------------------------------------------

    def touch(self) -> None:
        """Declare an out-of-band state mutation.

        Callers that poke component internals directly (tests, exotic
        experiments) bump the epoch through here so memoized digests of
        this machine's state (:func:`repro.isa.identity.machine_digest`)
        cannot serve a stale value.
        """
        self._mutation_epoch += 1

    @property
    def state_epoch(self) -> Optional[tuple]:
        """An identity token for the machine's current snapshot-visible state.

        Two reads returning equal tuples guarantee no state-changing
        method ran in between, so any value derived from the snapshot
        (its digest, above all) is still valid.  The converse is not
        promised: a restore to identical state still changes the epoch.

        Returns ``None`` -- disabling such memoization -- when a component
        has been replaced by one without a mutation counter (e.g. the
        hardened predictors of :mod:`repro.analysis.secure_predictors`
        wrap ``machine.cbp``); correctness degrades to a full recompute,
        never to a stale digest.
        """
        cbp_mutations = getattr(self.cbp, "mutations", None)
        if cbp_mutations is None:
            return None
        perf = self.perf
        return (
            self._mutation_epoch,
            cbp_mutations,
            self.btb.mutations,
            self.ibp.mutations,
            self.cache.mutations,
            (perf.instructions, perf.conditional_branches,
             perf.taken_branches, perf.returns, perf.indirect_branches),
            tuple((context.phr.version, context.ras.mutations,
                   context.domain) for context in self.threads),
            self.ibrs_enabled,
        )

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------

    def phr(self, thread: int = 0) -> Any:
        """The history register of logical thread ``thread``."""
        return self.threads[thread].phr

    def thread(self, thread: int = 0) -> ThreadContext:
        """The context of logical thread ``thread``."""
        return self.threads[thread]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        """Checkpoint all microarchitectural state as an immutable value.

        Covers the CBP (base predictor + tagged PHTs), BTB, IBP, data
        cache, perf counters, and every thread's PHR/RAS/domain -- the
        complete machine state an attack can observe or perturb.  Copies
        are sparse (only populated entries), so a snapshot of a trained
        machine costs its live state, not its configured capacity.
        Architectural state (:class:`CpuState`, :class:`Memory`) is
        per-run and deliberately out of scope.
        """
        return MachineSnapshot(
            cbp=self.cbp.snapshot(),
            btb=self.btb.snapshot(),
            ibp=self.ibp.snapshot(),
            cache=self.cache.snapshot(),
            perf=self.perf.snapshot(),
            threads=tuple(
                (context.phr.snapshot(), context.ras.snapshot(),
                 context.domain)
                for context in self.threads
            ),
            ibrs_enabled=self.ibrs_enabled,
            phr_capacity=self.config.phr_capacity,
            predictor_model=self.model.model_id,
        )

    def restore(self, snap: MachineSnapshot) -> None:
        """Restore a :meth:`snapshot` taken on this machine.

        Restores are diff-based: component state that still matches the
        checkpoint is left untouched, so resetting after a light
        perturbation (one poisoned PHT entry, a handful of cache lines)
        costs roughly the perturbation.  The same snapshot may be
        restored any number of times; repeated trials against a trained
        machine reset through here instead of re-provisioning and
        re-profiling from scratch.
        """
        if snap.predictor_model != self.model.model_id:
            raise SnapshotFormatError(
                f"snapshot is for predictor model "
                f"{snap.predictor_model!r}, this machine runs "
                f"{self.model.model_id!r}"
            )
        if len(snap.threads) != len(self.threads):
            raise ValueError(
                "snapshot is for a machine with a different thread count"
            )
        if snap.phr_capacity and snap.phr_capacity != self.config.phr_capacity:
            raise ValueError(
                f"snapshot is for a {snap.phr_capacity}-doublet PHR, "
                f"this machine has {self.config.phr_capacity}"
            )
        self._mutation_epoch += 1
        self.cbp.restore(snap.cbp)
        self.btb.restore(snap.btb)
        self.ibp.restore(snap.ibp)
        self.cache.restore(snap.cache)
        self.perf.restore(snap.perf)
        for context, (phr_value, ras_snap, domain) in zip(self.threads,
                                                          snap.threads):
            context.phr.restore(phr_value)
            context.ras.restore(ras_snap)
            context.domain = domain
        self.ibrs_enabled = snap.ibrs_enabled

    # ------------------------------------------------------------------
    # functional branch entry points (fast path for the primitives)
    # ------------------------------------------------------------------

    def record_taken_branch(self, pc: int, target: int, thread: int = 0,
                            kind: BranchKind = BranchKind.JUMP) -> None:
        """Commit one taken non-conditional branch.

        Unconditional direct branches interact with the BTB and the PHR but
        *not* with the PHTs -- the property both the ``Shift_PHR`` macro
        and the Section 10 PHR-flush mitigation rely on.
        """
        context = self.threads[thread]
        self.btb.update(pc, target)
        if kind is BranchKind.INDIRECT:
            predicted = self.ibp.predict(pc, context.phr)
            self.perf.indirect_branches += 1
            if predicted != target:
                self.perf.indirect_mispredictions += 1
            self.ibp.update(pc, context.phr, target)
        context.phr.on_taken(pc, target)
        self.perf.taken_branches += 1
        observer = self.branch_observer
        if observer is not None:
            observer(pc, kind, True)

    def observe_conditional(self, pc: int, target: int, taken: bool,
                            thread: int = 0) -> bool:
        """Commit one conditional branch; return whether it mispredicted.

        This is the exact commit path of :meth:`run` minus transient
        execution (which a bare predict/update experiment does not need).
        """
        context = self.threads[thread]
        return self._resolve_conditional(context, pc, target, taken,
                                         resolve_latency=0, hooks=None,
                                         fallthrough=pc + 4)

    def _resolve_conditional(
        self,
        context: ThreadContext,
        pc: int,
        target: int,
        taken: bool,
        resolve_latency: int,
        hooks: Optional[_MachineHooks],
        fallthrough: int,
    ) -> bool:
        prediction = self.cbp.predict(pc, context.phr)
        mispredicted = prediction.taken != taken
        self.perf.record_conditional(pc, mispredicted)

        if mispredicted and hooks is not None and hooks.run_transient is not None:
            budget = self._speculation_budget(resolve_latency)
            wrong_path_pc = target if prediction.taken else fallthrough
            self.perf.speculation_windows += 1
            executed = hooks.run_transient(
                wrong_path_pc, hooks.state, hooks.memory, budget
            )
            self.perf.transient_instructions += executed

        self.cbp.update(pc, context.phr, taken, prediction)
        if taken:
            self.btb.update(pc, target)
            self.perf.taken_branches += 1
        # The family's history discipline decides what a committed
        # conditional records (Intel: taken only; M1: both directions;
        # tournament GHR: the direction bit) -- after the predictor has
        # trained on the lookup-time history, before the observer fires.
        context.phr.on_conditional(pc, target, taken)
        observer = self.branch_observer
        if observer is not None:
            observer(pc, BranchKind.CONDITIONAL, taken)
        return mispredicted

    def _resolve_unconditional(self, context: ThreadContext, pc: int,
                               target: int, kind: BranchKind,
                               next_pc: Optional[int] = None) -> None:
        if kind is BranchKind.CALL:
            # The RAS holds the *real* return address, pc + instruction
            # size, threaded through the unconditional-branch hook --
            # a hardcoded pc + 4 would mispredict every return from a
            # variable-size Call encoding.
            context.ras.push(pc + 4 if next_pc is None else next_pc)
        elif kind is BranchKind.RET:
            predicted = context.ras.pop()
            self.perf.returns += 1
            if predicted is None:
                # Empty RAS: the return has no predicted target at all.
                # That is a misprediction by definition, counted under
                # both the indirect-misprediction total and a dedicated
                # underflow counter so it is never silent.
                self.perf.ras_underflows += 1
                self.perf.indirect_mispredictions += 1
            elif predicted != target:
                self.perf.indirect_mispredictions += 1
        # The true kind flows through for the observer's benefit; the
        # predictors themselves only distinguish INDIRECT (IBP traffic)
        # from everything else, so CALL/RET train exactly like JUMP.
        self.record_taken_branch(pc, target, thread=context.thread_id,
                                 kind=kind)

    def _speculation_budget(self, resolve_latency: int) -> int:
        config = self.config
        widened = resolve_latency // config.spec_cycles_per_instruction
        return min(config.spec_window_max, config.spec_window_base + widened)

    # ------------------------------------------------------------------
    # program execution
    # ------------------------------------------------------------------

    def run(
        self,
        program: Program,
        thread: int = 0,
        state: Optional[CpuState] = None,
        memory: Optional[Memory] = None,
        entry: Optional[int] = None,
        max_instructions: int = 2_000_000,
        speculate: bool = True,
        trace: str = "full",
        on_limit: str = "raise",
    ) -> MachineRunResult:
        """Run ``program`` on logical thread ``thread``.

        Returns the architectural result plus the perf-counter delta for
        this run and the thread's final PHR value.  ``trace`` selects how
        much of the branch trace is materialised
        (``'full'``/``'branches'``/``'none'``, see
        :meth:`repro.isa.interpreter.Interpreter.run`).  ``on_limit='stop'``
        makes the instruction budget a pause point instead of an error:
        the run returns ``halted=False`` with ``execution.next_pc`` set,
        and can be resumed by calling :meth:`run` again with the same
        state/memory and ``entry=execution.next_pc`` (the machine-side
        predictor state simply carries over).
        """
        # Runs mutate state through too many paths (transient loads, perf
        # side counters) to rely on component epochs alone.
        self._mutation_epoch += 1
        context = self.threads[thread]
        hooks = _MachineHooks(self, context, speculate)
        interpreter = self._interpreter(program, hooks)
        if state is None:
            state = CpuState()
        if memory is None:
            memory = Memory()
        hooks.state = state
        hooks.memory = memory
        hooks.run_transient = interpreter.run_transient

        before = self.perf.snapshot()
        execution = interpreter.run(state=state, memory=memory, entry=entry,
                                    max_instructions=max_instructions,
                                    trace=trace, on_limit=on_limit)
        return MachineRunResult(
            execution=execution,
            perf=self.perf.delta(before),
            phr_value=context.phr.value,
        )

    # ------------------------------------------------------------------
    # domain transitions and mitigation knobs
    # ------------------------------------------------------------------

    def inject_branch_sequence(
        self,
        branches: Iterable[Tuple[int, int, bool, bool]],
        thread: int = 0,
    ) -> int:
        """Commit a canned branch sequence ``(pc, target, conditional, taken)``.

        Used to model the branches executed by kernel syscall entry/exit
        stubs and SGX enclave transitions (Section 7).  Returns the number
        of *taken* branches injected (the PHR-visible count).
        """
        taken_count = 0
        for pc, target, conditional, taken in branches:
            if conditional:
                self.observe_conditional(pc, target, taken, thread=thread)
            elif taken:
                self.record_taken_branch(pc, target, thread=thread)
            if taken:
                taken_count += 1
        return taken_count

    def set_domain(self, thread: int, domain: str) -> None:
        """Switch logical thread ``thread`` into security domain ``domain``.

        The domain label is informational on the paper's machines (the
        whole point of Section 7 is that the CBP carries state *across*
        user/kernel and user/SGX transitions), but the predictor family
        gets a veto:
        :meth:`repro.cpu.model.PredictorModel.on_domain_switch` runs on
        every actual transition, letting a family model
        domain-partitioned or domain-flushed predictor state.  All
        built-in families inherit the no-op default.
        """
        context = self.threads[thread]
        old_domain = context.domain
        if domain == old_domain:
            return
        context.domain = domain
        self.model.on_domain_switch(self, context, old_domain, domain)

    def ibpb(self) -> None:
        """Indirect Branch Predictor Barrier.

        Per Section 7.4, IBPB flushes indirect-branch prediction state and
        nothing else: the PHR and the PHTs survive, which is exactly why
        the paper's primitives defeat it.
        """
        self.ibp.barrier()

    def set_ibrs(self, enabled: bool) -> None:
        """Indirect Branch Restricted Speculation on/off.

        IBRS restricts *indirect* target speculation across privilege
        modes; like IBPB it does not flush or partition the CBP.
        """
        self.ibrs_enabled = enabled
        self.ibp.restricted = enabled

    def flush_cbp(self) -> None:
        """Flush base predictor and PHTs (Section 10 mitigation)."""
        self.cbp.flush()

    def clear_phr(self, thread: int = 0) -> None:
        """Zero the PHR of ``thread`` (Section 10 mitigation semantics)."""
        self.threads[thread].phr.clear()
