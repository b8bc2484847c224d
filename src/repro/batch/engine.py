"""The vectorized batch simulation core (ARCHITECTURE.md §10).

Every statistical experiment in the reproduction is bound by trials per
second, and profiles show the scalar hot path is the conditional branch
predictor: one :meth:`Machine.observe_conditional` costs ~13us of fold
arithmetic, table probes and counter updates.  None of that work depends
on *which* replica it happens in, so this module steps N machine replicas
in lockstep with all predictor state held as numpy arrays.

The arrays themselves are family property: each predictor family from
the scalar registry (``repro.cpu.model``) has a vector twin in
:mod:`repro.batch.backends` -- ``intel-cbp`` and ``m1-phr`` run stacked
tagged tables over a moving-origin PHR bit buffer with O(1) fold
registers, ``gshare-tournament`` runs stacked counter planes over a
direction-bit GHR.  ``BatchMachine`` resolves the backend from
``MachineConfig.predictor_model`` and owns everything family-agnostic:
the two-phase execution model, deferred deltas and the pending event
log, and the per-replica scalar shadow components.

One committed branch across the batch is then a fixed number of numpy
gathers/scatters, independent of N.

Bit-identity contract
---------------------
``BatchMachine`` is pinned *bit-identical* to the scalar reference
engine: ``extract(i)`` equals the :class:`MachineSnapshot` a scalar
:class:`Machine` would produce after the same commit stream, and
:meth:`run_batch` equals per-replica ``Machine.run(..., speculate=False)``
(trace, perf delta, PHR, full snapshot).  Speculation is out of scope by
design: transient execution depends on the predictor outcome and perturbs
the cache mid-stream, which breaks the phase split below -- callers that
need wrong-path effects use the scalar engine.

Execution model of :meth:`run_batch`
------------------------------------
Under ``speculate=False`` the architectural path of a program depends
only on its inputs, never on predictor state.  ``run_batch`` exploits
that with two phases: phase 1 runs each replica's program through the
plain interpreter, eagerly updating the replica's scalar shadow
components (cache, RAS, IBP, non-branch perf counters) and recording the
committed branch stream; phase 2 replays the recorded streams in
lockstep -- step t commits replica i's t-th branch -- through the
vectorized predictor.  Per-replica orderings are preserved exactly;
cross-replica alignment is irrelevant because replicas share no state.

Deferred structures
-------------------
Per-PC perf histograms and the (LRU, order-dependent) BTB resist
vectorization, so branch commits append to a pending event log that
:meth:`_sync` folds into the scalar shadows in order at the end of each
:meth:`run_batch` (and whenever the log passes
:data:`PENDING_FOLD_LIMIT`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.backends import batch_backend_for, batch_backend_ids
from repro.cpu.btb import BranchTargetBuffer
from repro.cpu.cache import DataCache
from repro.cpu.config import MachineConfig, RAPTOR_LAKE
from repro.cpu.ibp import IndirectBranchPredictor
from repro.cpu.machine import MachineSnapshot
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
from repro.isa.identity import (cache_digest, input_digest, program_digest,
                                trace_key)
from repro.isa.memory import Memory
from repro.isa.program import Program
from repro.isa.trace import (
    KIND_CALL,
    KIND_CODES,
    KIND_COND,
    KIND_INDIRECT,
    KIND_RET,
    ArchTrace,
    capture_trace,
)

#: Pending branch events folded into the shadows automatically once the
#: log grows past this many append blocks (bounds memory on long
#: programs).
PENDING_FOLD_LIMIT = 8192

#: Event-stream columns replayed per vectorization block in run_batch
#: (bounds the (N, T) working set for long programs).
REPLAY_COLUMNS = 2048


class BatchStateError(RuntimeError):
    """The batch was left mid-update by a failed :meth:`run_batch`.

    A replica that raises inside ``run_batch`` (an instruction-budget
    overrun under ``on_limit='raise'``, a decode fault) aborts the run
    with some replicas committed and others not; every later state-
    touching call raises this until :meth:`BatchMachine.load_snapshot`
    re-establishes a known state.
    """


def supports_config(config: MachineConfig) -> bool:
    """Whether the batch engine can represent ``config`` exactly.

    True when ``config.predictor_model`` has a registered vectorized
    backend (see :mod:`repro.batch.backends`) *and* that backend's
    capability check accepts the config's geometry -- e.g. the
    TAGE-shaped families require 512 sets (the scalar table's 9-bit
    index constant), tags that fit int16 arrays, and history windows
    inside the PHR.  Unknown families and exotic geometries fall back to
    the scalar engine.
    """
    backend = batch_backend_for(config.predictor_model)
    return backend is not None and backend.supports(config)


@dataclass
class BatchRunResult:
    """Per-replica outcome of :meth:`BatchMachine.run_batch`.

    Mirrors :class:`~repro.cpu.machine.MachineRunResult`: the
    architectural result, the perf-counter delta for the run, and the
    replica's final PHR value.
    """

    execution: ExecutionResult
    perf: PerfCounters
    phr_value: int

    @property
    def trace(self):
        return self.execution.trace

    @property
    def state(self) -> CpuState:
        return self.execution.state


class _ReplayHooks(CpuHooks):
    """Phase-1 hooks: eager shadow updates plus branch-event recording.

    Mirrors ``_MachineHooks`` minus everything the vectorized phase 2
    owns (CBP, vector history state, BTB, branch perf counters).  The
    scalar shadow history register (whatever family the backend builds)
    exists only so the IBP hashes indirect branches against the same
    history the scalar machine would; the vector history replays the
    identical update sequence in phase 2.
    """

    __slots__ = ("events", "phr", "cache", "perf", "ras", "ibp")

    def __init__(self, phr, cache: DataCache,
                 perf: PerfCounters, ras: ReturnAddressStack,
                 ibp: IndirectBranchPredictor):
        #: ``(kind, pc, target, taken, next_pc)`` per committed branch --
        #: the :mod:`repro.isa.trace` event shape.  Phase-2 replay only
        #: reads the first four columns; the kind codes and return
        #: address feed the trace walk of cached replays.
        self.events: List[Tuple[int, int, int, int, int]] = []
        self.phr = phr
        self.cache = cache
        self.perf = perf
        self.ras = ras
        self.ibp = ibp

    def conditional_branch(self, pc: int, target: int, fallthrough: int,
                           taken: bool, resolve_latency: int) -> None:
        self.events.append((KIND_COND, pc, target, 1 if taken else 0, 0))
        self.phr.on_conditional(pc, target, taken)

    def unconditional_branch(self, pc: int, target: int,
                             kind: BranchKind, next_pc: int) -> None:
        return_address = pc + 4 if next_pc is None else next_pc
        if kind is BranchKind.CALL:
            self.ras.push(return_address)
        elif kind is BranchKind.RET:
            predicted = self.ras.pop()
            self.perf.returns += 1
            if predicted is None:
                self.perf.ras_underflows += 1
                self.perf.indirect_mispredictions += 1
            elif predicted != target:
                self.perf.indirect_mispredictions += 1
        if kind is BranchKind.INDIRECT:
            predicted = self.ibp.predict(pc, self.phr)
            self.perf.indirect_branches += 1
            if predicted != target:
                self.perf.indirect_mispredictions += 1
            self.ibp.update(pc, self.phr, target)
        self.events.append((KIND_CODES[kind], pc, target, 1,
                            return_address))
        self.phr.on_taken(pc, target)

    def load(self, address: int, width: int) -> int:
        return self.cache.access(address)

    def transient_load(self, address: int, width: int) -> int:
        return self.cache.access(address)

    def store(self, address: int, width: int) -> None:
        self.cache.access(address)

    def instruction_retired(self, pc: int) -> None:
        self.perf.instructions += 1


class _CaptureHooks(_ReplayHooks):
    """Phase-1 hooks that additionally record the cache-access stream.

    The extra ``accesses`` list is what lets a captured run stand in for
    later runs of the same input: replaying it through a replica's own
    cache reproduces the fills, evictions, and hit/miss counters the
    replica's own phase 1 would have produced (the address stream is
    architectural and identical across runs under ``speculate=False``).
    """

    __slots__ = ("accesses",)

    def __init__(self, phr, cache: DataCache,
                 perf: PerfCounters, ras: ReturnAddressStack,
                 ibp: IndirectBranchPredictor):
        super().__init__(phr, cache, perf, ras, ibp)
        self.accesses: List[int] = []

    def load(self, address: int, width: int) -> int:
        self.accesses.append(address)
        return self.cache.access(address)

    def transient_load(self, address: int, width: int) -> int:
        self.accesses.append(address)
        return self.cache.access(address)

    def store(self, address: int, width: int) -> None:
        self.accesses.append(address)
        self.cache.access(address)


class BatchMachine:
    """N machine replicas stepping in lockstep over numpy array state.

    :meth:`run_batch` runs a program once per replica; :meth:`extract`
    reads one replica back as a scalar snapshot.  All operations address
    logical thread 0 of every replica.
    """

    def __init__(self, n: int, config: MachineConfig = RAPTOR_LAKE):
        if n < 1:
            raise ValueError(f"replica count must be >= 1, got {n}")
        backend_cls = batch_backend_for(config.predictor_model)
        if backend_cls is None:
            raise ValueError(
                f"no vectorized batch backend is registered for predictor "
                f"family {config.predictor_model!r}; registered batch "
                f"families: {', '.join(batch_backend_ids())}"
            )
        if not backend_cls.supports(config):
            raise ValueError(
                f"config {config.name!r} has unsupported geometry for the "
                f"{config.predictor_model!r} batch backend "
                f"({backend_cls.geometry(config)}); registered batch "
                f"families: {', '.join(batch_backend_ids())}"
            )
        self.n = n
        self.config = config
        #: Set when a run_batch aborts mid-update (see BatchStateError);
        #: cleared by load_snapshot().
        self._poisoned = False

        # ----- vector-owned predictor + history state ----------------
        self._backend = backend_cls(n, config)

        # ----- deferred deltas + pending event log -------------------
        self._cond_delta = np.zeros(n, dtype=np.int64)
        self._mispred_delta = np.zeros(n, dtype=np.int64)
        self._taken_delta = np.zeros(n, dtype=np.int64)
        self._pending: List[tuple] = []

        # ----- scalar shadow components (one per replica) -------------
        self._btb = [BranchTargetBuffer() for _ in range(n)]
        self._ibp = [IndirectBranchPredictor() for _ in range(n)]
        self._cache = [
            DataCache(
                sets=config.cache_sets,
                ways=config.cache_ways,
                line_size=config.cache_line_size,
                hit_latency=config.cache_hit_latency,
                miss_latency=config.cache_miss_latency,
            )
            for _ in range(n)
        ]
        self._ras = [ReturnAddressStack() for _ in range(n)]
        self._perf = [PerfCounters() for _ in range(n)]
        self._domain = ["user"] * n
        self._ibrs = False
        self._other_threads: Tuple[Tuple[int, tuple, str], ...] = tuple(
            (0, ReturnAddressStack().snapshot(), "user")
            for _ in range(config.smt_threads - 1)
        )

    # ------------------------------------------------------------------
    # construction from scalar state
    # ------------------------------------------------------------------

    @classmethod
    def from_snapshot(cls, config: MachineConfig, snap: MachineSnapshot,
                      n: int) -> "BatchMachine":
        """N replicas seeded from a scalar :class:`MachineSnapshot`."""
        batch = cls(n, config)
        batch.load_snapshot(snap)
        return batch

    def _check_poisoned(self) -> None:
        if self._poisoned:
            raise BatchStateError(
                "a previous run_batch aborted mid-update and left replica "
                "state inconsistent; load_snapshot() a scalar snapshot "
                "before reusing this batch")

    def load_snapshot(self, snap: MachineSnapshot) -> None:
        """Broadcast one scalar machine snapshot into every replica."""
        if (snap.predictor_model
                and snap.predictor_model != self.config.predictor_model):
            raise SnapshotFormatError(
                f"snapshot is for predictor model {snap.predictor_model!r}, "
                f"this batch runs {self.config.predictor_model!r}"
            )
        if snap.phr_capacity and snap.phr_capacity != self.config.phr_capacity:
            raise ValueError(
                f"snapshot is for a {snap.phr_capacity}-doublet PHR, "
                f"this batch has {self.config.phr_capacity}"
            )
        self._poisoned = False
        self._backend.load_cbp(snap.cbp)

        phr_value, ras_snap, domain = snap.threads[0]
        self._backend.load_history(phr_value)

        self._cond_delta[:] = 0
        self._mispred_delta[:] = 0
        self._taken_delta[:] = 0
        self._pending.clear()
        for i in range(self.n):
            self._btb[i].restore(snap.btb)
            self._ibp[i].restore(snap.ibp)
            self._cache[i].restore(snap.cache)
            self._ras[i].restore(ras_snap)
            self._perf[i].restore(snap.perf)
            self._domain[i] = domain
        self._ibrs = snap.ibrs_enabled
        self._other_threads = tuple(snap.threads[1:])

    # ------------------------------------------------------------------
    # per-replica reads
    # ------------------------------------------------------------------

    def phr_value(self, i: int) -> int:
        """Replica ``i``'s history contents as an integer.

        "PHR" for the path-history families, the GHR for
        ``gshare-tournament`` -- the same value the scalar machine's
        ``phr_value()`` reports for that family.
        """
        return self._backend.history_value(i)

    # ------------------------------------------------------------------
    # phase-2 commits and the deferred-state fold
    # ------------------------------------------------------------------

    def _observe_rows(self, rows: np.ndarray, pc: np.ndarray,
                      target: np.ndarray, taken: np.ndarray) -> None:
        mispredicted = self._backend.observe(rows, pc, taken)
        self._cond_delta[rows] += 1
        self._mispred_delta[rows[mispredicted]] += 1
        self._backend.commit_conditional(rows, pc, target, taken)
        self._taken_delta[rows[taken]] += 1
        self._pending.append((rows, pc, target, taken, mispredicted, True))
        if len(self._pending) >= PENDING_FOLD_LIMIT:
            self._sync()

    def _record_rows(self, rows: np.ndarray, pc: np.ndarray,
                     target: np.ndarray) -> None:
        self._backend.commit_taken(rows, pc, target)
        self._taken_delta[rows] += 1
        self._pending.append((rows, pc, target, None, None, False))
        if len(self._pending) >= PENDING_FOLD_LIMIT:
            self._sync()

    def _sync(self) -> None:
        """Fold pending branch events and counter deltas into the shadows.

        Per-PC histograms and BTB updates are replayed in commit order
        per replica, reproducing the scalar bookkeeping exactly.
        """
        touched = np.flatnonzero(
            (self._cond_delta != 0) | (self._taken_delta != 0))
        for i in touched.tolist():
            perf = self._perf[i]
            perf.conditional_branches += int(self._cond_delta[i])
            perf.conditional_mispredictions += int(self._mispred_delta[i])
            perf.taken_branches += int(self._taken_delta[i])
        self._cond_delta[:] = 0
        self._mispred_delta[:] = 0
        self._taken_delta[:] = 0
        perf_list = self._perf
        btb_list = self._btb
        for rows, pc, target, taken, mispredicted, conditional \
                in self._pending:
            rows_l = rows.tolist()
            pc_l = pc.tolist()
            target_l = target.tolist()
            if conditional:
                taken_l = taken.tolist()
                mis_l = mispredicted.tolist()
                for j, i in enumerate(rows_l):
                    perf = perf_list[i]
                    address = pc_l[j]
                    executions = perf.per_pc_executions
                    executions[address] = executions.get(address, 0) + 1
                    if mis_l[j]:
                        misses = perf.per_pc_mispredictions
                        misses[address] = misses.get(address, 0) + 1
                    if taken_l[j]:
                        btb_list[i].update(address, target_l[j])
            else:
                for j, i in enumerate(rows_l):
                    btb_list[i].update(pc_l[j], target_l[j])
        self._pending.clear()

    # ------------------------------------------------------------------
    # per-replica snapshots
    # ------------------------------------------------------------------

    def extract(self, i: int) -> MachineSnapshot:
        """Replica ``i``'s state as a scalar :class:`MachineSnapshot`.

        Bit-identical to what the equivalent scalar machine's
        ``snapshot()`` would return -- the contract the property suite
        pins; a scalar :class:`Machine` can ``restore()`` it directly.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"replica index out of range: {i}")
        self._check_poisoned()
        self._sync()
        threads = ((self.phr_value(i), self._ras[i].snapshot(),
                    self._domain[i]),) + self._other_threads
        return MachineSnapshot(
            cbp=self._backend.extract_cbp(i),
            btb=self._btb[i].snapshot(),
            ibp=self._ibp[i].snapshot(),
            cache=self._cache[i].snapshot(),
            perf=self._perf[i].snapshot(),
            threads=threads,
            ibrs_enabled=self._ibrs,
            phr_capacity=self.config.phr_capacity,
            predictor_model=self.config.predictor_model,
        )

    # ------------------------------------------------------------------
    # program execution
    # ------------------------------------------------------------------

    def run_batch(
        self,
        program: Program,
        inputs: Optional[Sequence] = None,
        *,
        entry: Optional[int] = None,
        max_instructions: int = 2_000_000,
        speculate: bool = False,
        trace: str = "branches",
        on_limit: str = "raise",
        trace_cache=None,
    ) -> List[BatchRunResult]:
        """Run ``program`` once per replica; return per-replica results.

        ``inputs`` supplies per-replica architectural context: ``None``
        (fresh state and memory everywhere) or a length-``n`` sequence
        whose items are ``None``, a :class:`Memory`, or a
        ``(CpuState | None, Memory | None)`` pair.  Only
        ``speculate=False`` is supported -- see the module docstring for
        why -- and results are pinned bit-identical to per-replica
        ``Machine.run(..., speculate=False)``.  If a replica raises
        (e.g. the instruction budget under ``on_limit='raise'``), the
        batch is left mid-update and poisoned: every later state-touching
        call raises :class:`BatchStateError` until a
        :meth:`load_snapshot`.

        **Cached-trace mode** (``trace_cache=...``, a
        :class:`repro.isa.trace.TraceCache` or any object with its
        ``get``/``put`` shape): for input-*dependent* sweeps that revisit
        the same inputs (the service's ``aes_victim_signatures`` job).
        Each replica's phase 1 is keyed by program + entry + trace mode +
        full architectural input + starting cache state; a hit replays
        the stored :class:`~repro.isa.trace.ArchTrace` instead of
        re-interpreting, a miss captures and stores (halted runs only).
        Divergence detection in the cache degrades any damaged entry to
        a miss.
        """
        if speculate:
            raise ValueError(
                "the batch engine cannot model speculation; run "
                "speculative workloads on the scalar Machine")
        self._check_poisoned()
        perf_before = [self._perf[i].snapshot() for i in range(self.n)]
        try:
            executions, events = self._phase1(
                program, inputs, entry, max_instructions, trace, on_limit,
                trace_cache)
            self._replay_events(events)
            self._sync()
        except BaseException:
            self._poisoned = True
            raise
        return [
            BatchRunResult(
                execution=executions[i],
                perf=self._perf[i].delta(perf_before[i]),
                phr_value=self.phr_value(i),
            )
            for i in range(self.n)
        ]

    def _phase1(
        self, program: Program, inputs, entry: Optional[int],
        max_instructions: int, trace: str, on_limit: str, trace_cache,
    ) -> Tuple[List[ExecutionResult], List[List[tuple]]]:
        """Phase 1, one interpretation (or trace replay) per replica."""
        pairs = self._normalize_inputs(inputs)
        caching = trace_cache is not None
        if caching:
            program_key = program_digest(program)
            entry_resolved = entry if entry is not None else program.entry
            # The cache geometry and latencies shape the captured run
            # (miss patterns, reg_latency), so they join the cache-state
            # digest in the key -- config changes must never share traces.
            config = self.config
            cache_profile = (
                f"{config.cache_sets}:{config.cache_ways}:"
                f"{config.cache_line_size}:{config.cache_hit_latency}:"
                f"{config.cache_miss_latency}:")
        executions: List[ExecutionResult] = []
        events: List[List[tuple]] = []
        for i, (state, memory) in enumerate(pairs):
            key = None
            if caching:
                key = trace_key(
                    program_key, entry_resolved, trace,
                    input_digest(state, memory),
                    cache_profile + cache_digest(self._cache[i]))
                cached = trace_cache.get(key)
                if (cached is not None and cached.halted
                        and cached.instructions <= max_instructions):
                    executions.append(
                        self._replay_trace(i, cached, state, memory))
                    events.append(cached.events)
                    continue
                initial_memory = dict(memory._bytes)
            shadow_phr = self._backend.make_history(self.phr_value(i))
            hook_type = _CaptureHooks if caching else _ReplayHooks
            hooks = hook_type(shadow_phr, self._cache[i], self._perf[i],
                              self._ras[i], self._ibp[i])
            interpreter = Interpreter(program, hooks)
            execution = interpreter.run(
                state=state, memory=memory, entry=entry,
                max_instructions=max_instructions, trace=trace,
                on_limit=on_limit)
            executions.append(execution)
            events.append(hooks.events)
            if caching and execution.halted:
                trace_cache.put(key, capture_trace(
                    key, hooks.events, hooks.accesses, execution,
                    initial_memory, memory, trace))
        return executions, events

    def _replay_trace(self, i: int, cached: ArchTrace, state: CpuState,
                      memory: Memory) -> ExecutionResult:
        """Serve replica ``i``'s phase 1 from a cached trace.

        Walks the shadows, applies the captured memory delta (the input
        digest pinned the starting memory equal to the capture's, so
        final memory is exactly ``initial + delta``), and rewrites the
        caller's state in place to the captured final state.
        """
        self._walk_trace(i, cached)
        memory._bytes.update(cached.memory_delta)
        final = cached.final_state
        state.regs = dict(final.regs)
        state.flags = final.flags
        state.call_stack = list(final.call_stack)
        state.reg_latency = dict(final.reg_latency)
        state.flags_latency = final.flags_latency
        return ExecutionResult(
            trace=cached.records,
            instructions=cached.instructions,
            state=state,
            halted=True,
            next_pc=None,
        )

    def _walk_trace(self, i: int, captured: ArchTrace) -> None:
        """Replay a captured run's shadow effects onto replica ``i``.

        Reproduces exactly what replica ``i``'s own phase 1 would have
        done: the cache-access stream (fills, LRU movement, hit/miss
        counters), retired-instruction count, RAS traffic and return
        accounting, and IBP traffic.  The scalar shadow PHR -- needed
        only to hash indirect branches -- is materialized (and the
        conditional bulk of the event stream walked) only when the trace
        actually contains an indirect branch.
        """
        cache = self._cache[i]
        if captured.accesses:
            resolved = getattr(captured, "_resolved", None)
            if resolved is None:
                # Same key => same cache geometry, so the (line, set)
                # resolution is shared across replicas and replays.
                resolved = cache.resolve_lines(captured.accesses)
                captured._resolved = resolved
            cache.access_resolved(resolved)
        perf = self._perf[i]
        perf.instructions += captured.instructions
        ras = self._ras[i]
        if captured.has_indirect:
            ibp = self._ibp[i]
            phr = self._backend.make_history(self.phr_value(i))
            for kind, pc, target, taken, next_pc in captured.events:
                if kind == KIND_COND:
                    phr.on_conditional(pc, target, bool(taken))
                    continue
                if kind == KIND_CALL:
                    ras.push(next_pc)
                elif kind == KIND_RET:
                    predicted = ras.pop()
                    perf.returns += 1
                    if predicted is None:
                        perf.ras_underflows += 1
                        perf.indirect_mispredictions += 1
                    elif predicted != target:
                        perf.indirect_mispredictions += 1
                elif kind == KIND_INDIRECT:
                    predicted = ibp.predict(pc, phr)
                    perf.indirect_branches += 1
                    if predicted != target:
                        perf.indirect_mispredictions += 1
                    ibp.update(pc, phr, target)
                phr.on_taken(pc, target)
        else:
            for kind, pc, target, taken, next_pc in captured.jump_events:
                if kind == KIND_CALL:
                    ras.push(next_pc)
                elif kind == KIND_RET:
                    predicted = ras.pop()
                    perf.returns += 1
                    if predicted is None:
                        perf.ras_underflows += 1
                        perf.indirect_mispredictions += 1
                    elif predicted != target:
                        perf.indirect_mispredictions += 1

    def _normalize_inputs(self, inputs) -> List[Tuple[CpuState, Memory]]:
        if inputs is None:
            inputs = [None] * self.n
        if len(inputs) != self.n:
            raise ValueError(
                f"expected {self.n} inputs, got {len(inputs)}")
        return [self._normalize_one(item) for item in inputs]

    @staticmethod
    def _normalize_one(item) -> Tuple[CpuState, Memory]:
        if item is None:
            state, memory = None, None
        elif isinstance(item, Memory):
            state, memory = None, item
        else:
            state, memory = item
        return (state if state is not None else CpuState(),
                memory if memory is not None else Memory())

    def _replay_events(self, events: List[List[tuple]]) -> None:
        """Phase 2: lockstep vectorized replay of recorded branch streams."""
        lengths = np.array([len(stream) for stream in events],
                           dtype=np.int64)
        total = int(lengths.max()) if lengths.size else 0
        if total == 0:
            return
        for start in range(0, total, REPLAY_COLUMNS):
            stop = min(start + REPLAY_COLUMNS, total)
            span = stop - start
            kind = np.zeros((self.n, span), dtype=np.int64)
            pc = np.zeros((self.n, span), dtype=np.int64)
            target = np.zeros((self.n, span), dtype=np.int64)
            taken = np.zeros((self.n, span), dtype=bool)
            for i, stream in enumerate(events):
                chunk = stream[start:stop]
                if not chunk:
                    continue
                block = np.array(chunk, dtype=np.int64)
                kind[i, : len(chunk)] = block[:, 0]
                pc[i, : len(chunk)] = block[:, 1]
                target[i, : len(chunk)] = block[:, 2]
                taken[i, : len(chunk)] = block[:, 3] != 0
            for t in range(span):
                active = lengths > (start + t)
                column = kind[:, t]
                # Any non-conditional kind (JUMP/CALL/RET/INDIRECT) is a
                # committed taken jump to the vectorized predictor.
                cond_rows = np.flatnonzero(active & (column == KIND_COND))
                jump_rows = np.flatnonzero(active & (column != KIND_COND))
                if cond_rows.size:
                    self._observe_rows(cond_rows, pc[cond_rows, t],
                                       target[cond_rows, t],
                                       taken[cond_rows, t])
                if jump_rows.size:
                    self._record_rows(jump_rows, pc[jump_rows, t],
                                      target[jump_rows, t])
