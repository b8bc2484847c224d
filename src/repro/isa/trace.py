"""Architectural trace capture and replay (ARCHITECTURE.md §12).

Under ``speculate=False`` a program's architectural path depends only on
its inputs -- the program text, the entry point, the starting register
state, and memory.  That means one interpretation of a given input can
stand in for *every* interpretation of that input: capture the committed
event stream once, then replay it into any number of machine replicas
without touching the interpreter again.  :class:`ArchTrace` is that
captured artifact, and the batch engine's cached-trace mode
(``BatchMachine.run_batch(inputs, trace_cache=...)``) is its consumer.

What a trace must carry to be a faithful stand-in:

* the committed branch events, in order, with enough kind information to
  replay CALL/RET through a replica's RAS and INDIRECT through its IBP;
* the committed cache-access address stream (loads and stores both fold
  into :meth:`DataCache.access`);
* the final architectural state -- register file and the *delta* of
  memory bytes the run wrote -- so a replaying replica lands on the same
  ``(CpuState, Memory)`` the interpreter would have produced;
* the retired-instruction count, for perf-counter parity.

Safety is content addressing plus divergence detection.  A trace's
:attr:`key` (:func:`repro.isa.identity.trace_key`) digests the program
text, entry, trace mode, the full input (registers, flags, call stack,
latencies, memory bytes) *and* the starting data-cache state -- load
latencies flow into ``CpuState.reg_latency``, so two runs from different
cache contents are different runs.  :attr:`branch_stream_hash`
fingerprints the recorded event stream; :meth:`ArchTrace.verify`
recomputes it, and :class:`TraceCache`, which finds a mismatch, treats
the entry as poisoned (:class:`TraceDivergenceError` names the failure)
rather than replay it.  A stale or corrupted trace therefore degrades to
a cache miss and a fresh capture, never to silently wrong results.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.isa.identity import check_key
from repro.isa.interpreter import BranchKind, CpuState
from repro.isa.memory import Memory
from repro.utils.lru import CacheStats, LruCache

__all__ = [
    "KIND_CODES",
    "ArchTrace",
    "TraceCache",
    "TraceDivergenceError",
    "capture_trace",
]

#: Event kind codes.  Phase-2 predictor replay only distinguishes
#: conditional (1) from taken-jump (everything else); the trace walk
#: additionally needs CALL/RET (RAS traffic) and INDIRECT (IBP traffic).
KIND_JUMP = 0
KIND_COND = 1
KIND_CALL = 2
KIND_RET = 3
KIND_INDIRECT = 4

KIND_CODES = {
    BranchKind.JUMP: KIND_JUMP,
    BranchKind.CALL: KIND_CALL,
    BranchKind.RET: KIND_RET,
    BranchKind.INDIRECT: KIND_INDIRECT,
}


class TraceDivergenceError(RuntimeError):
    """A cached trace no longer matches its recorded identity.

    Raised (or counted, by caches that degrade to a miss) when a trace's
    recomputed branch-stream hash or content key disagrees with what was
    stored -- the signal that replaying it would corrupt results.
    """


def _hash_events(events: List[Tuple[int, int, int, int, int]]) -> str:
    """SHA-256 fingerprint of a committed branch-event stream."""
    digest = hashlib.sha256()
    digest.update(len(events).to_bytes(8, "little"))
    if events:
        # Row-major native int64, as an (events, 5) int64 array would be.
        digest.update(array("q", chain.from_iterable(events)).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the trace artifact
# ----------------------------------------------------------------------

@dataclass
class ArchTrace:
    """One captured architectural execution, ready for replay.

    ``events`` are ``(kind, pc, target, taken, next_pc)`` committed
    branch events (kind codes above); ``accesses`` is the committed
    cache-access address stream; ``memory_delta`` holds exactly the
    bytes the run changed relative to its starting memory (applying it
    to an identical starting memory reproduces the final memory, which
    the content key guarantees).  ``records`` is the materialized
    :class:`BranchRecord` trace for the capture's ``trace_mode`` --
    replayed results share it, so callers must treat run traces as
    read-only (they already do; results are value objects).
    """

    key: str
    events: List[Tuple[int, int, int, int, int]]
    accesses: List[int]
    instructions: int
    records: list
    trace_mode: str
    final_state: CpuState
    memory_delta: Dict[int, int]
    halted: bool
    branch_stream_hash: str = ""
    #: Events that touch a replay shadow (everything non-conditional);
    #: precomputed so an indirect-free trace walk skips the conditional
    #: bulk entirely.
    jump_events: list = field(default_factory=list, repr=False)
    has_indirect: bool = False

    def __post_init__(self):
        if not self.branch_stream_hash:
            self.branch_stream_hash = _hash_events(self.events)
        if not self.jump_events:
            self.jump_events = [event for event in self.events
                                if event[0] != KIND_COND]
        self.has_indirect = any(event[0] == KIND_INDIRECT
                                for event in self.jump_events)

    def verify(self, key: Optional[str] = None) -> None:
        """Check this trace against its recorded identity.

        Raises :class:`TraceDivergenceError` when the recomputed branch
        stream hash no longer matches, or when ``key`` (the address a
        cache is serving it under) disagrees with the trace's own.
        """
        if key is not None and key != self.key:
            raise TraceDivergenceError(
                f"trace keyed {self.key[:12]}... served under "
                f"{key[:12]}...")
        recomputed = _hash_events(self.events)
        if recomputed != self.branch_stream_hash:
            raise TraceDivergenceError(
                "branch stream diverged from its recorded hash "
                f"({recomputed[:12]}... != "
                f"{self.branch_stream_hash[:12]}...)")


def capture_trace(key: str, events: list, accesses: list, execution,
                  initial_memory: Dict[int, int], memory: Memory,
                  trace_mode: str) -> ArchTrace:
    """Build an :class:`ArchTrace` from a completed interpretation.

    ``initial_memory`` is the memory snapshot taken *before* the run;
    only bytes that changed are stored (memory never deletes keys, so
    the final state is exactly ``initial + delta``).
    """
    final = memory._bytes
    get = initial_memory.get
    delta = {address: value for address, value in final.items()
             if get(address) != value}
    return ArchTrace(
        key=key,
        events=events,
        accesses=accesses,
        instructions=execution.instructions,
        records=execution.trace,
        trace_mode=trace_mode,
        final_state=execution.state.copy(),
        memory_delta=delta,
        halted=execution.halted,
    )


# ----------------------------------------------------------------------
# the trace cache
# ----------------------------------------------------------------------

class TraceCache:
    """Content-addressed LRU cache of :class:`ArchTrace`.

    The batch engine's cached-trace mode
    (``BatchMachine.run_batch(trace_cache=...)``) keys captured
    architectural traces by :func:`~repro.isa.identity.trace_key` --
    program + entry + input + starting cache state -- and replays a hit
    instead of re-interpreting: the trace-once/replay-many economy for
    input-dependent sweeps (the service's ``aes_victim_signatures`` job).

    Every :meth:`get` re-verifies the entry against its identity: the
    stored trace's own key must match the requested address, and its
    branch-event stream must still hash to the recorded
    ``branch_stream_hash``.  A mismatch -- a mutated event list, an
    entry stored under the wrong address -- evicts the entry, counts a
    divergence, and returns ``None``: the caller re-captures, so a
    poisoned cache self-heals into misses, never wrong replays.

    Memory-only by design (traces hold live interpreter record objects,
    not serialized artifacts) and thread-safe: service workers share one.
    """

    def __init__(self, memory_entries: int = 256):
        if memory_entries < 1:
            raise ValueError(
                f"memory_entries must be >= 1, got {memory_entries}")
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries = LruCache(memory_entries)

    def get(self, key: str) -> Optional[ArchTrace]:
        """The verified trace stored under ``key``, or ``None``."""
        check_key(key)
        with self._lock:
            trace = self._entries.get(key)
            if trace is None:
                self.stats.misses += 1
                return None
            try:
                trace.verify(key=key)
            except TraceDivergenceError:
                self._entries.pop(key)
                self.stats.divergences += 1
                self.stats.misses += 1
                return None
            self.stats.memory_hits += 1
            return trace

    def put(self, key: str, trace: ArchTrace) -> None:
        """Store ``trace`` under content address ``key``.

        The trace must already identify as ``key`` (and pass its own
        stream-hash check); storing a mismatched trace is a caller bug
        and raises immediately rather than planting a poisoned entry.
        """
        check_key(key)
        trace.verify(key=key)
        with self._lock:
            self.stats.memory_evictions += self._entries.put(key, trace)
            self.stats.puts += 1
