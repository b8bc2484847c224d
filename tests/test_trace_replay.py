"""Architectural trace capture/replay and the batch engine's trace modes.

Pins the trace-once/replay-many contract of ARCHITECTURE.md §12:

* ``run_batch(trace_cache=...)`` warm hits replay to the identical
  results (signatures, final state, memory bytes) the cold capture
  produced;
* a mutated cached trace is detected, evicted, counted as a divergence,
  and degrades to a re-capture -- never a wrong replay;
* a replica raising mid-batch poisons the engine until
  ``load_snapshot`` (the ``BatchStateError`` regression).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.batch import BatchMachine
from repro.batch.engine import BatchStateError
from repro.cpu.config import RAPTOR_LAKE, SKYLAKE
from repro.cpu.machine import Machine
from repro.isa.builder import ProgramBuilder
from repro.isa.identity import (cache_digest, input_digest, program_digest,
                                trace_key)
from repro.isa.memory import Memory
from repro.isa.trace import ArchTrace, TraceCache, TraceDivergenceError
from repro.utils.rng import DeterministicRng

CONFIGS = [RAPTOR_LAKE, SKYLAKE]


def _branchy_program():
    """Control flow and stores depend on the provisioned input block."""
    b = ProgramBuilder()
    b.mov_imm("rax", 0x40_0000)
    b.mov_imm("rbx", 0)
    b.mov_imm("rcx", 0)
    b.label("loop")
    b.load("rdx", "rax", 0)
    b.cmp("rdx", imm=100)
    b.jlt("small")
    b.add("rbx", imm=3)
    b.store("rbx", "rax", 64)
    b.jmp("next")
    b.label("small")
    b.add("rbx", imm=1)
    b.label("next")
    b.add("rax", imm=1)
    b.add("rcx", imm=1)
    b.cmp("rcx", imm=24)
    b.jlt("loop")
    b.call("leaf")
    b.halt()
    b.label("leaf")
    b.ret()
    return b.build()


def _provision(seed: int) -> Memory:
    memory = Memory()
    rng = DeterministicRng(seed)
    for offset in range(40):
        memory.write(0x40_0000 + offset, 1, rng.value_bits(8))
    return memory


def _assert_results_equal(got, want, context: str) -> None:
    assert tuple(got.trace) == tuple(want.trace), f"{context}: trace"
    assert got.perf == want.perf, f"{context}: perf"
    assert got.phr_value == want.phr_value, f"{context}: phr"
    assert got.execution.instructions == want.execution.instructions, context
    assert got.state.regs == want.state.regs, f"{context}: registers"


# ----------------------------------------------------------------------
# cached-trace mode
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_trace_cache_warm_hits_are_bit_identical(config):
    """Cold capture then warm replay: identical results and final memory."""
    n = 3
    program = _branchy_program()
    cache = TraceCache()
    inputs_a = [_provision(30 + i) for i in range(n)]
    inputs_b = [_provision(30 + i) for i in range(n)]

    pristine = Machine(config).snapshot()
    batch = BatchMachine.from_snapshot(config, pristine, n)
    cold = batch.run_batch(program, inputs_a, trace="full",
                           trace_cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.puts == n

    batch.load_snapshot(pristine)
    warm = batch.run_batch(program, inputs_b, trace="full",
                           trace_cache=cache)
    assert cache.stats.hits == n
    assert cache.stats.divergences == 0
    for i in range(n):
        _assert_results_equal(warm[i], cold[i], f"replica {i}")
        # The warm replay rebuilt the exact final memory bytes.
        assert inputs_b[i]._bytes == inputs_a[i]._bytes, f"replica {i}"
        assert batch.extract(i).cache == batch.extract(i).cache


def test_trace_cache_distinguishes_inputs():
    """Different plaintext, different content key: no false hits."""
    program = _branchy_program()
    cache = TraceCache()
    pristine = Machine(RAPTOR_LAKE).snapshot()
    batch = BatchMachine.from_snapshot(RAPTOR_LAKE, pristine, 1)
    batch.run_batch(program, [_provision(1)], trace_cache=cache)
    batch.load_snapshot(pristine)
    batch.run_batch(program, [_provision(2)], trace_cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.puts == 2


def test_mutated_trace_is_evicted_not_replayed():
    """A corrupted entry fails verify, counts a divergence, re-captures."""
    program = _branchy_program()
    cache = TraceCache()
    pristine = Machine(RAPTOR_LAKE).snapshot()
    batch = BatchMachine.from_snapshot(RAPTOR_LAKE, pristine, 1)
    cold = batch.run_batch(program, [_provision(5)], trace_cache=cache)

    # Corrupt the stored event stream behind the cache's back.
    (key,) = list(cache._entries)
    trace = cache._entries.peek(key)
    kind, pc, target, taken, next_pc = trace.events[0]
    trace.events[0] = (kind, pc, target, 1 - taken, next_pc)
    with pytest.raises(TraceDivergenceError):
        trace.verify(key=key)

    batch.load_snapshot(pristine)
    again = batch.run_batch(program, [_provision(5)], trace_cache=cache)
    assert cache.stats.divergences == 1
    _assert_results_equal(again[0], cold[0], "recaptured")
    # The re-capture repopulated the cache with a *valid* entry under
    # the same content address.
    cache._entries.peek(key).verify(key=key)
    batch.load_snapshot(pristine)
    warm = batch.run_batch(program, [_provision(5)], trace_cache=cache)
    assert cache.stats.hits == 1
    _assert_results_equal(warm[0], cold[0], "warm after heal")


def test_trace_cache_rejects_mismatched_put():
    """Storing a trace under a foreign key is a caller bug, not a plant."""
    program = _branchy_program()
    cache = TraceCache()
    batch = BatchMachine(1)
    batch.run_batch(program, [_provision(9)], trace_cache=cache)
    (key,) = list(cache._entries)
    trace = cache._entries.peek(key)
    with pytest.raises(TraceDivergenceError):
        cache.put("f" * 64, trace)


# ----------------------------------------------------------------------
# content identity
# ----------------------------------------------------------------------

def test_trace_key_components_separate_runs():
    program = _branchy_program()
    fp = program_digest(program)
    assert fp == program_digest(_branchy_program())

    digest_a = input_digest(None, _provision(1))
    assert digest_a == input_digest(None, _provision(1))
    assert digest_a != input_digest(None, _provision(2))

    machine = Machine(RAPTOR_LAKE)
    empty = cache_digest(machine.cache)
    machine.cache.access(0x40_0000)
    assert cache_digest(machine.cache) != empty

    base = trace_key(fp, None, "branches", digest_a, empty)
    assert trace_key(fp, None, "full", digest_a, empty) != base
    assert trace_key(fp, 4, "branches", digest_a, empty) != base


def test_cache_digest_memo_tracks_mutations_and_restores():
    """The digest memo never serves stale values across mutations."""
    machine = Machine(RAPTOR_LAKE)
    cache = machine.cache
    snap = cache.snapshot()
    pristine = cache_digest(cache)
    assert cache_digest(cache) == pristine  # memoized path

    cache.access(0x1234)
    touched = cache_digest(cache)
    assert touched != pristine

    # Restore-per-trial loop: every restore lands back on the pristine
    # digest without rehashing (the _restore_source identity memo).
    for _ in range(3):
        cache.restore(snap)
        assert cache_digest(cache) == pristine
        cache.access(0x1234)
        assert cache_digest(cache) == touched


# ----------------------------------------------------------------------
# poisoning
# ----------------------------------------------------------------------

def test_failed_replica_poisons_batch_until_restore():
    """A mid-batch interpreter error leaves no half-updated state usable."""
    n = 3
    program = _branchy_program()
    pristine = Machine(RAPTOR_LAKE).snapshot()
    batch = BatchMachine.from_snapshot(RAPTOR_LAKE, pristine, n)

    # Replica 1's input block is absent entirely: its run dies inside
    # phase 1 after earlier replicas already interpreted.
    bad = Memory()
    with pytest.raises(Exception) as excinfo:
        batch.run_batch(program, [_provision(1), bad, _provision(3)],
                        max_instructions=50, on_limit="raise")
    assert not isinstance(excinfo.value, BatchStateError)

    # Every state-observing or state-mutating entry point now refuses.
    for attempt in (
        lambda: batch.run_batch(program, [_provision(1), _provision(2),
                                          _provision(3)]),
        lambda: batch.extract(0),
    ):
        with pytest.raises(BatchStateError):
            attempt()

    # Reloading a snapshot clears the poison and the engine is bit-exact
    # again.
    batch.load_snapshot(pristine)
    results = batch.run_batch(program, [_provision(7 + i) for i in range(n)])
    for i in range(n):
        scalar = Machine(RAPTOR_LAKE)
        want = scalar.run(program, memory=_provision(7 + i),
                          speculate=False, trace="branches")
        assert results[i].perf == want.perf, f"replica {i}"


def test_arch_trace_verify_roundtrip():
    """A hand-built trace verifies; tampering with events breaks it."""
    trace = ArchTrace(
        key="a" * 64,
        events=[(1, 0x10, 0x20, 1, 0x20), (0, 0x24, 0x30, 1, 0x30)],
        accesses=[0x40_0000],
        instructions=5,
        records=[],
        trace_mode="branches",
        final_state=None,
        memory_delta={},
        halted=True,
    )
    trace.verify(key="a" * 64)
    with pytest.raises(TraceDivergenceError):
        trace.verify(key="b" * 64)
    trace.events.append((1, 0x40, 0x50, 0, 0x44))
    with pytest.raises(TraceDivergenceError):
        trace.verify()
