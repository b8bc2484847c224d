"""Property suite pinning the batch engine bit-identical to the scalar one.

Style follows ``tests/test_interpreter_equivalence.py``: drive the
vectorized :class:`BatchMachine` and N scalar :class:`Machine` twins
through identical randomized workloads and require *exact* state
equality -- ``extract(i)`` must equal the scalar ``snapshot()`` down to
every counter, tag, useful bit, history bit, BTB ordering and perf
histogram.  Parametrized over every registered predictor family: two
Intel geometries plus the M1-style PHR and gshare/tournament presets,
each served by its own :class:`repro.batch.backends` backend.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.batch import BatchMachine, supports_config
from repro.cpu.config import (
    FIRESTORM_M1,
    RAPTOR_LAKE,
    SKYLAKE,
    TOURNAMENT_BASELINE,
)
from repro.cpu.machine import Machine
from repro.isa.memory import Memory
from repro.isa.builder import ProgramBuilder
from repro.utils.rng import DeterministicRng

CONFIGS = [RAPTOR_LAKE, SKYLAKE, FIRESTORM_M1, TOURNAMENT_BASELINE]


def _assert_snapshots_equal(batch_snap, scalar_snap, context: str) -> None:
    # The cbp payload shape is per-family (Intel: (base, tables);
    # tournament: (local, gshare, chooser)); compare part by part so a
    # mismatch names the offending component.
    assert len(batch_snap.cbp) == len(scalar_snap.cbp), f"{context}: cbp arity"
    for part, (got, want) in enumerate(zip(batch_snap.cbp,
                                           scalar_snap.cbp)):
        assert got == want, f"{context}: cbp part {part}"
    assert batch_snap.btb == scalar_snap.btb, f"{context}: btb"
    assert batch_snap.ibp == scalar_snap.ibp, f"{context}: ibp"
    assert batch_snap.cache == scalar_snap.cache, f"{context}: cache"
    assert batch_snap.perf == scalar_snap.perf, f"{context}: perf"
    assert batch_snap.threads == scalar_snap.threads, f"{context}: threads"
    assert batch_snap.ibrs_enabled == scalar_snap.ibrs_enabled, context
    assert batch_snap.phr_capacity == scalar_snap.phr_capacity, context


def _direction_program(branches: int):
    """``branches`` conditionals whose directions are read from memory.

    Byte ``k`` of the input block decides branch ``k``: a random input
    block gives every replica its own random direction stream.  Each
    step also takes a jump, and a call/return pair every eighth step,
    so the stream mixes conditional commits with taken
    non-conditional ones.
    """
    b = ProgramBuilder()
    b.mov_imm("rax", 0x40_0000)
    b.mov_imm("rcx", 0)
    b.label("loop")
    b.load("rdx", "rax", 0, width=1)
    b.cmp("rdx", imm=128)
    b.jlt("low")
    b.add("rbx", imm=1)
    b.label("low")
    b.cmp("rdx", imm=32)
    b.jge("next")
    b.call("leaf")
    b.label("next")
    b.add("rax", imm=1)
    b.add("rcx", imm=1)
    b.cmp("rcx", imm=branches)
    b.jlt("loop")
    b.halt()
    b.label("leaf")
    b.ret()
    return b.build()


def _random_block(rng: DeterministicRng, size: int) -> Memory:
    memory = Memory()
    for offset in range(size):
        memory.write(0x40_0000 + offset, 1, rng.value_bits(8))
    return memory


def _scalar_run(config, program, memory: Memory):
    scalar = Machine(config)
    result = scalar.run(program, memory=memory, speculate=False,
                        trace="full")
    return scalar, result


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_observe_stream_matches_scalar(config, seed):
    """Per-replica random branch directions: every observe is exact.

    Each replica reads its own random input block, so at every lockstep
    column the replicas commit different directions (and different
    branches) through the backend's ``observe``/commit path.
    """
    assert supports_config(config)
    n = 3
    steps = 160
    program = _direction_program(steps)
    rng = DeterministicRng(0xBA7C4 + seed)
    blocks = [_random_block(rng, steps) for _ in range(n)]
    batch = BatchMachine(n, config)
    results = batch.run_batch(program, [block.clone() for block in blocks],
                              trace="full")
    for i in range(n):
        scalar, want = _scalar_run(config, program, blocks[i].clone())
        assert tuple(results[i].trace) == tuple(want.trace), f"replica {i}"
        assert results[i].perf == want.perf, f"replica {i} perf"
        assert results[i].phr_value == want.phr_value, f"replica {i} phr"
        _assert_snapshots_equal(batch.extract(i), scalar.snapshot(),
                                f"replica {i}")


def _counted_loop(trips_address: int = 0x40_0100):
    """A loop whose trip count is read from memory.

    Every trip takes the backward conditional and one jump, so a
    replica with more trips commits more taken branches.
    """
    b = ProgramBuilder()
    b.mov_imm("rax", trips_address)
    b.load("rdx", "rax", 0, width=4)
    b.mov_imm("rcx", 0)
    b.label("loop")
    b.add("rcx", imm=1)
    b.jmp("tail")
    b.label("tail")
    b.cmp("rcx", "rdx")
    b.jlt("loop")
    b.halt()
    return b.build()


def _trips(count: int) -> Memory:
    memory = Memory()
    memory.write(0x40_0100, 4, count)
    return memory


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_masked_observe_matches_scalar(config):
    """Replicas that finish early drop out of the lockstep columns.

    Differing trip counts leave only some rows active in the later
    columns, so the backend commits on a strict subset of replicas.
    """
    trips = [5, 40, 17, 1]
    program = _counted_loop()
    batch = BatchMachine(len(trips), config)
    results = batch.run_batch(program, [_trips(t) for t in trips])
    for i, count in enumerate(trips):
        scalar, want = _scalar_run(config, program, _trips(count))
        assert results[i].perf == want.perf, f"replica {i}"
        assert results[i].phr_value == want.phr_value, f"replica {i}"
        _assert_snapshots_equal(batch.extract(i), scalar.snapshot(),
                                f"replica {i}")


def _branchy_program():
    """A program whose control flow depends on per-replica memory."""
    b = ProgramBuilder()
    b.mov_imm("rax", 0x40_0000)   # input block
    b.mov_imm("rbx", 0)           # accumulator
    b.mov_imm("rcx", 0)           # loop counter
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
    b.cmp("rcx", imm=40)
    b.jlt("loop")
    b.call("leaf")
    b.halt()
    b.label("leaf")
    b.ret()
    return b.build()


def _provision(seed: int) -> Memory:
    memory = Memory()
    rng = DeterministicRng(seed)
    for offset in range(64):
        memory.write(0x40_0000 + offset, 1, rng.value_bits(8))
    return memory


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_run_batch_matches_scalar_runs(config):
    """run_batch == per-replica Machine.run(speculate=False), bit for bit."""
    n = 4
    program = _branchy_program()
    batch = BatchMachine(n, config)
    results = batch.run_batch(
        program, [_provision(7 + i) for i in range(n)], trace="full")
    for i in range(n):
        scalar = Machine(config)
        result = scalar.run(program, memory=_provision(7 + i),
                            speculate=False, trace="full")
        got = results[i]
        assert tuple(got.trace) == tuple(result.trace), f"replica {i} trace"
        assert got.perf == result.perf, f"replica {i} perf delta"
        assert got.phr_value == result.phr_value, f"replica {i} phr"
        assert got.execution.instructions == result.execution.instructions
        assert got.state.regs == result.state.regs
        _assert_snapshots_equal(batch.extract(i), scalar.snapshot(),
                                f"replica {i}")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_run_batch_from_trained_snapshot(config):
    """Importing a trained scalar snapshot preserves bit-identity."""
    program = _branchy_program()
    trainer = Machine(config)
    trainer.run(program, memory=_provision(99), speculate=False,
                trace="none")
    snap = trainer.snapshot()

    n = 3
    batch = BatchMachine.from_snapshot(config, snap, n)
    for i in range(n):
        _assert_snapshots_equal(batch.extract(i), snap, f"import {i}")
    results = batch.run_batch(program,
                              [_provision(200 + i) for i in range(n)])
    for i in range(n):
        scalar = Machine(config)
        scalar.restore(snap)
        result = scalar.run(program, memory=_provision(200 + i),
                            speculate=False, trace="branches")
        assert results[i].perf == result.perf
        assert results[i].phr_value == result.phr_value
        _assert_snapshots_equal(batch.extract(i), scalar.snapshot(),
                                f"trained replica {i}")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_long_taken_stream_wraps_buffer(config):
    """Streams long enough to wrap the circular PHR buffer stay exact.

    The batch engine keeps PHR bits behind a moving origin that recopies
    every ``slack/2`` taken branches.  A first run with different trip
    counts leaves each replica's origin at a different offset; the
    second run's loops are long enough to wrap several times, so the
    recopy runs while the other rows sit at mixed offsets.
    """
    program = _counted_loop()
    desync = [1, 9, 4]
    longest = 3 * 2 * config.phr_capacity + 64
    trips = [longest, longest - 7, longest // 2 + 3]
    batch = BatchMachine(len(trips), config)
    batch.run_batch(program, [_trips(t) for t in desync])
    results = batch.run_batch(program, [_trips(t) for t in trips])
    for i, count in enumerate(trips):
        scalar, _ = _scalar_run(config, program, _trips(desync[i]))
        want = scalar.run(program, memory=_trips(count), speculate=False,
                          trace="full")
        assert results[i].perf == want.perf, f"replica {i}"
        assert results[i].phr_value == want.phr_value, f"replica {i}"
        _assert_snapshots_equal(batch.extract(i), scalar.snapshot(),
                                f"replica {i}")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_snapshot_restore_replays_identically(config):
    """load_snapshot rewinds a used batch: same run, same end state."""
    program = _branchy_program()
    trainer = Machine(config)
    trainer.run(program, memory=_provision(3), speculate=False,
                trace="none")
    snap = trainer.snapshot()
    n = 3
    batch = BatchMachine.from_snapshot(config, snap, n)

    def drive():
        results = batch.run_batch(program,
                                  [_provision(50 + i) for i in range(n)])
        return ([(r.perf, r.phr_value) for r in results],
                [batch.extract(i) for i in range(n)])

    first = drive()
    batch.load_snapshot(snap)
    for i in range(n):
        _assert_snapshots_equal(batch.extract(i), snap, f"rewound {i}")
    second = drive()
    assert first[0] == second[0]
    for i in range(n):
        _assert_snapshots_equal(first[1][i], second[1][i],
                                f"replay replica {i}")
