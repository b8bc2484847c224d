"""API contract tests for :class:`repro.batch.BatchMachine`.

The bit-identity pinning lives in ``tests/test_batch_equivalence.py``;
this module covers the rest of the surface: argument validation, the
per-replica input forms, snapshot import and extraction, and the error
paths the batch contract promises (no speculation, supported configs
only).  The per-family sections parametrize the capability gates,
poisoning-on-failure, chunked replay, and the cross-family snapshot
guard over every registered batch backend.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.batch import (
    BatchMachine,
    BatchStateError,
    batch_backend_ids,
    supports_config,
)
from repro.cpu.config import (
    FIRESTORM_M1,
    PREDICTOR_LAB_MACHINES,
    RAPTOR_LAKE,
    SKYLAKE,
    TOURNAMENT_BASELINE,
)
from repro.cpu.machine import Machine
from repro.cpu.serialize import SnapshotFormatError
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import CpuState
from repro.isa.memory import Memory
from repro.utils.rng import DeterministicRng


def _tiny_program():
    b = ProgramBuilder()
    b.mov_imm("rax", 1)
    b.cmp("rax", imm=0)
    b.jgt("end")
    b.mov_imm("rbx", 2)
    b.label("end")
    b.halt()
    return b.build()


def test_rejects_bad_replica_count():
    with pytest.raises(ValueError):
        BatchMachine(0)
    with pytest.raises(ValueError):
        BatchMachine(-3)


def test_supports_config_gates_unsupported_shapes():
    assert supports_config(RAPTOR_LAKE)
    assert supports_config(SKYLAKE)
    odd = dataclasses.replace(RAPTOR_LAKE, pht_sets=600)
    assert not supports_config(odd)
    with pytest.raises(ValueError):
        BatchMachine(2, odd)


def test_run_batch_rejects_speculation():
    batch = BatchMachine(1)
    with pytest.raises(ValueError, match="speculat"):
        batch.run_batch(_tiny_program(), speculate=True)


def test_run_batch_rejects_wrong_input_count():
    batch = BatchMachine(3)
    with pytest.raises(ValueError):
        batch.run_batch(_tiny_program(), inputs=[None, None])


def test_restore_rejects_foreign_width():
    """A snapshot of another PHR width is refused, not truncated."""
    wide = dataclasses.replace(RAPTOR_LAKE,
                               phr_capacity=RAPTOR_LAKE.phr_capacity + 8)
    snap = Machine(wide).snapshot()
    batch = BatchMachine(2)
    with pytest.raises(ValueError, match="doublet PHR"):
        batch.load_snapshot(snap)


def _jump_program(conditional: bool = True):
    """One taken jump, then (optionally) one not-taken conditional."""
    b = ProgramBuilder()
    b.mov_imm("rax", 0)
    b.jmp("over")
    b.label("over")
    if conditional:
        b.cmp("rax", imm=1)
        b.jeq("end")
        b.label("end")
    b.halt()
    return b.build()


def test_phr_value_tracks_taken_branches():
    program = _jump_program()
    batch = BatchMachine(2)
    results = batch.run_batch(program)
    want = Machine().run(program, speculate=False)
    assert want.phr_value != 0
    for i in range(2):
        assert batch.phr_value(i) == want.phr_value
        assert results[i].phr_value == want.phr_value
    # Not-taken conditionals leave the PHR untouched: the jump alone
    # leaves the same value.
    jump_only = BatchMachine(1)
    jump_only.run_batch(_jump_program(conditional=False))
    assert jump_only.phr_value(0) == batch.phr_value(0)


def test_extract_is_idempotent_mid_stream():
    batch = BatchMachine(2)
    batch.run_batch(_loop_program(12), [_provision(1), _provision(2)])
    first = batch.extract(1)
    second = batch.extract(1)
    assert first == second
    # extract() must not disturb the other replica either.
    assert batch.extract(0) == batch.extract(0)


def test_per_replica_vector_arguments():
    """Each item of ``inputs`` applies to its own replica, in any form."""
    program = _loop_program(16)
    state = CpuState()
    inputs = [None, _provision(3), (state, _provision(4)),
              (None, _provision(5))]
    batch = BatchMachine(len(inputs))
    results = batch.run_batch(program, inputs)
    memories = [Memory(), _provision(3), _provision(4), _provision(5)]
    for i, memory in enumerate(memories):
        want = Machine().run(program, memory=memory, speculate=False)
        assert results[i].perf == want.perf, f"replica {i}"
        assert results[i].phr_value == want.phr_value, f"replica {i}"
        assert results[i].state.regs == want.state.regs, f"replica {i}"
    # A caller's CpuState is the state the run mutates.
    assert results[2].state is state


def test_snapshot_is_isolated_from_later_mutation():
    batch = BatchMachine(2)
    program = _loop_program(12)
    batch.run_batch(program, [_provision(7), _provision(8)])
    snap = batch.extract(0)
    expected = copy.deepcopy(snap)
    batch.run_batch(program, [_provision(9), _provision(10)])
    assert snap == expected
    assert batch.extract(0) != snap


# ----------------------------------------------------------------------
# per-family backend registry and capability gates
# ----------------------------------------------------------------------

def _family_param(configs):
    return pytest.mark.parametrize("config", configs, ids=lambda c: c.name)


def _loop_program(iterations: int):
    """A branchy loop whose input block steers per-iteration branches."""
    b = ProgramBuilder()
    b.mov_imm("rax", 0x40_0000)
    b.mov_imm("rbx", 0)
    b.mov_imm("rcx", 0)
    b.label("loop")
    b.load("rdx", "rax", 0)
    b.cmp("rdx", imm=100)
    b.jlt("small")
    b.add("rbx", imm=3)
    b.jmp("next")
    b.label("small")
    b.add("rbx", imm=1)
    b.label("next")
    b.add("rax", imm=1)
    b.add("rcx", imm=1)
    b.cmp("rcx", imm=iterations)
    b.jlt("loop")
    b.halt()
    return b.build()


def _provision(seed: int) -> Memory:
    memory = Memory()
    rng = DeterministicRng(seed)
    for offset in range(64):
        memory.write(0x40_0000 + offset, 1, rng.value_bits(8))
    return memory


def test_every_registered_family_has_a_batch_backend():
    families = {config.predictor_model for config in PREDICTOR_LAB_MACHINES}
    assert families <= set(batch_backend_ids())


@_family_param(PREDICTOR_LAB_MACHINES)
def test_supports_config_per_family(config):
    assert supports_config(config)


def test_supports_config_rejects_bad_geometry_per_family():
    # The TAGE-shaped families gate on the stacked-table geometry...
    for base in (RAPTOR_LAKE, FIRESTORM_M1):
        odd = dataclasses.replace(base, pht_sets=600)
        assert not supports_config(odd)
    # ...the tournament gates on its local/chooser index width.
    for bits in (0, 25):
        odd = dataclasses.replace(TOURNAMENT_BASELINE, base_index_bits=bits)
        assert not supports_config(odd)


def test_unknown_family_is_unsupported():
    odd = dataclasses.replace(RAPTOR_LAKE, predictor_model="no-such-model")
    assert not supports_config(odd)
    with pytest.raises(ValueError) as excinfo:
        BatchMachine(2, odd)
    message = str(excinfo.value)
    assert "no-such-model" in message
    for model_id in batch_backend_ids():
        assert model_id in message


def test_geometry_error_names_field_and_registry():
    odd = dataclasses.replace(TOURNAMENT_BASELINE, base_index_bits=25)
    with pytest.raises(ValueError) as excinfo:
        BatchMachine(2, odd)
    message = str(excinfo.value)
    assert "base_index_bits=25" in message
    assert "gshare-tournament" in message
    assert "intel-cbp" in message


@_family_param(PREDICTOR_LAB_MACHINES)
def test_from_snapshot_rejects_cross_family_snapshot(config):
    """A foreign-family scalar snapshot fails fast, not deep in numpy."""
    donor_config = next(c for c in PREDICTOR_LAB_MACHINES
                        if c.predictor_model != config.predictor_model)
    donor = Machine(donor_config)
    donor.observe_conditional(0x4000, 0x4100, True)
    snap = donor.snapshot()
    with pytest.raises(SnapshotFormatError) as excinfo:
        BatchMachine.from_snapshot(config, snap, 2)
    assert donor_config.predictor_model in str(excinfo.value)
    assert config.predictor_model in str(excinfo.value)


@_family_param(PREDICTOR_LAB_MACHINES)
def test_failed_replica_poisons_batch_until_restore(config):
    """A mid-batch interpreter error refuses all state access per family."""
    program = _loop_program(40)
    pristine = Machine(config).snapshot()
    batch = BatchMachine.from_snapshot(config, pristine, 2)
    with pytest.raises(Exception) as excinfo:
        batch.run_batch(program, [_provision(1), Memory()],
                        max_instructions=50, on_limit="raise")
    assert not isinstance(excinfo.value, BatchStateError)
    for attempt in (lambda: batch.run_batch(program),
                    lambda: batch.extract(0)):
        with pytest.raises(BatchStateError):
            attempt()
    batch.load_snapshot(pristine)
    results = batch.run_batch(program, [_provision(5), _provision(6)])
    for i in range(2):
        scalar = Machine(config)
        want = scalar.run(program, memory=_provision(5 + i),
                          speculate=False, trace="branches")
        assert results[i].perf == want.perf, f"replica {i}"


@_family_param(PREDICTOR_LAB_MACHINES)
def test_replay_chunk_boundary_per_family(config, monkeypatch):
    """Traces longer than REPLAY_COLUMNS replay across chunk seams."""
    from repro.batch import engine

    monkeypatch.setattr(engine, "REPLAY_COLUMNS", 16)
    program = _loop_program(40)  # ~120 branch events >> 16 columns
    batch = BatchMachine(2, config)
    results = batch.run_batch(program, [_provision(11), _provision(12)],
                              trace="full")
    for i in range(2):
        scalar = Machine(config)
        want = scalar.run(program, memory=_provision(11 + i),
                          speculate=False, trace="full")
        assert tuple(results[i].trace) == tuple(want.trace), f"replica {i}"
        assert results[i].perf == want.perf, f"replica {i}"
        assert results[i].phr_value == want.phr_value, f"replica {i}"
