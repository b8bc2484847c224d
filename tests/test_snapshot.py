"""Machine.snapshot()/restore() round-trips across every stateful piece.

The trial harness's whole determinism story rests on restore() bringing
the machine back bit-for-bit: PHR, base + tagged PHTs, BTB, RAS, IBP,
data cache, perf counters, and per-thread domains.  Each test trains
some state, snapshots, perturbs (including *further training*, the
harness's actual usage pattern), restores, and compares both the
internal state and the forward behavior.
"""

from __future__ import annotations

import pytest

from repro.cpu import Machine, SKYLAKE
from repro.isa.interpreter import CpuState
from repro.isa.memory import Memory
from repro.utils.rng import DeterministicRng

from conftest import build_branchy_victim, build_counted_loop


def _train(machine: Machine, seed: int, branches: int = 120) -> None:
    """Drive a pseudo-random branch workload through the whole machine."""
    rng = DeterministicRng(seed)
    for index in range(branches):
        pc = 0x400000 + 0x40 * rng.integer(0, 31)
        target = pc + 0x100 + 0x40 * rng.integer(0, 3)
        machine.observe_conditional(pc, target, rng.coin())
        if index % 7 == 0:
            machine.cache.access(0x2000_0000 + 0x1000 * rng.integer(0, 63))
        if index % 11 == 0:
            machine.btb.update(pc, target)
        if index % 13 == 0:
            machine.ibp.update(pc, machine.phr(), target)


def _perf_digest(machine: Machine) -> tuple:
    return tuple(
        sorted((name, tuple(sorted(value.items()))
                if isinstance(value, dict) else value)
               for name, value in vars(machine.perf.snapshot()).items())
    )


def _fingerprint(machine: Machine) -> tuple:
    """A deep structural digest of all snapshot-covered state."""
    cbp = machine.cbp
    return (
        machine.phr().value,
        cbp.base.snapshot(),
        tuple(table.snapshot() for table in cbp.tables),
        machine.btb.snapshot(),
        machine.ibp.snapshot(),
        machine.cache.snapshot(),
        _perf_digest(machine),
        machine.thread().ras.snapshot(),
        machine.ibrs_enabled,
    )


class TestRoundTrip:
    def test_restore_recovers_exact_state(self, machine):
        _train(machine, seed=1)
        snap = machine.snapshot()
        before = _fingerprint(machine)
        _train(machine, seed=2)  # further training on top of the snapshot
        assert _fingerprint(machine) != before
        machine.restore(snap)
        assert _fingerprint(machine) == before

    def test_restore_is_repeatable(self, machine):
        _train(machine, seed=3)
        snap = machine.snapshot()
        machine.restore(snap)
        first = _fingerprint(machine)
        _train(machine, seed=4)
        machine.restore(snap)
        assert _fingerprint(machine) == first

    def test_snapshot_is_immutable_under_further_training(self, machine):
        _train(machine, seed=5)
        snap = machine.snapshot()
        reference = machine.snapshot()
        _train(machine, seed=6)
        machine.restore(snap)
        # Training after the snapshot must not have leaked into it.
        assert machine.snapshot() == reference

    def test_behavior_replays_identically(self, machine):
        """Predictions after restore match those after the original state."""
        _train(machine, seed=7)
        snap = machine.snapshot()
        rng = DeterministicRng(0xBEE)
        probes = [(0x400000 + 0x40 * rng.integer(0, 31), rng.coin())
                  for _ in range(60)]

        def run_probes():
            outcomes = []
            for pc, taken in probes:
                outcomes.append(machine.observe_conditional(
                    pc, pc + 0x100, taken))
            return outcomes

        first = run_probes()
        machine.restore(snap)
        second = run_probes()
        assert first == second

    def test_program_run_replays_identically(self, machine):
        program, expected = build_branchy_victim(seed=0b1011001110)
        snap = machine.snapshot()

        def run_once():
            memory = Memory()
            machine.clear_phr()
            result = machine.run(program, state=CpuState(), memory=memory,
                                 entry=program.entry)
            return ([(r.pc, r.taken, r.next_pc) for r in result.trace],
                    machine.perf.conditional_mispredictions)

        first = run_once()
        machine.restore(snap)
        second = run_once()
        assert first == second

    def test_thread_count_mismatch_rejected(self, machine):
        snap = machine.snapshot()
        other = Machine(SKYLAKE)
        with pytest.raises(ValueError):
            other.restore(snap)


class TestComponentCoverage:
    """Each component's state individually survives the round trip."""

    def test_phr(self, machine):
        phr = machine.phr()
        for index in range(10):
            phr.update(0x400000 + 64 * index, 0x401000 + 64 * index)
        snap = phr.snapshot()
        value = phr.value
        version = phr.version
        phr.update(0x40AA00, 0x40AB00)
        phr.restore(snap)
        assert phr.value == value
        # Restore must bump the version so fold caches resynchronize.
        assert phr.version > version

    def test_pht_counters(self, machine):
        _train(machine, seed=8)
        base_snap = machine.cbp.base.snapshot()
        table_snaps = [t.snapshot() for t in machine.cbp.tables]
        _train(machine, seed=9)
        machine.cbp.base.restore(base_snap)
        for table, snap in zip(machine.cbp.tables, table_snaps):
            table.restore(snap)
        assert machine.cbp.base.snapshot() == base_snap
        assert [t.snapshot() for t in machine.cbp.tables] == table_snaps

    def test_btb(self, machine):
        for index in range(40):
            machine.btb.update(0x400000 + 64 * index, 0x500000 + 64 * index)
        snap = machine.btb.snapshot()
        for index in range(40):
            machine.btb.update(0x600000 + 64 * index, 0x700000 + 64 * index)
        machine.btb.restore(snap)
        assert machine.btb.snapshot() == snap

    def test_ras(self, machine):
        ras = machine.thread().ras
        for index in range(5):
            ras.push(0x400000 + 4 * index)
        snap = ras.snapshot()
        ras.pop()
        ras.push(0xDEAD)
        ras.restore(snap)
        assert ras.snapshot() == snap
        assert ras.pop() == 0x400000 + 16

    def test_ibp(self, machine):
        for index in range(20):
            machine.ibp.update(0x400000 + 64 * index, machine.phr(),
                               0x500000 + 64 * index)
        snap = machine.ibp.snapshot()
        for index in range(20):
            machine.ibp.update(0x600000 + 64 * index, machine.phr(),
                               0x700000)
        machine.ibp.restore(snap)
        assert machine.ibp.snapshot() == snap

    def test_cache(self, machine):
        for index in range(100):
            machine.cache.access(0x2000_0000 + 0x1000 * index)
        snap = machine.cache.snapshot()
        hits, misses = machine.cache.hits, machine.cache.misses
        for index in range(100):
            machine.cache.access(0x3000_0000 + 0x1000 * index)
        machine.cache.flush(0x2000_0000)
        machine.cache.restore(snap)
        assert machine.cache.snapshot() == snap
        assert (machine.cache.hits, machine.cache.misses) == (hits, misses)
        assert machine.cache.contains(0x2000_0000)

    def test_perf_restore_preserves_identity(self, machine):
        perf = machine.perf
        _train(machine, seed=10)
        snap = machine.snapshot()
        counts = perf.conditional_branches
        _train(machine, seed=11)
        machine.restore(snap)
        # Hooks hold machine.perf; restore must mutate it in place.
        assert machine.perf is perf
        assert perf.conditional_branches == counts


class TestMidRunSnapshotReplay:
    """Checkpoints taken *mid-run* restore to an identical replay.

    Regression guard for the trial-harness usage pattern: a machine is
    trained partway through a workload, checkpointed, and every trial
    must replay bit-identically from the restore -- specifically with
    the ``fast`` engine and ``trace='none'``, the configuration the
    parallel harness actually runs (where a stale predecode or a trace
    buffer leaking through restore() would go unnoticed).
    """

    def _run(self, machine, program, trace="none"):
        result = machine.run(program, state=CpuState(), memory=Memory(),
                             trace=trace)
        return ((dict(result.state.regs), result.execution.instructions,
                 result.perf), _fingerprint(machine))

    def test_fast_engine_trace_none_replays_identically(self, machine):
        program, _ = build_branchy_victim(seed=0b0110101001)
        self._run(machine, program)  # train partway through the workload
        snap = machine.snapshot()
        first = self._run(machine, program)
        machine.restore(snap)
        second = self._run(machine, program)
        assert first == second

    def test_snapshot_captured_at_commit_point(self, machine):
        """A snapshot taken from inside the run (via the per-commit
        observation hook) restores to the same forward behavior."""
        program, _ = build_branchy_victim(seed=0b1110001101)
        probe = build_counted_loop(5)
        captured = {}

        def observer(pc, kind, taken):
            if "snap" not in captured and len(captured.setdefault(
                    "commits", [])) >= 10:
                captured["snap"] = machine.snapshot()
                captured["fingerprint"] = _fingerprint(machine)
            else:
                captured["commits"].append(pc)

        machine.branch_observer = observer
        try:
            machine.run(program, state=CpuState(), memory=Memory(),
                        trace="none")
        finally:
            machine.branch_observer = None
        assert "snap" in captured, "workload too short to hit commit #10"

        machine.restore(captured["snap"])
        assert _fingerprint(machine) == captured["fingerprint"]
        first = self._run(machine, probe)
        machine.restore(captured["snap"])
        second = self._run(machine, probe)
        assert first == second


class TestLeakCheckpointEquivalence:
    """Restoring a checkpoint equals full re-provisioning, trial for trial."""

    def test_loop_victim_checkpoint(self, machine):
        from repro.primitives import VictimHandle

        program = build_counted_loop(6)
        handle = VictimHandle(machine, program)
        handle.invoke()
        snap = machine.snapshot()
        first = machine.perf.snapshot()
        handle.invoke()
        machine.restore(snap)
        second = machine.perf.snapshot()
        assert vars(first) == vars(second)
